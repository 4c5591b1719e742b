package farm

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/dyngen"
	"parallax/internal/image"
)

var allModes = []dyngen.Mode{
	dyngen.ModeStatic, dyngen.ModeXor, dyngen.ModeRC4, dyngen.ModeProb,
}

// matrixSpec is one (program, mode) cell of the corpus matrix.
type matrixSpec struct {
	name string
	prog corpus.Program
	opts core.Options
}

func corpusMatrix() []matrixSpec {
	var specs []matrixSpec
	for _, p := range corpus.All() {
		for _, m := range allModes {
			specs = append(specs, matrixSpec{
				name: fmt.Sprintf("%s/%s", p.Name, m),
				prog: p,
				opts: core.Options{
					VerifyFuncs: []string{p.VerifyFunc},
					ChainMode:   m,
				},
			})
		}
	}
	return specs
}

func imageBytes(t *testing.T, img *image.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatalf("serializing image: %v", err)
	}
	return buf.Bytes()
}

// TestFarmDeterminism is the subsystem's acceptance bar: the corpus ×
// chain-mode matrix protected through an 8-worker farm must produce
// images byte-identical to sequential core.Protect — on a cold cache,
// and again on a warm cache where hints and memoized scans kick in.
func TestFarmDeterminism(t *testing.T) {
	specs := corpusMatrix()

	// Sequential reference, no farm involved.
	want := make(map[string][]byte, len(specs))
	for _, s := range specs {
		prot, err := core.Protect(s.prog.Build(), s.opts)
		if err != nil {
			t.Fatalf("sequential %s: %v", s.name, err)
		}
		want[s.name] = imageBytes(t, prot.Image)
	}

	f := New(Config{Workers: 8})
	defer f.Close()
	ctx := context.Background()

	runRound := func(round string) {
		jobs := make([]*Job, len(specs))
		for i, s := range specs {
			j, err := f.Submit(ctx, s.name, s.prog.Build(), s.opts)
			if err != nil {
				t.Fatalf("%s submit %s: %v", round, s.name, err)
			}
			jobs[i] = j
		}
		for i, j := range jobs {
			res, err := j.Wait(ctx)
			if err != nil {
				t.Fatalf("%s wait %s: %v", round, specs[i].name, err)
			}
			if res.Err != nil {
				t.Fatalf("%s job %s: %v", round, specs[i].name, res.Err)
			}
			got := imageBytes(t, res.Protected.Image)
			if !bytes.Equal(got, want[specs[i].name]) {
				t.Errorf("%s job %s: image differs from sequential core.Protect", round, specs[i].name)
			}
		}
	}

	runRound("cold")
	cold := f.Stats()
	if cold.JobsCompleted != uint64(len(specs)) || cold.JobsFailed != 0 {
		t.Fatalf("cold stats: %v", cold)
	}

	runRound("warm")
	warm := f.Stats().Delta(cold)
	if warm.JobsCompleted != uint64(len(specs)) {
		t.Fatalf("warm stats: %v", warm)
	}
	// Warm round: every job is seeded with converged layout hints, runs
	// a single fixpoint pass, and that pass's scan is a cache hit — the
	// scan runs zero times, hit rate 100% (≥ the 75% acceptance bar).
	if warm.HintHits != uint64(len(specs)) {
		t.Errorf("warm round: hint hits = %d, want %d", warm.HintHits, len(specs))
	}
	if warm.ScanMisses != 0 {
		t.Errorf("warm round: %d scans ran, want 0 (all cached)", warm.ScanMisses)
	}
	if hr := warm.ScanHitRate(); hr < 0.75 {
		t.Errorf("warm round: scan hit rate %.2f, want >= 0.75", hr)
	}
}

// TestFarmSharedCache hands one farm's warm cache to a second farm
// with a different worker count: results stay byte-identical and the
// scans are served from the shared cache.
func TestFarmSharedCache(t *testing.T) {
	p, err := corpus.ByName("nginx")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{VerifyFuncs: []string{p.VerifyFunc}, ChainMode: dyngen.ModeXor}
	ctx := context.Background()

	f1 := New(Config{Workers: 2})
	prot1, err := f1.Protect(ctx, "warmup", p.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := f1.Cache()
	f1.Close()

	f2 := New(Config{Workers: 4, Cache: cache})
	defer f2.Close()
	j, err := f2.Submit(ctx, "reuse", p.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(ctx)
	if err != nil || res.Err != nil {
		t.Fatalf("wait: %v, job: %v", err, res.Err)
	}
	if !bytes.Equal(imageBytes(t, prot1.Image), imageBytes(t, res.Protected.Image)) {
		t.Error("image differs across farms sharing a cache")
	}
	if !res.HintUsed {
		t.Error("second farm did not use cached layout hints")
	}
	if res.ScanMisses != 0 || res.ScanHits == 0 {
		t.Errorf("second farm scans: %d hits / %d misses, want all hits",
			res.ScanHits, res.ScanMisses)
	}
	if st := f2.Stats(); st.HintHits != 1 {
		t.Errorf("second farm stats: %v", st)
	}
}

// TestFarmDifferentOptionsDifferentKeys guards against cache
// confusion: the same program under two seeds must not share hints or
// produce equal images.
func TestFarmDifferentOptionsDifferentKeys(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f := New(Config{Workers: 2})
	defer f.Close()

	mk := func(seed uint32) core.Options {
		return core.Options{
			VerifyFuncs: []string{p.VerifyFunc},
			ChainMode:   dyngen.ModeXor,
			Seed:        seed,
		}
	}
	a, err := f.Protect(ctx, "seed-a", p.Build(), mk(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Protect(ctx, "seed-b", p.Build(), mk(2))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(imageBytes(t, a.Image), imageBytes(t, b.Image)) {
		t.Error("different seeds produced identical images — cache key too coarse?")
	}
	// And each must still match its own sequential run.
	for seed, got := range map[uint32]*core.Protected{1: a, 2: b} {
		seq, err := core.Protect(p.Build(), mk(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(imageBytes(t, seq.Image), imageBytes(t, got.Image)) {
			t.Errorf("seed %d: farm image differs from sequential", seed)
		}
	}
}

// TestFarmAutoSelectMatchesProtect: an AutoSelect job runs the §VII-B
// profile inside the farm, and its output is byte-identical to a
// direct core.Protect of the same module and options.
func TestFarmAutoSelectMatchesProtect(t *testing.T) {
	p, err := corpus.ByName("wget")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{AutoSelect: true, Workload: p.Stdin}
	want, err := core.Protect(p.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Workers: 2})
	defer f.Close()
	got, err := f.Protect(context.Background(), "wget-auto", p.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.VerifyFuncs, want.VerifyFuncs) {
		t.Errorf("farm selected %v, core.Protect %v", got.VerifyFuncs, want.VerifyFuncs)
	}
	if !bytes.Equal(imageBytes(t, got.Image), imageBytes(t, want.Image)) {
		t.Error("farm AutoSelect image differs from core.Protect")
	}
	if !bytes.Equal(imageBytes(t, got.Baseline), imageBytes(t, want.Baseline)) {
		t.Error("farm AutoSelect baseline differs from core.Protect")
	}
}
