package campaign

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"parallax/internal/attack"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/obs"
)

// diffConfig is the shared differential-test configuration: a generous
// wall-clock watchdog so hangs die deterministically on the instruction
// budget, never on timing. maxInst must exceed the program's clean-run
// instruction count (wget ≈ 3.4M, nginx ≈ 18M).
func diffConfig(workers int, maxInst uint64, maxMutants int) Config {
	return Config{
		Workers:    workers,
		Stride:     5,
		MaxMutants: maxMutants,
		MaxInst:    maxInst,
		Timeout:    60 * time.Second,
	}
}

// catalogMode picks a production leg's translation catalog.
type catalogMode bool

const (
	sharedCatalog  catalogMode = false // the campaign-wide catalog withDefaults creates
	privateCatalog catalogMode = true  // per-worker caches, nothing shared
)

// leg is one execution path's run of a mutant set: the per-mutant
// classes and the registry counters the run accumulated.
type leg struct {
	classes  []Class
	counters map[string]uint64
}

// assertMatchesReference is the differential harness. It runs the
// mutant set once on the reference path (interpreter, clone+reload,
// every mutant replayed from the entry point) and once on the
// production path per catalog mode (tb, one persistent engine per
// worker, fork points; sharedCatalog when no mode is given), and holds
// each production leg to the reference leg:
//   - every mutant classifies alike;
//   - emu.runs is equal, and so is emu.insts without fault injection: a
//     resumed mutant's final Icount includes the clean prefix it
//     inherited, so it equals the full replay's (an injected stdin cut
//     stops a full replay at the read(2) that crossed it, but a resumed
//     run at its fork point: same class, different final Icount);
//   - campaign.inherited_insts is zero on the reference leg and
//     positive on the production leg;
//   - neither path counts a harness panic.
//
// It returns the production legs in mode order.
func assertMatchesReference(t *testing.T, prot *core.Protected, mutants []Mutant, cfg Config, modes ...catalogMode) []leg {
	t.Helper()
	if len(modes) == 0 {
		modes = []catalogMode{sharedCatalog}
	}
	cfg.Engine, cfg.cat, cfg.rec, cfg.Obs = "", nil, nil, nil
	clean := attack.RunWith(context.Background(), prot.Image, attack.RunConfig{
		Stdin: cfg.Stdin, MaxInst: cfg.MaxInst,
		MemBudget: cfg.MemBudget, StackSize: cfg.StackSize,
	})
	if clean.Err != nil {
		t.Fatalf("clean run: %v", clean.Err)
	}
	run := func(name string, cfg Config) leg {
		reg := obs.NewRegistry()
		cfg.Obs = reg
		classes, panics, err := executeAll(context.Background(), prot, mutants, clean, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if panics != 0 {
			t.Fatalf("%s: %d harness panics", name, panics)
		}
		return leg{classes, reg.Snapshot().Counters}
	}

	ref := cfg
	ref.Reload = true
	want := run("reference path", ref.withDefaults())
	if want.counters["campaign.inherited_insts"] != 0 {
		t.Error("the reference path inherited instructions")
	}
	var legs []leg
	for _, mode := range modes {
		name := "production path (shared catalog)"
		prod := cfg
		prod.Reload = false
		prod = prod.withDefaults()
		if mode == privateCatalog {
			name = "production path (private caches)"
			prod.cat = nil
		}
		_, prod.rec = reference(context.Background(), prot.Image, prod)
		got := run(name, prod)
		diverged := 0
		for i := range mutants {
			if want.classes[i] != got.classes[i] {
				if diverged++; diverged <= 10 {
					t.Errorf("mutant %d (%v): reference=%v %s=%v", i, mutants[i], want.classes[i], name, got.classes[i])
				}
			}
		}
		if diverged > 0 {
			t.Fatalf("%s: %d of %d mutants classified differently from the reference path", name, diverged, len(mutants))
		}
		for _, c := range []string{"emu.insts", "emu.runs"} {
			if want.counters[c] != got.counters[c] && (c == "emu.runs" || cfg.Chaos == nil) {
				t.Errorf("%s: reference path %d, %s %d", c, want.counters[c], name, got.counters[c])
			}
		}
		if got.counters["campaign.inherited_insts"] == 0 {
			t.Errorf("%s resumed no mutant from a fork point", name)
		}
		legs = append(legs, got)
	}
	return legs
}

// assertSameReport requires Run to return field-for-field equal
// reports on the reference and the production path.
func assertSameReport(t *testing.T, prot *core.Protected, cfg Config) {
	t.Helper()
	ref := cfg
	ref.Reload = true
	repRef, err := Run(context.Background(), prot, ref)
	if err != nil {
		t.Fatal(err)
	}
	repProd, err := Run(context.Background(), prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repRef, repProd) {
		t.Errorf("reports differ between paths:\nreference:\n%s\nproduction:\n%s", repRef, repProd)
	}
}

// protectedCorpus protects one seed corpus program for campaigning.
func protectedCorpus(t *testing.T, name string) (*core.Protected, []byte) {
	t.Helper()
	p, err := corpus.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := core.Protect(p.Build(), core.Options{
		VerifyFuncs: []string{p.VerifyFunc}, Workload: p.Stdin,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prot, p.Stdin
}

// TestDifferentialTarget is the always-on differential: the synthetic
// campaign target, every mutation kind, and the full Run reports of
// both paths compared field for field. Cheap enough to run under the race
// detector too.
func TestDifferentialTarget(t *testing.T) {
	prot := protectedTarget(t)
	cfg := Config{
		Stride:     3,
		MaxMutants: 400,
		MaxInst:    2_000_000,
		Timeout:    60 * time.Second,
	}
	mutants, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, prot, mutants, cfg)

	assertSameReport(t, prot, cfg)
}

// TestDifferentialCorpus: the enumerated campaign over the seed wget
// and nginx corpus must classify identically on both execution paths,
// and (for wget) the full Run reports must match field for field.
func TestDifferentialCorpus(t *testing.T) {
	if raceEnabled {
		t.Skip("corpus differential skipped under -race (covered by the synthetic target)")
	}
	cases := []struct {
		name       string
		maxInst    uint64
		maxMutants int
		reports    bool
	}{
		{"wget", 6_000_000, 60, true},
		{"nginx", 25_000_000, 24, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prot, stdin := protectedCorpus(t, tc.name)
			cfg := diffConfig(1, tc.maxInst, tc.maxMutants)
			cfg.Stdin = stdin

			mutants, err := Enumerate(prot, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesReference(t, prot, mutants, cfg)
			if !tc.reports {
				return
			}
			assertSameReport(t, prot, cfg)
		})
	}
}

// TestDifferentialRandomMutants throws seeded-random byte patches at
// both paths, deliberately including sites outside initialized data
// (BSS tails) and section edges, where the clone path's image.WriteAt
// and the production path's applyVM could plausibly disagree on bounds.
func TestDifferentialRandomMutants(t *testing.T) {
	if raceEnabled {
		t.Skip("corpus differential skipped under -race (covered by the synthetic target)")
	}
	prot, stdin := protectedCorpus(t, "wget")
	sections := prot.Image.Sections
	if len(sections) == 0 {
		t.Fatal("protected image has no sections")
	}

	r := rand.New(rand.NewSource(1))
	var mutants []Mutant
	for i := 0; i < 60; i++ {
		sec := sections[r.Intn(len(sections))]
		// Bias toward edges: full Size span includes BSS, which the
		// clone path's WriteAt rejects — parity there matters most.
		off := uint32(r.Intn(int(sec.Size)))
		if i%5 == 0 && sec.Size > 4 {
			off = sec.Size - uint32(1+r.Intn(4))
		}
		m := Mutant{
			Region:  regionOf(prot.Image, sec.Addr+off),
			Addr:    sec.Addr + off,
			Len:     1,
			Guarded: i%2 == 0,
		}
		switch r.Intn(3) {
		case 0:
			m.Kind = KindBitFlip
			m.Bit = uint8(r.Intn(8))
		case 1:
			m.Kind = KindByteSet
		default:
			m.Kind = KindNopSweep
			m.Len = 1 + r.Intn(6)
		}
		mutants = append(mutants, m)
	}
	cfg := diffConfig(1, 6_000_000, 0)
	cfg.Stdin = stdin
	assertMatchesReference(t, prot, mutants, cfg)
}

// TestDifferentialMultiWorker is the -race variant: several workers
// per path, each production worker with its own vmEngine, sharing
// only the base image and the catalog — and still the identical
// classification vector. Uses the
// synthetic target so the race build can afford it.
func TestDifferentialMultiWorker(t *testing.T) {
	prot := protectedTarget(t)
	cfg := Config{
		Workers:    4,
		Stride:     3,
		MaxMutants: 400,
		MaxInst:    2_000_000,
		Timeout:    60 * time.Second,
	}
	mutants, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, prot, mutants, cfg)
}
