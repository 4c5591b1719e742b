package gen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"parallax/internal/attack"
	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/emu"
	"parallax/internal/gadget"
	"parallax/internal/image"
)

// imageBytes serializes an image to its canonical on-disk form — the
// byte string the determinism properties quantify over.
func imageBytes(t *testing.T, img *image.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

func buildImage(t *testing.T, seed uint64, p Params) *image.Image {
	t.Helper()
	prog, err := Generate(seed, p)
	if err != nil {
		t.Fatalf("Generate(%d): %v", seed, err)
	}
	img, err := codegen.Build(prog.Build())
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return img
}

func tinyParams() Params {
	return Params{Modules: 2, CodeKiB: 16, DataKiB: 16, HotPct: 25, Mix: DefaultMix()}
}

// TestGenDeterminism: same (seed, params) must produce a byte-identical
// image across repeated builds, across GOMAXPROCS settings, and under
// concurrent generation — the property goldens, checkpoint journals,
// and the differential gates are built on.
func TestGenDeterminism(t *testing.T) {
	p := tinyParams()
	want := imageBytes(t, buildImage(t, 7, p))

	for i := 0; i < 3; i++ {
		if got := imageBytes(t, buildImage(t, 7, p)); !bytes.Equal(got, want) {
			t.Fatalf("rebuild %d: image bytes differ", i)
		}
	}

	prev := runtime.GOMAXPROCS(1)
	one := imageBytes(t, buildImage(t, 7, p))
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(one, want) {
		t.Fatal("GOMAXPROCS=1 build differs")
	}

	// Concurrent generation: 8 goroutines, no shared state allowed to
	// leak into the output.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prog, err := Generate(7, p)
			if err != nil {
				errs[g] = err
				return
			}
			img, err := codegen.Build(prog.Build())
			if err != nil {
				errs[g] = err
				return
			}
			var buf bytes.Buffer
			if _, err := img.WriteTo(&buf); err != nil {
				errs[g] = err
				return
			}
			if !bytes.Equal(buf.Bytes(), want) {
				errs[g] = fmt.Errorf("goroutine %d: image bytes differ", g)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// catalogFP fingerprints a gadget catalog by (addr, len, kind) of every
// gadget in scan order.
func catalogFP(c *gadget.Catalog) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, g := range c.Gadgets {
		lo, hi := g.Range()
		put32 := func(off int, v uint32) {
			b[off] = byte(v)
			b[off+1] = byte(v >> 8)
			b[off+2] = byte(v >> 16)
			b[off+3] = byte(v >> 24)
		}
		put32(0, lo)
		put32(4, hi)
		put32(8, uint32(g.Kind))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGenDistinctSeeds: different seeds must yield distinct images AND
// distinct gadget catalogs — no accidental aliasing where two seeds
// emit cosmetically different code with the same gadget population.
func TestGenDistinctSeeds(t *testing.T) {
	p := tinyParams()
	seenImg := make(map[uint64]uint64)
	seenCat := make(map[uint64]uint64)
	for seed := uint64(1); seed <= 6; seed++ {
		img := buildImage(t, seed, p)
		h := fnv.New64a()
		h.Write(imageBytes(t, img))
		ifp := h.Sum64()
		cfp := catalogFP(gadget.Scan(img))
		for prev, fp := range seenImg {
			if fp == ifp {
				t.Fatalf("seeds %d and %d: identical image bytes", prev, seed)
			}
		}
		for prev, fp := range seenCat {
			if fp == cfp {
				t.Fatalf("seeds %d and %d: identical gadget catalogs", prev, seed)
			}
		}
		seenImg[seed] = ifp
		seenCat[seed] = cfp
	}
}

// TestGenSizeAccuracy: generated text lands within ±20% of the CodeKiB
// target across the full size axis (three decades).
func TestGenSizeAccuracy(t *testing.T) {
	sizes := []int{16, 160}
	if !testing.Short() {
		sizes = append(sizes, 1600, 4096)
	}
	for _, kib := range sizes {
		p := Params{Modules: 2, CodeKiB: kib, DataKiB: 16, HotPct: 25, Mix: DefaultMix()}
		img := buildImage(t, 1, p)
		got := len(img.Text().Data)
		ratio := float64(got) / float64(kib*1024)
		t.Logf("kib=%d text=%d ratio=%.3f", kib, got, ratio)
		if ratio < 0.80 || ratio > 1.20 {
			t.Errorf("CodeKiB=%d: text %d bytes, ratio %.2f outside [0.80, 1.20]", kib, got, ratio)
		}
	}
}

// TestGenInvariants runs the shared region-map invariant checker over
// every family preset: raw image invariants plus cross-module
// relocations for all, full protected-image invariants and a clean
// protected run for the cheap families.
func TestGenInvariants(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			big := fam.Params.CodeKiB > 256
			if big && testing.Short() {
				t.Skip("big family in -short mode")
			}
			prog, err := FamilyProgram(fam, 3)
			if err != nil {
				t.Fatal(err)
			}
			m := prog.Build()
			img, err := codegen.Build(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckImage(img); err != nil {
				t.Errorf("CheckImage: %v", err)
			}
			if err := CheckCrossModule(img, fam.Params); err != nil {
				t.Errorf("CheckCrossModule: %v", err)
			}
			if big {
				// Protecting a multi-MiB image is seconds of work; the
				// sweep and the bench exercise that path. Unit tests stop
				// at raw-image invariants here.
				return
			}
			prot, err := core.Protect(m, core.Options{VerifyFuncs: []string{prog.VerifyFunc}})
			if err != nil {
				t.Fatalf("protect: %v", err)
			}
			if err := CheckProtected(prot); err != nil {
				t.Errorf("CheckProtected: %v", err)
			}
			cpu, err := emu.RunImage(prot.Image, emu.NewOS(prog.Stdin))
			if err != nil {
				t.Fatalf("protected run: %v", err)
			}
			if cpu.Status >= 128 {
				t.Errorf("protected run status %d", cpu.Status)
			}
			if cpu.Icount > 5_000_000 {
				t.Errorf("workload not bounded: %d insts", cpu.Icount)
			}
		})
	}
}

// TestGenProtectedMatchesBaseline pins three generated modules whose
// text offers load gadgets carrying a second, incidental memory read
// (tiny-149853: "test [ebx+0xe045c7be],edx; mov eax,[ebx]; ret";
// tiny-323: "adc eax,[edx-0x17ba38c0]; mov eax,[ebx]; ret"). A chain
// built from one faults within ~74 instructions, so each protected
// clean run must equal its baseline on both engines.
func TestGenProtectedMatchesBaseline(t *testing.T) {
	for _, c := range []struct {
		fam  string
		seed uint64
	}{{"tiny", 149853}, {"tiny", 323}, {"muldiv", 103}} {
		fam, err := FamilyByName(c.fam)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := FamilyProgram(fam, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(prog.Name, func(t *testing.T) {
			prot, err := core.Protect(prog.Build(), core.Options{VerifyFuncs: []string{prog.VerifyFunc}})
			if err != nil {
				t.Fatalf("protect: %v", err)
			}
			for _, engine := range emu.Engines {
				run := func(img *image.Image) attack.RunResult {
					return attack.RunWith(context.Background(), img, attack.RunConfig{
						Stdin: prog.Stdin, MaxInst: 5_000_000, Engine: engine,
					})
				}
				base, got := run(prot.Baseline), run(prot.Image)
				if base.Err != nil {
					t.Fatalf("%s baseline: %v", engine, base.Err)
				}
				if got.Err != nil || got.Status != base.Status || got.Stdout != base.Stdout {
					t.Errorf("%s: protected run (status %d, err %v, eip %#x after %d insts) differs from baseline (status %d)",
						engine, got.Status, got.Err, got.EIP, got.Icount, base.Status)
				}
			}
		})
	}
}

// TestGenDescribe: the plan skeleton is seed-independent, covers every
// function symbol, and marks a non-empty hot set threading through
// every module.
func TestGenDescribe(t *testing.T) {
	p := Params{Modules: 4, CodeKiB: 64, DataKiB: 8, HotPct: 25, Mix: DefaultMix()}
	info, err := Describe(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Funcs) == 0 || len(info.Hot) < 2 {
		t.Fatalf("degenerate skeleton: %d funcs, %d hot", len(info.Funcs), len(info.Hot))
	}
	img := buildImage(t, 11, p)
	for _, name := range info.Funcs {
		if _, ok := img.Symbol(name); !ok {
			t.Errorf("planned function %s missing from image", name)
		}
	}
	mods := make(map[int]bool)
	for name := range info.Hot {
		mods[info.Module[name]] = true
	}
	if len(mods) != p.Modules {
		t.Errorf("hot set touches %d of %d modules", len(mods), p.Modules)
	}
}

// TestParamsValidate: every out-of-bounds field fails with a typed
// *ParamError wrapping ErrBadParams, naming the offending field.
func TestParamsValidate(t *testing.T) {
	base := tinyParams()
	cases := []struct {
		name   string
		mutate func(*Params)
		field  string
	}{
		{"modules-zero", func(p *Params) { p.Modules = 0 }, "Modules"},
		{"modules-over", func(p *Params) { p.Modules = MaxModules + 1 }, "Modules"},
		{"modules-vs-size", func(p *Params) { p.Modules = 16; p.CodeKiB = 16 }, "Modules"},
		{"code-small", func(p *Params) { p.CodeKiB = MinCodeKiB - 1 }, "CodeKiB"},
		{"code-big", func(p *Params) { p.CodeKiB = MaxCodeKiB + 1 }, "CodeKiB"},
		{"code-negative", func(p *Params) { p.CodeKiB = -4096 }, "CodeKiB"},
		{"data-zero", func(p *Params) { p.DataKiB = 0 }, "DataKiB"},
		{"data-big", func(p *Params) { p.DataKiB = MaxDataKiB + 1 }, "DataKiB"},
		{"hot-zero", func(p *Params) { p.HotPct = 0 }, "HotPct"},
		{"hot-over", func(p *Params) { p.HotPct = 101 }, "HotPct"},
		{"weight-negative", func(p *Params) { p.Mix.ALU = -1 }, "Mix.ALU"},
		{"weight-over", func(p *Params) { p.Mix.Mem = MaxWeight + 1 }, "Mix.Mem"},
		{"mix-zero", func(p *Params) { p.Mix = Mix{} }, "Mix"},
		{"mix-call-only", func(p *Params) { p.Mix = Mix{Call: 5} }, "Mix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mutate(&p)
			err := p.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !errors.Is(err, ErrBadParams) {
				t.Errorf("error %v does not wrap ErrBadParams", err)
			}
			var pe *ParamError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is not a *ParamError", err)
			}
			if pe.Field != tc.field {
				t.Errorf("field %q, want %q", pe.Field, tc.field)
			}
			if _, gerr := Generate(1, p); gerr == nil {
				t.Error("Generate accepted invalid params")
			}
		})
	}
}

// TestParamsHash: the hash is canonical and every field change moves it.
func TestParamsHash(t *testing.T) {
	base := tinyParams()
	h0 := base.Hash()
	if base.Hash() != h0 {
		t.Fatal("hash not stable")
	}
	mutants := []func(*Params){
		func(p *Params) { p.Modules = 1 },
		func(p *Params) { p.CodeKiB = 32 },
		func(p *Params) { p.DataKiB = 32 },
		func(p *Params) { p.HotPct = 50 },
		func(p *Params) { p.Mix.ALU++ },
		func(p *Params) { p.Mix.Branch++ },
		func(p *Params) { p.Mix.Mem++ },
		func(p *Params) { p.Mix.Call++ },
		func(p *Params) { p.Mix.MulDiv++ },
	}
	seen := map[string]int{h0: -1}
	for i, mutate := range mutants {
		p := base
		mutate(&p)
		h := p.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutant %d collides with %d", i, prev)
		}
		seen[h] = i
	}
}

// TestFamilies: every preset validates, names are unique, the size axis
// spans three decades, and FamilyByName round-trips.
func TestFamilies(t *testing.T) {
	fams := Families()
	names := make(map[string]bool)
	minKiB, maxKiB := MaxCodeKiB, MinCodeKiB
	for _, f := range fams {
		if names[f.Name] {
			t.Errorf("duplicate family %s", f.Name)
		}
		names[f.Name] = true
		if err := f.Params.Validate(); err != nil {
			t.Errorf("family %s invalid: %v", f.Name, err)
		}
		if f.Params.CodeKiB < minKiB {
			minKiB = f.Params.CodeKiB
		}
		if f.Params.CodeKiB > maxKiB {
			maxKiB = f.Params.CodeKiB
		}
		got, err := FamilyByName(f.Name)
		if err != nil || got.Name != f.Name {
			t.Errorf("FamilyByName(%s): %v", f.Name, err)
		}
	}
	if maxKiB/minKiB < 100 {
		t.Errorf("size axis spans %dx, want >= 100x (three decades)", maxKiB/minKiB)
	}
	if _, err := FamilyByName("no-such-family"); err == nil {
		t.Error("FamilyByName accepted unknown name")
	}
}
