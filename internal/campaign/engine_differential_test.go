package campaign

import (
	"context"
	"testing"
	"time"

	"parallax/internal/attack"
	"parallax/internal/core"
	"parallax/internal/dyngen"
	"parallax/internal/emu"
	"parallax/internal/obs"
)

// engineClasses executes the mutant set under one engine configuration
// and returns the per-mutant classification vector plus the registry
// that accumulated the run's emu.tb.* counters. private forces
// per-worker translation caches by dropping the shared catalog
// withDefaults created.
func engineClasses(t *testing.T, prot *core.Protected, mutants []Mutant,
	cfg Config, engine emu.Engine, private bool) ([]Class, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Engine = engine
	cfg.Obs = reg
	cfg = cfg.withDefaults()
	if private {
		cfg.cat = nil
	}
	clean := attack.RunWith(context.Background(), prot.Image, attack.RunConfig{
		Stdin: cfg.Stdin, MaxInst: cfg.MaxInst,
		MemBudget: cfg.MemBudget, StackSize: cfg.StackSize,
		Obs: cfg.Obs, Engine: cfg.Engine, Catalog: cfg.cat,
	})
	if clean.Err != nil {
		t.Fatalf("clean run (%s): %v", engine, clean.Err)
	}
	classes, panics, err := executeAll(context.Background(), prot, mutants, clean, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if panics != 0 {
		t.Fatalf("engine %s: %d harness panics", engine, panics)
	}
	return classes, reg
}

// assertSameVector requires two classification vectors to agree on
// every mutant.
func assertSameVector(t *testing.T, mutants []Mutant, name string, want, got []Class) {
	t.Helper()
	diverged := 0
	for i := range mutants {
		if want[i] != got[i] {
			diverged++
			if diverged <= 10 {
				t.Errorf("mutant %d (%v): interp=%v %s=%v", i, mutants[i], want[i], name, got[i])
			}
		}
	}
	if diverged > 0 {
		t.Fatalf("%s: %d of %d mutants classified differently from interp", name, diverged, len(mutants))
	}
}

// TestDifferentialEngines is the engine-flip gate on the snapshot
// path: the same multi-worker mutant set classified under the
// interpreter, under tb with private per-worker caches, and under tb
// with the campaign's shared catalog must produce identical vectors —
// and the shared catalog must do strictly less translation work than
// the private caches while actually adopting blocks. Compact enough
// for the race build, where the catalog's concurrent adopt/install
// paths get checked across 4 workers.
func TestDifferentialEngines(t *testing.T) {
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

	interp, _ := engineClasses(t, prot, mutants, cfg, "", false)
	private, regPriv := engineClasses(t, prot, mutants, cfg, "tb", true)
	shared, regShared := engineClasses(t, prot, mutants, cfg, "tb", false)

	assertSameVector(t, mutants, "tb-private", interp, private)
	assertSameVector(t, mutants, "tb-shared", interp, shared)

	tPriv := regPriv.Counter("emu.tb.translations").Value()
	tShared := regShared.Counter("emu.tb.translations").Value()
	if tShared >= tPriv {
		t.Errorf("shared catalog translated %d blocks, private caches %d; want strictly fewer", tShared, tPriv)
	}
	if hits := regShared.Counter("emu.tb.catalog_hits").Value(); hits == 0 {
		t.Error("shared-catalog campaign recorded no catalog hits")
	}
	if regPriv.Counter("emu.tb.catalog_hits").Value() != 0 {
		t.Error("private-cache campaign recorded catalog hits")
	}
}

// TestDifferentialEnginesReload covers the clone+reload path: every
// mutant gets a fresh CPU, so the shared catalog is the only thing
// carrying translations across runs — and the vector must still match
// the interpreter's.
func TestDifferentialEnginesReload(t *testing.T) {
	prot := protectedTarget(t)
	cfg := Config{
		Workers:    2,
		Reload:     true,
		Stride:     5,
		MaxMutants: 120,
		MaxInst:    2_000_000,
		Timeout:    60 * time.Second,
	}
	mutants, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	interp, _ := engineClasses(t, prot, mutants, cfg, "", false)
	shared, regShared := engineClasses(t, prot, mutants, cfg, "tb", false)
	assertSameVector(t, mutants, "tb-shared-reload", interp, shared)
	if hits := regShared.Counter("emu.tb.catalog_hits").Value(); hits == 0 {
		t.Error("reload-path shared catalog recorded no hits")
	}
}

// TestDifferentialEnginesSMC protects the target with xor chains — the
// decoder decrypts the chain buffer before every call, so every run
// self-modifies chain-guarded bytes — and requires engine-identical
// classification with the shared catalog attached. This pins the
// interaction between per-engine SMC invalidation and catalog
// adoption: a mutant adopting a block whose bytes its own decoder is
// about to rewrite must still converge on the interpreter's outcome.
func TestDifferentialEnginesSMC(t *testing.T) {
	p, err := core.Protect(targetModule(t), core.Options{
		VerifyFuncs: []string{"mix"}, ChainMode: dyngen.ModeXor,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workers:    4,
		Stride:     3,
		MaxMutants: 300,
		MaxInst:    2_000_000,
		Timeout:    60 * time.Second,
	}
	mutants, err := Enumerate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	interp, _ := engineClasses(t, p, mutants, cfg, "", false)
	shared, _ := engineClasses(t, p, mutants, cfg, "tb", false)
	assertSameVector(t, mutants, "tb-shared-smc", interp, shared)
}
