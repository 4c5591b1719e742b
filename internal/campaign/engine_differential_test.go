package campaign

import (
	"testing"
	"time"

	"parallax/internal/core"
	"parallax/internal/dyngen"
)

// TestDifferentialEngines is the catalog gate: the same multi-worker
// mutant set on the production path with private per-worker caches
// and with the campaign's shared catalog must classify exactly as the
// reference path does — and the shared catalog must do strictly less
// translation work than the private caches while actually adopting
// blocks. Compact enough for the race build, where the catalog's
// concurrent adopt/install paths get checked across 4 workers.
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
	legs := assertMatchesReference(t, prot, mutants, cfg, privateCatalog, sharedCatalog)
	priv, shared := legs[0].counters, legs[1].counters

	if tp, ts := priv["emu.tb.translations"], shared["emu.tb.translations"]; ts >= tp {
		t.Errorf("shared catalog translated %d blocks, private caches %d; want strictly fewer", ts, tp)
	}
	if shared["emu.tb.catalog_hits"] == 0 {
		t.Error("shared-catalog campaign recorded no catalog hits")
	}
	if priv["emu.tb.catalog_hits"] != 0 {
		t.Error("private-cache campaign recorded catalog hits")
	}
}

// TestDifferentialEnginesSMC protects the target with xor chains — the
// decoder decrypts the chain buffer before every call, so every run
// self-modifies chain-guarded bytes — and holds the production path,
// shared catalog attached, to the reference path. This pins the
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
	assertMatchesReference(t, p, mutants, cfg)
}
