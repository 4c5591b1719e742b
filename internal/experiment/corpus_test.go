package experiment

import (
	"context"
	"testing"

	"parallax/internal/campaign"
)

func TestNewDist(t *testing.T) {
	if d := NewDist(nil); d.N != 0 {
		t.Fatalf("empty dist: %+v", d)
	}
	if d := NewDist([]float64{7}); d.P10 != 7 || d.P50 != 7 || d.P90 != 7 || d.Mean != 7 {
		t.Fatalf("singleton dist: %+v", d)
	}
	// 0..10: nearest-rank percentiles land on the values themselves.
	vals := []float64{10, 0, 5, 2, 8, 1, 9, 3, 7, 4, 6}
	d := NewDist(vals)
	if d.N != 11 || d.P10 != 1 || d.P50 != 5 || d.P90 != 9 || d.Mean != 5 {
		t.Fatalf("0..10 dist: %+v", d)
	}
}

func TestCorpusPlan(t *testing.T) {
	plan := corpusPlan(105)
	sum := 0
	for _, e := range plan {
		if e.count < 1 {
			t.Errorf("family %s planned %d programs", e.fam.Name, e.count)
		}
		if e.fam.Params.CodeKiB > 1024 && e.count < 2 {
			t.Errorf("big family %s planned %d (< 2): size decades unpopulated", e.fam.Name, e.count)
		}
		sum += e.count
	}
	if sum != 105 {
		t.Errorf("plan totals %d programs, want 105", sum)
	}
	// A small budget still yields a runnable plan (per-family minimums
	// may overdraw the nominal budget; the plan must stay positive).
	for _, e := range corpusPlan(4) {
		if e.fam.Params.CodeKiB <= 1024 && e.count < 1 {
			t.Errorf("small-budget plan dropped %s", e.fam.Name)
		}
	}
}

func TestCorpusCampaignConfig(t *testing.T) {
	cfg := corpusCampaignConfig(CorpusOptions{Mutants: 32}, 16*1024, 16)
	if cfg.Stride < 7 || cfg.Stride%2 == 0 {
		t.Errorf("small-image stride %d: want odd >= 7", cfg.Stride)
	}
	if len(cfg.Kinds) != len(campaign.AllKinds()) {
		t.Errorf("small image dropped mutation kinds: %v", cfg.Kinds)
	}
	big := corpusCampaignConfig(CorpusOptions{Mutants: 32}, 4<<20, 4096)
	if big.Stride <= cfg.Stride || big.Stride%2 == 0 {
		t.Errorf("big-image stride %d: want odd, scaled past %d", big.Stride, cfg.Stride)
	}
	for _, k := range big.Kinds {
		if k == campaign.KindSerial {
			t.Error("big image kept the serial kind (dominates wall clock)")
		}
	}
}

// TestCorpusSweepSmall drives the full sweep loop — generate, check,
// baseline, measure, protect, campaign, reference-path cross-check, aggregate —
// over the minimum plan (one seed per small family) with a trimmed
// mutant budget. The full-scale run lives in
// `parallax-bench -experiment corpus`; this pins the machinery.
func TestCorpusSweepSmall(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("sweep is minutes-scale under -short aggregation or the race detector")
	}
	rep, err := CorpusSweep(context.Background(), CorpusOptions{
		N:          4, // per-family minimums dominate: one seed each, small families only
		Mutants:    8,
		CrossEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Programs) == 0 {
		t.Fatal("sweep produced no programs")
	}
	if rep.CrossChecks == 0 {
		t.Error("no reference-path cross-checks ran")
	}
	if rep.Overall.N != len(rep.Programs) {
		t.Errorf("overall aggregates %d of %d programs", rep.Overall.N, len(rep.Programs))
	}
	seen := map[string]bool{}
	for _, p := range rep.Programs {
		seen[p.Family] = true
		if p.MatrixFP == "" || len(p.ParamsHash) != 16 {
			t.Errorf("%s: unpinned record: fp=%q hash=%q", p.Name, p.MatrixFP, p.ParamsHash)
		}
		// At this trimmed mutant budget the sampled sites may miss every
		// guarded byte, so only the campaign's existence is asserted;
		// guarded coverage is a full-budget (-experiment corpus) claim.
		if p.Mutants == 0 {
			t.Errorf("%s: empty campaign: %+v", p.Name, p)
		}
		if p.BaselineCycles == 0 || p.ProtectedCycles <= p.BaselineCycles {
			t.Errorf("%s: cycle model not engaged: base=%d prot=%d",
				p.Name, p.BaselineCycles, p.ProtectedCycles)
		}
	}
	if len(rep.Families) != len(seen) {
		t.Errorf("aggregated %d families, programs span %d", len(rep.Families), len(seen))
	}
	for _, f := range rep.Families {
		if f.DetectedRate.N != f.N {
			t.Errorf("family %s: dist over %d of %d programs", f.Family, f.DetectedRate.N, f.N)
		}
	}
}

// TestCorpusEnginesTiny runs the two-path comparison on the smallest
// family: wall-clock numbers are host noise at this size, but matrix
// equality between the reference and production paths is a semantic
// invariant.
func TestCorpusEnginesTiny(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two campaigns; skipped under -short or the race detector")
	}
	rows, err := CorpusEngines(context.Background(), []string{"tiny"}, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if !r.MatrixEqual {
		t.Error("detection matrices diverge between the reference and production paths")
	}
	if r.Mutants == 0 || r.TextBytes == 0 {
		t.Errorf("row not populated: %+v", r)
	}
	if r.Speedup <= 0 || r.CatalogHitRate <= 0 {
		t.Errorf("speedup or catalog hit rate not computed: %+v", r)
	}
}
