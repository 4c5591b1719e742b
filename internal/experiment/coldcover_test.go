package experiment

import (
	"context"
	"testing"
)

// TestColdCoverSmoke runs the 2×2 sweep at the smallest affordable
// scale and asserts the experiment's headline direction: cold
// detection is (near-)zero in the idle/plain cell and strictly higher
// once the heavy workload and the composed network are both live. At
// this mutant budget the magnitudes are noisy, so only the ordering —
// the blind spot exists, the mitigations bite — is pinned; magnitudes
// are a full-budget (-experiment coldcover) claim.
func TestColdCoverSmoke(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("four campaigns per program are minutes-scale under -short aggregation or the race detector")
	}
	rep, err := ColdCoverSweep(context.Background(), ColdCoverOptions{
		Families:   []string{"tiny"},
		Seeds:      2,
		Mutants:    48,
		CrossEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Programs) != 2 {
		t.Fatalf("got %d programs, want 2", len(rep.Programs))
	}
	if rep.CrossChecks == 0 {
		t.Error("no reference-path cross-checks ran")
	}
	for _, p := range rep.Programs {
		if len(p.Cells) != 4 {
			t.Fatalf("%s: %d cells, want 4", p.Name, len(p.Cells))
		}
		for _, c := range p.Cells {
			if c.MatrixFP == "" || c.Mutants == 0 {
				t.Errorf("%s %s/composed=%v: empty cell %+v", p.Name, c.Workload, c.Composed, c)
			}
			if c.InfraErrors != 0 {
				t.Errorf("%s %s/composed=%v: %d infra errors in a chaos-free campaign",
					p.Name, c.Workload, c.Composed, c.InfraErrors)
			}
		}
		if p.CoveredBytes == 0 || p.Regions == 0 {
			t.Errorf("%s: composed network covers nothing: %+v", p.Name, p)
		}
		if p.CoveredPct < 50 {
			t.Errorf("%s: composed network covers %.1f%% of text, want most of it", p.Name, p.CoveredPct)
		}
		if p.ComposedOverheadPct <= 0 {
			t.Errorf("%s: composition reports no runtime cost (%.2f%%)", p.Name, p.ComposedOverheadPct)
		}

		idlePlain := p.Cell("idle", false).ColdDetectedRate
		heavyComposed := p.Cell("heavy", true).ColdDetectedRate
		if heavyComposed <= idlePlain {
			t.Errorf("%s: cold detection did not rise: idle/plain %.1f%% vs heavy/composed %.1f%%",
				p.Name, idlePlain, heavyComposed)
		}
		// Composition alone must already lift the idle cell: the
		// checkers hash cold bytes without ever executing them.
		if p.Cell("idle", true).ColdDetectedRate <= idlePlain {
			t.Errorf("%s: composed idle cold rate %.1f%% not above plain idle %.1f%%",
				p.Name, p.Cell("idle", true).ColdDetectedRate, idlePlain)
		}
	}
	if rep.Overall.N != len(rep.Programs) {
		t.Errorf("overall aggregates %d of %d", rep.Overall.N, len(rep.Programs))
	}
}

// TestFarmFanoutSmoke pushes a small fan-out through two worker counts
// and asserts the cache and determinism invariants that the full
// stress (-experiment fanout) measures at hundreds of jobs.
func TestFarmFanoutSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("protect fan-out is tens of seconds under -short aggregation")
	}
	rep, err := FarmFanout(context.Background(), FanoutOptions{
		Jobs:    24,
		Unique:  6,
		Workers: []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 2 {
		t.Fatalf("got %d rounds, want 2", len(rep.Rounds))
	}
	if !rep.Deterministic {
		t.Error("identical inputs produced differing protected images")
	}
	for _, r := range rep.Rounds {
		if r.Failed != 0 || r.Completed != rep.Jobs {
			t.Errorf("workers=%d: %d completed, %d failed of %d", r.Workers, r.Completed, r.Failed, r.Jobs)
		}
		// Each unique module is scanned at most once per concurrent
		// first-submission wave; everything else must hit.
		if maxMisses := uint64(rep.Unique * r.Workers); r.ScanMisses > maxMisses {
			t.Errorf("workers=%d: %d scan misses for %d unique modules", r.Workers, r.ScanMisses, rep.Unique)
		}
		if r.ScanHitRate <= 0 {
			t.Errorf("workers=%d: scan cache never hit (%d hits / %d misses)",
				r.Workers, r.ScanHits, r.ScanMisses)
		}
		if r.OutputFP == "" {
			t.Errorf("workers=%d: no output fingerprint", r.Workers)
		}
	}
	if rep.Rounds[0].OutputFP != rep.Rounds[1].OutputFP {
		t.Errorf("output fingerprints differ across rounds: %s vs %s",
			rep.Rounds[0].OutputFP, rep.Rounds[1].OutputFP)
	}
}
