// External test package: goldens are keyed by generated families, and
// importing corpus/gen from an internal campaign test would read as a
// dependency of the engine on the generator. The goldens only need the
// public campaign API.
package campaign_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"parallax/internal/campaign"
	"parallax/internal/core"
	"parallax/internal/corpus/gen"
)

var update = flag.Bool("update", false, "rewrite campaign matrix goldens")

// goldenKey names a golden by (family, seed, params-hash, workload):
// re-seeding or re-parameterizing a family invalidates exactly the
// goldens whose inputs changed, stale goldens for retired parameter
// tuples are visible as orphaned files rather than silently matched,
// and the same program swept under different workload profiles records
// distinct matrices (the workload decides whether cold code executes).
func goldenKey(fam gen.Family, seed uint64, workload string) string {
	return fmt.Sprintf("%s_s%d_%s_%s", fam.Name, seed, fam.Params.Hash()[:12], workload)
}

// goldenConfig is the pinned campaign configuration the goldens were
// recorded under. Every knob that shapes enumeration or classification
// is explicit; changing any of them requires re-recording with -update.
// The wall-clock watchdog is far above any mutant's MaxInst run, so
// the instruction budget alone decides every timeout cell, also under
// -race on a slow host.
func goldenConfig() campaign.Config {
	return campaign.Config{
		Workers:    4,
		MaxInst:    2_000_000,
		Timeout:    time.Minute,
		Stride:     7,
		MaxMutants: 64,
	}
}

// goldenTargets is the recorded (family, seed, workload) set: two
// seeds of the smallest family plus one mix variant, with the first
// target recorded under both workload profiles so the idle/heavy
// matrix split is itself pinned.
func goldenTargets(t *testing.T) []struct {
	fam      gen.Family
	seed     uint64
	workload string
} {
	t.Helper()
	pick := func(name string) gen.Family {
		fam, err := gen.FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return fam
	}
	return []struct {
		fam      gen.Family
		seed     uint64
		workload string
	}{
		{pick("tiny"), 1, "idle"},
		{pick("tiny"), 1, "heavy"},
		{pick("tiny"), 2, "idle"},
		{pick("branchy"), 1, "heavy"},
	}
}

// TestCampaignGoldens renders each target's detection matrix and
// compares it byte-for-byte against the recorded golden; -update
// rewrites them. A mismatch means the protect pipeline, the campaign's
// deterministic enumeration, the classifier, or the generator changed
// observable behaviour — all of which must be a deliberate, re-recorded
// decision, never drift.
func TestCampaignGoldens(t *testing.T) {
	for _, tgt := range goldenTargets(t) {
		tgt := tgt
		t.Run(goldenKey(tgt.fam, tgt.seed, tgt.workload), func(t *testing.T) {
			prog, err := gen.FamilyProgram(tgt.fam, tgt.seed)
			if err != nil {
				t.Fatal(err)
			}
			stdin, ok := prog.Workload(tgt.workload)
			if !ok {
				t.Fatalf("no workload %q in %s", tgt.workload, prog.Name)
			}
			prot, err := core.Protect(prog.Build(), core.Options{
				VerifyFuncs: []string{prog.VerifyFunc},
			})
			if err != nil {
				t.Fatalf("protect: %v", err)
			}
			cfg := goldenConfig()
			cfg.Stdin = stdin
			rep, err := campaign.Run(context.Background(), prot, cfg)
			if err != nil {
				t.Fatalf("campaign: %v", err)
			}
			got := rep.String()

			path := filepath.Join("testdata", "golden", goldenKey(tgt.fam, tgt.seed, tgt.workload)+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("recorded %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to record): %v", err)
			}
			if got != string(want) {
				t.Errorf("detection matrix drifted from %s:\n--- golden ---\n%s--- got ---\n%s",
					path, want, got)
			}
		})
	}
}

// TestGoldenKeyInvalidation pins the keying contract: a params change
// moves the key (so the old golden cannot be silently matched), a seed
// change moves the key, and the key is a pure function of its inputs.
func TestGoldenKeyInvalidation(t *testing.T) {
	fam, err := gen.FamilyByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	base := goldenKey(fam, 1, "idle")
	if goldenKey(fam, 1, "idle") != base {
		t.Fatal("key not stable")
	}
	if goldenKey(fam, 2, "idle") == base {
		t.Error("seed change did not move the key")
	}
	if goldenKey(fam, 1, "heavy") == base {
		t.Error("workload change did not move the key")
	}
	mutated := fam
	mutated.Params.HotPct++
	if goldenKey(mutated, 1, "idle") == base {
		t.Error("params change did not move the key")
	}
	// The mutated key must not resolve to a recorded golden: a params
	// change invalidates (finds absent) rather than mismatches.
	path := filepath.Join("testdata", "golden", goldenKey(mutated, 1, "idle")+".golden")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("golden unexpectedly exists for mutated params: %s", path)
	}
	// And the real key must resolve, so the invalidation above is
	// meaningful rather than vacuous.
	real := filepath.Join("testdata", "golden", base+".golden")
	if _, err := os.Stat(real); err != nil {
		t.Errorf("recorded golden missing for %s: %v", base, err)
	}
}
