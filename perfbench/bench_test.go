package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"parallax/internal/campaign"
	"parallax/internal/corpus/gen"
)

// sliceSpec is a reduced campaign-cold input: one tiny generated image
// under the heavy workload, a few dozen mutants.
func sliceSpec(t *testing.T, seed uint64) campaignSpec {
	t.Helper()
	fam, err := gen.FamilyByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.FamilyProgram(fam, seed)
	if err != nil {
		t.Fatal(err)
	}
	return campaignSpec{targets: []targetSpec{{p, "heavy", 1500}}}
}

// The measured campaign configuration must classify every mutant
// exactly as the independent reference path (interpreter, clone and
// reload per mutant) does.
func TestCampaignConfigMatchesReference(t *testing.T) {
	ctx := context.Background()
	rc := runConfig{seed: 1, workers: 2}
	tgts, _, problems, err := prepare(ctx, rc, sliceSpec(t, 1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatal(problems)
	}
	tg := tgts[0]
	got, err := campaign.Run(ctx, tg.prot, tg.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := tg.cfg
	ref.Engine, ref.Reload = "interp", true
	want, err := campaign.Run(ctx, tg.prot, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mutants == 0 || got.String() != want.String() {
		t.Fatalf("tb campaign matrix differs from the reference path:\n%s\nreference:\n%s", got, want)
	}
}

// The traced replay must do exactly the campaign's work: its
// instruction and restore totals match campaign.Run's, and tb's block
// accounting closes after every engine is closed.
func TestReplayReconciles(t *testing.T) {
	out, err := runCampaign(context.Background(), runConfig{seed: 1, workers: 2, trace: true}, sliceSpec(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.problems) != 0 {
		t.Fatal(out.problems)
	}
	for _, m := range []string{"emu.insts", "campaign.mutants", "tb.execute_s", "emu.restore_s", "core.scan_s"} {
		if out.metrics[m].Value <= 0 {
			t.Errorf("traced run reports %s = %v, want > 0", m, out.metrics[m].Value)
		}
	}
	if len(out.spans) == 0 {
		t.Error("traced run recorded no spans")
	}
}

// Two seeds draw different inputs, and both pass every check.
func TestSeedsDifferAndPass(t *testing.T) {
	ctx := context.Background()
	a, err := coldSpec(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coldSpec(2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("campaign-cold: seeds 1 and 2 draw the same inputs")
	}
	mix := batchMix{"tiny": 1, "muldiv": 1}
	names := map[string]bool{}
	for _, seed := range []uint64{1, 2} {
		rc := runConfig{seed: seed, workers: 2, seconds: time.Millisecond}
		spec, err := coldSpec(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range spec.targets {
			spec.targets[i].stride *= 5 // a reduced slice
		}
		out, err := runCampaign(ctx, rc, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.problems) != 0 || out.failed != 0 || out.attempted == 0 {
			t.Errorf("campaign-cold seed %d: problems %v, %d of %d failed", seed, out.problems, out.failed, out.attempted)
		}

		mods, err := drawBatch(seed, mix)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mods {
			names[m.name] = true
		}
		out, err = protectBatch(ctx, rc, mix)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.problems) != 0 || out.failed != 0 || out.attempted == 0 {
			t.Errorf("protect-batch seed %d: problems %v, %d of %d failed", seed, out.problems, out.failed, out.attempted)
		}
	}
	// Two generated modules per seed, plus the six hand-written programs
	// every draw shares.
	if want := 2*2 + 6; len(names) != want {
		t.Errorf("protect-batch seeds 1 and 2 drew %d distinct modules, want %d", len(names), want)
	}
}
