package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parallax/internal/attack"
	"parallax/internal/chaos"
	"parallax/internal/obs"
)

// chaosPlan arms every campaign-reachable fault point with low
// per-decision probabilities and bounded budgets, so a seeded sweep
// hits several distinct points without drowning the matrix.
func chaosPlan(seed uint64) chaos.Plan {
	return chaos.Plan{Seed: seed, Faults: []chaos.Fault{
		{Point: chaos.PointCampaignMutant, Prob: 0.03},
		{Point: chaos.PointCampaignDeadline, Prob: 0.03},
		{Point: chaos.PointEmuRestoreDirty, Prob: 0.03},
		{Point: chaos.PointImageRead, Prob: 0.5},
		{Point: chaos.PointEmuBudget, Prob: 0.02, Count: 8},
	}}
}

// TestChaosCampaignGraceful is the tentpole acceptance gate: a seeded
// plan injecting into several distinct fault points over the wget
// campaign must degrade gracefully — the matrix completes, every
// faulted cell classifies as an infra error, and every cell the
// injection did not touch is identical to the fault-free run's.
func TestChaosCampaignGraceful(t *testing.T) {
	if testing.Short() {
		t.Skip("full wget campaign")
	}
	if raceEnabled {
		t.Skip("corpus chaos sweep skipped under -race (checkpoint tests cover the synthetic target)")
	}
	prot, stdin := protectedCorpus(t, "wget")
	cfg := Config{
		Workers: 4, Stride: 7, MaxMutants: 400,
		MaxInst: 6_000_000, Timeout: 60 * time.Second, Stdin: stdin,
	}.withDefaults()

	clean := attack.RunWith(context.Background(), prot.Image, attack.RunConfig{
		Stdin: cfg.Stdin, MaxInst: cfg.MaxInst,
	})
	if clean.Err != nil {
		t.Fatalf("clean run: %v", clean.Err)
	}
	mutants, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}

	base, panics, err := executeAll(context.Background(), prot, mutants, clean, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if panics != 0 {
		t.Fatalf("fault-free run: %d harness panics", panics)
	}

	reg := obs.NewRegistry()
	chaosCfg := cfg
	chaosCfg.Obs = reg
	chaosCfg.Chaos = chaos.New(chaosPlan(1234), reg)
	faulted, panics, err := executeAll(context.Background(), prot, mutants, clean, chaosCfg, nil, nil)
	if err != nil {
		t.Fatalf("faulted campaign did not complete: %v", err)
	}
	if panics != 0 {
		t.Fatalf("faulted run: %d harness panics leaked past injection accounting", panics)
	}

	infra := 0
	for i := range mutants {
		switch {
		case faulted[i] == ClassInfraError:
			infra++
		case faulted[i] != base[i]:
			t.Errorf("mutant %d (%v): fault-free %v, faulted %v — a non-faulted cell changed",
				i, mutants[i], base[i], faulted[i])
		}
	}
	if infra == 0 {
		t.Fatal("seeded plan injected nothing")
	}
	if reg.Counter("chaos.injected").Value() == 0 {
		t.Fatal("chaos.injected counter did not move")
	}
	points := 0
	for _, p := range chaos.Points() {
		if reg.Counter("chaos.injected."+string(p)).Value() > 0 {
			points++
		}
	}
	if points < 4 {
		t.Fatalf("only %d distinct fault points fired, want >= 4", points)
	}
	t.Logf("chaos campaign: %d/%d infra cells across %d fault points", infra, len(mutants), points)
}

// runCheckpointed runs a full checkpointed campaign over the synthetic
// target and returns its report.
func runCheckpointed(t *testing.T, ctx context.Context, cfg Config, path string) (*Report, error) {
	t.Helper()
	prot := protectedTarget(t)
	cfg.Checkpoint = path
	return Run(ctx, prot, cfg)
}

// TestCheckpointResumeByteIdentical: a campaign killed mid-flight and
// resumed from its journal must produce a matrix byte-identical to an
// uninterrupted run — including when the kill tore the final journal
// line mid-write.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	cfg := Config{Workers: 2, Stride: 6, MaxMutants: 300}
	dir := t.TempDir()

	full := filepath.Join(dir, "full.ckpt")
	rep, err := runCheckpointed(t, context.Background(), cfg, full)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.String()

	// Simulate a kill: keep the header and half the journal entries,
	// plus a torn final line (a write interrupted mid-byte).
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 8 {
		t.Fatalf("journal too small to split: %d lines", len(lines))
	}
	keep := 1 + (len(lines)-1)/2
	torn := strings.Join(lines[:keep], "") + lines[keep][:len(lines[keep])/2]
	killed := filepath.Join(dir, "killed.ckpt")
	if err := os.WriteFile(killed, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	rep2, err := runCheckpointed(t, context.Background(), cfg, killed)
	if err != nil {
		t.Fatalf("resume from torn journal: %v", err)
	}
	if rep2.Resumed != keep-1 {
		t.Errorf("Resumed = %d, want %d journaled cells", rep2.Resumed, keep-1)
	}
	if got := rep2.String(); got != want {
		t.Errorf("resumed matrix differs from uninterrupted run:\n--- want\n%s--- got\n%s", want, got)
	}

	// A resume of a complete journal executes nothing and still renders
	// the identical matrix.
	rep3, err := runCheckpointed(t, context.Background(), cfg, full)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Resumed != rep3.Mutants {
		t.Errorf("complete-journal resume executed %d cells", rep3.Mutants-rep3.Resumed)
	}
	if got := rep3.String(); got != want {
		t.Errorf("complete-journal resume matrix differs:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestCheckpointCancelAndResume exercises the genuine kill path: the
// campaign context is cancelled mid-run, outcomes observed after the
// cancellation are not journaled, and the resumed campaign reproduces
// the uninterrupted matrix exactly.
func TestCheckpointCancelAndResume(t *testing.T) {
	cfg := Config{Workers: 2, Stride: 6, MaxMutants: 300}
	dir := t.TempDir()

	full := filepath.Join(dir, "full.ckpt")
	rep, err := runCheckpointed(t, context.Background(), cfg, full)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.String()

	cancelled := filepath.Join(dir, "cancelled.ckpt")
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	_, err = runCheckpointed(t, ctx, cfg, cancelled)
	cancel()
	if err == nil {
		t.Skip("campaign finished before the cancellation landed")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled campaign: %v", err)
	}
	rep2, err := runCheckpointed(t, context.Background(), cfg, cancelled)
	if err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
	if got := rep2.String(); got != want {
		t.Errorf("post-cancel resume matrix differs:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestCheckpointMismatchRefused: a journal recorded under one campaign
// must be refused — with the typed error — by a campaign whose config
// or image differs, instead of replaying outcomes onto the wrong cells.
func TestCheckpointMismatchRefused(t *testing.T) {
	cfg := Config{Workers: 2, Stride: 6, MaxMutants: 300}
	path := filepath.Join(t.TempDir(), "ckpt")
	if _, err := runCheckpointed(t, context.Background(), cfg, path); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Stride = 7 // different enumeration
	_, err := runCheckpointed(t, context.Background(), other, path)
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("want ErrJournalMismatch, got %v", err)
	}

	// Mid-file garbage (not a torn tail) is corruption, also typed.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	lines[2] = "garbage line\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = runCheckpointed(t, context.Background(), cfg, path)
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("want ErrJournalCorrupt, got %v", err)
	}
}

// TestCheckpointPathEngine: the journal binds the execution path, not
// the spelling of its engine. On either path, a journal written with
// Engine "" resumes under the path's own engine name and vice versa,
// each to the recorded matrix; flipping Reload is refused.
func TestCheckpointPathEngine(t *testing.T) {
	for _, reload := range []bool{false, true} {
		cfg := Config{Workers: 2, Stride: 6, MaxMutants: 300, Reload: reload}
		named := cfg
		named.Engine = cfg.engine()
		for _, order := range [][2]Config{{cfg, named}, {named, cfg}} {
			path := filepath.Join(t.TempDir(), "ckpt")
			want, err := runCheckpointed(t, context.Background(), order[0], path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runCheckpointed(t, context.Background(), order[1], path)
			if err != nil {
				t.Fatalf("reload=%t: engine %q resuming a journal written with %q: %v",
					reload, order[1].Engine, order[0].Engine, err)
			}
			if got.Resumed != got.Mutants || got.String() != want.String() {
				t.Errorf("reload=%t: resume re-executed %d of %d cells or changed the matrix",
					reload, got.Mutants-got.Resumed, got.Mutants)
			}
		}
		flipped := cfg
		flipped.Reload = !reload
		path := filepath.Join(t.TempDir(), "ckpt")
		if _, err := runCheckpointed(t, context.Background(), cfg, path); err != nil {
			t.Fatal(err)
		}
		if _, err := runCheckpointed(t, context.Background(), flipped, path); !errors.Is(err, ErrJournalMismatch) {
			t.Errorf("reload=%t journal resumed with Reload flipped: want ErrJournalMismatch, got %v", reload, err)
		}
	}
}
