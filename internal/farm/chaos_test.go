package farm

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"parallax/internal/chaos"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/ir"
)

// chaosFixture returns a real protectable module and valid options for
// the chaos tests that exercise the full pipeline (not the seams).
func chaosFixture(t *testing.T) (*ir.Module, core.Options) {
	t.Helper()
	p, err := corpus.ByName("wget")
	if err != nil {
		t.Fatal(err)
	}
	return p.Build(), core.Options{VerifyFuncs: []string{p.VerifyFunc}}
}

// TestChaosWorkerPanicConfined: an injected pipeline-stage panic must
// be confined to its job — reported as a *PanicError carrying the
// chaos marker — while the worker survives to run the next job.
func TestChaosWorkerPanicConfined(t *testing.T) {
	f := New(Config{
		Workers: 1,
		Chaos: chaos.New(chaos.Plan{Seed: 1, Faults: []chaos.Fault{
			{Point: chaos.PointFarmWorkerPanic, Prob: 1, Count: 1}}}, nil),
	})
	defer f.Close()

	m, opts := chaosFixture(t)
	j1, err := f.Submit(context.Background(), "victim", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if !errors.As(res1.Err, &pe) {
		t.Fatalf("want PanicError, got %v", res1.Err)
	}
	if !chaos.IsInjected(res1.Err) {
		t.Fatalf("injected panic not marked injected: %v", res1.Err)
	}

	// Count budget exhausted: the worker survived and the next job runs
	// clean on the same goroutine.
	j2, err := f.Submit(context.Background(), "survivor", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Err != nil {
		t.Fatalf("job after confined panic failed: %v", res2.Err)
	}
	if s := f.Stats(); s.Panics != 1 {
		t.Errorf("Stats().Panics = %d, want 1", s.Panics)
	}
}

// TestChaosCacheReadRecompute: a corrupted stage-cache read must be
// bypassed — the scan recomputes from the image bytes, the lookup
// counts as a miss, and the job's output stays byte-identical to the
// uncorrupted run (gadget.Scan is pure).
func TestChaosCacheReadRecompute(t *testing.T) {
	m, opts := chaosFixture(t)

	clean := New(Config{Workers: 1})
	ref, err := clean.Protect(context.Background(), "ref", m, opts)
	clean.Close()
	if err != nil {
		t.Fatal(err)
	}

	f := New(Config{
		Workers: 1,
		Chaos: chaos.New(chaos.Plan{Seed: 2, Faults: []chaos.Fault{
			{Point: chaos.PointFarmCacheRead, Prob: 1}}}, nil),
	})
	defer f.Close()
	// First job populates the cache; the second would hit it, but every
	// hit is corrupted, so it must rescan.
	if _, err := f.Protect(context.Background(), "warm", m, opts); err != nil {
		t.Fatal(err)
	}
	j, err := f.Submit(context.Background(), "corrupted", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("corrupted-cache job failed: %v", res.Err)
	}
	if res.ScanHits != 0 {
		t.Errorf("corrupted reads served as hits: %d", res.ScanHits)
	}
	if res.ScanMisses == 0 {
		t.Error("corrupted reads recorded no misses")
	}
	if !bytes.Equal(imageBytes(t, ref.Image), imageBytes(t, res.Protected.Image)) {
		t.Error("recomputed-after-corruption output differs from clean run")
	}
}

// TestChaosQueueStall: an injected submission stall delays the enqueue
// by the plan's duration but never loses the job.
func TestChaosQueueStall(t *testing.T) {
	f := seamFarm(Config{
		Chaos: chaos.New(chaos.Plan{Seed: 3, Faults: []chaos.Fault{
			{Point: chaos.PointFarmQueueStall, Prob: 1, Delay: 2 * time.Millisecond}}}, nil),
	}, stubProtect)
	defer f.Close()
	var stalls []time.Duration
	f.sleep = func(ctx context.Context, d time.Duration) error {
		stalls = append(stalls, d)
		return ctx.Err()
	}

	j, err := f.Submit(context.Background(), "stalled", seamModule(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := j.Wait(context.Background()); res.Err != nil {
		t.Fatalf("stalled job failed: %v", res.Err)
	}
	// The sleep seam recorded the stall instead of sleeping.
	if len(stalls) != 1 || stalls[0] != 2*time.Millisecond {
		t.Errorf("stalls = %v, want [2ms]", stalls)
	}
}
