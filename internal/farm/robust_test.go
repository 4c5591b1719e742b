package farm

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/ir"
)

// waitResult waits for a job with a test timeout.
func waitResult(t *testing.T, j *Job) Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job %q did not finish: %v", j.Name, err)
	}
	return res
}

// stubProtect is a protect seam that succeeds without compiling.
func stubProtect(*Job) (*core.Protected, error) { return &core.Protected{}, nil }

// seamFarm builds a single-worker farm that runs protect in place of
// the pipeline. The seam is installed before any job can reach the
// worker.
func seamFarm(cfg Config, protect func(*Job) (*core.Protected, error)) *Farm {
	cfg.Workers = 1
	f := New(cfg)
	f.protectFn = protect
	return f
}

// seamModule returns a valid module for seam tests; the protect seam
// never actually compiles it.
func seamModule(t *testing.T) *ir.Module {
	t.Helper()
	p, err := corpus.ByName("wget")
	if err != nil {
		t.Fatal(err)
	}
	return p.Build()
}

// TestJobDeadlineExpires: a deadline set on the context passed to
// Submit runs from submission, so a job starved in the queue past it
// fails with DeadlineExceeded without ever reaching the pipeline.
func TestJobDeadlineExpires(t *testing.T) {
	// Drive it with a real (but tiny) timeout and a protect seam the job
	// never reaches because the worker pool is saturated by a slow job.
	block := make(chan struct{})
	var ran atomic.Int32
	f := seamFarm(Config{}, func(j *Job) (*core.Protected, error) {
		if j.Name == "blocker" {
			<-block
		} else {
			ran.Add(1)
		}
		return &core.Protected{}, nil
	})
	defer f.Close()

	blocker, err := f.Submit(context.Background(), "blocker", seamModule(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	starved, err := f.Submit(ctx, "starved", seamModule(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, starved)
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", res.Err)
	}
	close(block)
	if res := waitResult(t, blocker); res.Err != nil {
		t.Fatalf("blocker failed: %v", res.Err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("expired-in-queue job reached the pipeline %d times", n)
	}
}

// TestFarmInvalidJobs: bad options fail the job with a wrapped error
// and leave the worker alive for the next job.
func TestFarmInvalidJobs(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Workers: 1})
	defer f.Close()
	ctx := context.Background()

	// Unknown verification function.
	j1, err := f.Submit(ctx, "bad-verify", p.Build(),
		core.Options{VerifyFuncs: []string{"no_such_func"}})
	if err != nil {
		t.Fatal(err)
	}
	if res := waitResult(t, j1); res.Err == nil {
		t.Error("unknown verify function: job succeeded, want error")
	} else if !strings.Contains(res.Err.Error(), "bad-verify") {
		t.Errorf("job error not wrapped with job name: %v", res.Err)
	}

	// Zero-length module (no functions at all).
	j2, err := f.Submit(ctx, "empty-module", &ir.Module{Name: "empty"},
		core.Options{VerifyFuncs: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if res := waitResult(t, j2); res.Err == nil {
		t.Error("empty module: job succeeded, want error")
	}

	// Nil module is rejected at submission.
	if _, err := f.Submit(ctx, "nil-module", nil, core.Options{}); err == nil {
		t.Error("nil module accepted")
	}

	// The worker survived all of the above.
	prot, err := f.Protect(ctx, "good", p.Build(),
		core.Options{VerifyFuncs: []string{p.VerifyFunc}})
	if err != nil || prot == nil {
		t.Fatalf("valid job after failures: %v", err)
	}
	st := f.Stats()
	if st.JobsFailed != 2 || st.JobsCompleted != 1 {
		t.Errorf("stats after mixed jobs: %v", st)
	}
}

// blockingScan returns a ScanFunc that signals entry and then blocks
// until release is closed — a deterministic way to occupy a worker.
func blockingScan(entered chan<- struct{}, release <-chan struct{}) func(img, prevImg *image.Image, prev *gadget.Catalog) *gadget.Catalog {
	var once bool
	return func(img, prevImg *image.Image, prev *gadget.Catalog) *gadget.Catalog {
		if !once {
			once = true
			entered <- struct{}{}
			<-release
		}
		return gadget.Rescan(img, prevImg, prev)
	}
}

// TestFarmCancelQueued: cancelling a context fails that context's
// queued jobs promptly, while an unrelated running job is unaffected.
func TestFarmCancelQueued(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Workers: 1})
	defer f.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	blocker, err := f.Submit(context.Background(), "blocker", p.Build(), core.Options{
		VerifyFuncs: []string{p.VerifyFunc},
		ScanFunc:    blockingScan(entered, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the only worker is now wedged inside the blocker job

	// Fill the queue: two places per worker.
	ctx, cancel := context.WithCancel(context.Background())
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := f.Submit(ctx, "queued", p.Build(),
			core.Options{VerifyFuncs: []string{p.VerifyFunc}})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	cancel()

	// The queued jobs must fail promptly — the worker is still wedged,
	// so completion can only come from the cancellation path.
	for _, j := range queued {
		res := waitResult(t, j)
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("queued job error = %v, want context.Canceled", res.Err)
		}
	}
	if st := f.Stats(); st.JobsCancelled != 2 {
		t.Errorf("cancelled count = %d, want 2", st.JobsCancelled)
	}

	close(release)
	if res := waitResult(t, blocker); res.Err != nil {
		t.Errorf("blocker job failed: %v", res.Err)
	}
}

// TestFarmPanicIsolation: a panic inside a pipeline stage becomes a
// job error carrying *PanicError; the worker and farm survive.
func TestFarmPanicIsolation(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Workers: 1})
	defer f.Close()
	ctx := context.Background()

	j, err := f.Submit(ctx, "panicky", p.Build(), core.Options{
		VerifyFuncs: []string{p.VerifyFunc},
		ScanFunc: func(_, _ *image.Image, _ *gadget.Catalog) *gadget.Catalog {
			panic("injected stage failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, j)
	var pe *PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("job error = %v, want *PanicError", res.Err)
	}
	if pe.Value != "injected stage failure" || len(pe.Stack) == 0 {
		t.Errorf("panic error payload: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}

	// Worker survived: the next job on the same (only) worker runs.
	if _, err := f.Protect(ctx, "after-panic", p.Build(),
		core.Options{VerifyFuncs: []string{p.VerifyFunc}}); err != nil {
		t.Fatalf("job after panic: %v", err)
	}
	st := f.Stats()
	if st.Panics != 1 || st.JobsFailed != 1 || st.JobsCompleted != 1 {
		t.Errorf("stats after panic: %v", st)
	}
}

// TestFarmCloseAndBackpressure: Submit after Close fails with
// ErrClosed; a full queue plus a dead context fails Submit instead of
// blocking forever.
func TestFarmCloseAndBackpressure(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{VerifyFuncs: []string{p.VerifyFunc}}

	f := New(Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	blocker, err := f.Submit(context.Background(), "blocker", p.Build(), core.Options{
		VerifyFuncs: []string{p.VerifyFunc},
		ScanFunc:    blockingScan(entered, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	// Fill the queue (two places per worker), then overflow with a
	// cancelled ctx.
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := f.Submit(context.Background(), "queued", p.Build(), opts)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Submit(dead, "overflow", p.Build(), opts); !errors.Is(err, context.Canceled) {
		t.Errorf("overflow submit error = %v, want context.Canceled", err)
	}
	close(release)
	waitResult(t, blocker)
	for _, j := range queued {
		waitResult(t, j)
	}
	f.Close()

	if _, err := f.Submit(context.Background(), "late", p.Build(), opts); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close error = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	f.Close()
}
