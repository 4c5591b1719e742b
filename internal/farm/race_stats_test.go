package farm

import (
	"context"
	"errors"
	"sync"
	"testing"

	"parallax/internal/chaos"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/obs"
)

// TestStatsSnapshotDuringJobs hammers Stats (and the obs registry
// snapshot) from several goroutines while the farm is actively
// protecting jobs. Run under -race this is the audit for the "Stats
// reads race with worker updates" concern: every metric is atomic, so
// the detector must stay quiet. It also checks snapshot monotonicity —
// lifecycle counters never move backwards between two snapshots taken
// by the same reader.
func TestStatsSnapshotDuringJobs(t *testing.T) {
	reg := obs.NewRegistry()
	f := New(Config{Workers: 4, Obs: reg})
	defer f.Close()

	prog := corpus.All()[0]
	opts := core.Options{VerifyFuncs: []string{prog.VerifyFunc}, Obs: reg}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last Stats
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := f.Stats()
				if s.JobsSubmitted < last.JobsSubmitted ||
					s.JobsCompleted < last.JobsCompleted ||
					s.JobsFailed < last.JobsFailed {
					t.Errorf("snapshot went backwards: %+v after %+v", s, last)
					return
				}
				last = s
				// The registry snapshot walks the same hot counters.
				_ = reg.Snapshot()
			}
		}()
	}

	const jobs = 12
	ctx := context.Background()
	futures := make([]*Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := f.Submit(ctx, prog.Name, prog.Build(), opts)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		futures = append(futures, j)
	}
	for _, j := range futures {
		if res, err := j.Wait(ctx); err != nil || res.Err != nil {
			t.Fatalf("job failed: wait=%v res=%v", err, res.Err)
		}
	}
	close(stop)
	readers.Wait()

	s := f.Stats()
	if s.JobsSubmitted != jobs || s.JobsCompleted != jobs {
		t.Errorf("final stats %d submitted / %d completed, want %d/%d",
			s.JobsSubmitted, s.JobsCompleted, jobs, jobs)
	}
	if s.ScanHits+s.ScanMisses == 0 {
		t.Error("no scan-cache lookups recorded")
	}
	if _, ok := reg.Snapshot().Stages["scan"]; !ok {
		t.Error("registry recorded no scan stage timing (Options.Obs not threaded)")
	}
}

// TestFarmReconciliation holds the farm's registry to the per-job
// results it handed out. At quiescence every submitted job is counted
// exactly once as completed, failed or cancelled; the scan counters
// equal the sums of the per-job tallies; and every job that reached the
// pipeline recorded exactly one runtime observation. The first run
// mixes cancelled-while-queued jobs with chaos cache-read recomputes,
// the second injects worker panics.
func TestFarmReconciliation(t *testing.T) {
	progs := []string{"gzip", "wget", "gzip", "nginx", "wget", "gzip"}
	run := func(t *testing.T, plan chaos.Plan, cancelQueued int) {
		reg := obs.NewRegistry()
		f := New(Config{Workers: 2, Obs: reg, Chaos: chaos.New(plan, reg)})
		ctx := context.Background()
		var jobs []*Job

		if cancelQueued > 0 {
			// Wedge both workers, queue jobs under a context, cancel it:
			// the queued jobs must be counted as cancelled and nothing
			// else.
			entered := make(chan struct{})
			release := make(chan struct{})
			p, _ := corpus.ByName("gzip")
			for i := 0; i < 2; i++ {
				j, err := f.Submit(ctx, "blocker", p.Build(), core.Options{
					VerifyFuncs: []string{p.VerifyFunc},
					ScanFunc:    blockingScan(entered, release),
				})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
				<-entered
			}
			qctx, cancel := context.WithCancel(ctx)
			for i := 0; i < cancelQueued; i++ {
				j, err := f.Submit(qctx, "queued", p.Build(), core.Options{VerifyFuncs: []string{p.VerifyFunc}})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			cancel()
			for _, j := range jobs[2:] {
				waitResult(t, j)
			}
			close(release)
		}
		for _, name := range progs {
			p, err := corpus.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			j, err := f.Submit(ctx, name, p.Build(), core.Options{VerifyFuncs: []string{p.VerifyFunc}})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}

		var want struct{ completed, failed, cancelled, panics, hits, misses uint64 }
		for _, j := range jobs {
			res := waitResult(t, j)
			want.hits += res.ScanHits
			want.misses += res.ScanMisses
			var pe *PanicError
			switch {
			case res.Err == nil:
				want.completed++
			case errors.Is(res.Err, context.Canceled):
				want.cancelled++
			case errors.As(res.Err, &pe):
				want.panics++
				want.failed++
			default:
				t.Errorf("job %s: unexpected error %v", res.Name, res.Err)
				want.failed++
			}
		}
		f.Close()

		rep := reg.Snapshot()
		c := rep.Counters
		if sub, sum := c["farm.jobs_submitted"], c["farm.jobs_completed"]+c["farm.jobs_failed"]+c["farm.jobs_cancelled"]; sub != sum || sub != uint64(len(jobs)) {
			t.Errorf("farm.jobs_submitted = %d, completed+failed+cancelled = %d, jobs = %d", sub, sum, len(jobs))
		}
		for _, m := range []struct {
			name      string
			got, want uint64
		}{
			{"farm.jobs_completed", c["farm.jobs_completed"], want.completed},
			{"farm.jobs_failed", c["farm.jobs_failed"], want.failed},
			{"farm.jobs_cancelled", c["farm.jobs_cancelled"], want.cancelled},
			{"farm.panics", c["farm.panics"], want.panics},
			{"farm.scan_cache_hits", c["farm.scan_cache_hits"], want.hits},
			{"farm.scan_cache_misses", c["farm.scan_cache_misses"], want.misses},
			{"farm.job_runtime_ns count", rep.Histograms["farm.job_runtime_ns"].Count, want.completed + want.failed},
		} {
			if m.got != m.want {
				t.Errorf("%s = %d, per-job results say %d", m.name, m.got, m.want)
			}
		}
		if d := rep.Gauges["farm.queue_depth"]; d != 0 {
			t.Errorf("farm.queue_depth = %d at quiescence", d)
		}
		if c["chaos.injected"] == 0 {
			t.Error("the chaos plan injected nothing")
		}
		if want.cancelled != uint64(cancelQueued) {
			t.Errorf("%d jobs cancelled, want %d", want.cancelled, cancelQueued)
		}
		if s := f.Stats(); (s.ScanTime > 0) != (s.ScanMisses > 0) {
			t.Errorf("scan time %v with %d misses", s.ScanTime, s.ScanMisses)
		}
	}

	t.Run("cache-read-recompute", func(t *testing.T) {
		run(t, chaos.Plan{Seed: 5, Faults: []chaos.Fault{
			{Point: chaos.PointFarmCacheRead, Prob: 0.5}}}, 3)
	})
	t.Run("worker-panic", func(t *testing.T) {
		run(t, chaos.Plan{Seed: 6, Faults: []chaos.Fault{
			{Point: chaos.PointFarmWorkerPanic, Prob: 1, Count: 2}}}, 0)
	})
}
