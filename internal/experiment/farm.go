package experiment

import (
	"context"
	"fmt"
	"time"

	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/dyngen"
	"parallax/internal/farm"
	"parallax/internal/ir"
)

// FarmJob is one cell of the batch-protection matrix: a corpus program
// protected under one chain mode. Build is a thunk so every submission
// constructs a fresh IR module (builders are cheap and pure).
type FarmJob struct {
	Name  string
	Build func() *ir.Module
	Opts  core.Options
}

// FarmMatrix returns the corpus × chain-mode job matrix used by the
// batch front-ends: 6 programs × the given hardening strategies (all
// four when modes is empty).
func FarmMatrix(modes []dyngen.Mode) []FarmJob {
	if len(modes) == 0 {
		modes = Fig5Modes()
	}
	var jobs []FarmJob
	for _, p := range corpus.All() {
		for _, m := range modes {
			jobs = append(jobs, FarmJob{
				Name:  fmt.Sprintf("%s/%s", p.Name, m),
				Build: p.Build,
				Opts: core.Options{
					VerifyFuncs: []string{p.VerifyFunc},
					ChainMode:   m,
				},
			})
		}
	}
	return jobs
}

// FarmThroughputRow is one worker-count measurement of the farm
// experiment: the full matrix protected twice on one farm — a cold
// round (empty cache) and a warm round (memoized scans).
type FarmThroughputRow struct {
	Workers int
	Jobs    int

	ColdSeconds float64
	WarmSeconds float64
	// Jobs per wall-clock second in each round.
	ColdJobsPerSec float64
	WarmJobsPerSec float64
	// WarmSpeedup is the warm-over-cold wall-clock ratio — the cache's
	// contribution at a fixed worker count.
	WarmSpeedup float64

	// Warm-round cache behaviour.
	WarmHitRate  float64 // scan-cache hit fraction in [0,1]
	WarmScansRun uint64  // scans actually executed in the warm round
	ColdScansRun uint64
	ColdScanTime time.Duration
	WarmScanTime time.Duration
}

// FarmThroughput runs the batch matrix through farms with the given
// worker counts, measuring cold and warm throughput and cache
// behaviour. Unlike the figure experiments this measures wall-clock
// time of the protection pipeline itself, so the numbers vary by host;
// the invariants (warm round runs zero scans, output determinism) are
// enforced by tests, not here.
func FarmThroughput(workerCounts []int, modes []dyngen.Mode) ([]FarmThroughputRow, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	jobs := FarmMatrix(modes)
	var rows []FarmThroughputRow
	for _, w := range workerCounts {
		f := farm.New(farm.Config{Workers: w})
		cold, coldDur, err := farmRound(f, jobs)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("farm experiment (workers=%d, cold): %w", w, err)
		}
		warmEnd, warmDur, err := farmRound(f, jobs)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("farm experiment (workers=%d, warm): %w", w, err)
		}
		f.Close()
		warm := warmEnd.Delta(cold)

		row := FarmThroughputRow{
			Workers:        w,
			Jobs:           len(jobs),
			ColdSeconds:    coldDur.Seconds(),
			WarmSeconds:    warmDur.Seconds(),
			ColdJobsPerSec: float64(len(jobs)) / coldDur.Seconds(),
			WarmJobsPerSec: float64(len(jobs)) / warmDur.Seconds(),
			WarmHitRate:    warm.ScanHitRate(),
			WarmScansRun:   warm.ScanMisses,
			ColdScansRun:   cold.ScanMisses,
			ColdScanTime:   cold.ScanTime,
			WarmScanTime:   warm.ScanTime,
		}
		if warmDur > 0 {
			row.WarmSpeedup = coldDur.Seconds() / warmDur.Seconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// farmRound submits every job of the matrix and waits for all of them,
// returning the farm's cumulative stats and the round's wall time.
func farmRound(f *farm.Farm, jobs []FarmJob) (farm.Stats, time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	futures := make([]*farm.Job, len(jobs))
	for i, jb := range jobs {
		j, err := f.Submit(ctx, jb.Name, jb.Build(), jb.Opts)
		if err != nil {
			return farm.Stats{}, 0, err
		}
		futures[i] = j
	}
	for i, j := range futures {
		res, err := j.Wait(ctx)
		if err != nil {
			return farm.Stats{}, 0, err
		}
		if res.Err != nil {
			return farm.Stats{}, 0, fmt.Errorf("job %s: %w", jobs[i].Name, res.Err)
		}
	}
	return f.Stats(), time.Since(start), nil
}
