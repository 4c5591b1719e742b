package experiment

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"parallax/internal/core"
	"parallax/internal/corpus/gen"
	"parallax/internal/farm"
)

// This file is the farm fan-out stress: hundreds of protect jobs — a
// bounded set of unique generated modules, each submitted many times —
// pushed through farms of increasing worker counts. It measures what
// the protection farm is for: throughput scaling with workers and the
// content-addressed scan cache converting duplicate submissions into
// hits. Each round uses a fresh farm (and fresh cache), so the hit
// counts are a property of the job mix, not of test ordering; the
// outputs of every job are fingerprinted and must be identical for
// identical inputs across all rounds and worker counts.

// FanoutOptions tunes the stress.
type FanoutOptions struct {
	// Jobs is the number of protect jobs per round (0 = 256).
	Jobs int
	// Unique is the number of distinct generated modules; jobs cycle
	// through them, so Jobs-Unique submissions are cache fodder
	// (0 = 32).
	Unique int
	// Workers are the per-round worker counts (nil = 1, 2, 4, 8).
	Workers []int
	// Progress, when non-nil, is called after each round.
	Progress func(round, rounds, workers int)
}

func (o FanoutOptions) withDefaults() FanoutOptions {
	if o.Jobs == 0 {
		o.Jobs = 256
	}
	if o.Unique == 0 {
		o.Unique = 32
	}
	if o.Unique > o.Jobs {
		o.Unique = o.Jobs
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4, 8}
	}
	return o
}

// fanoutFamily is the generator family the stress draws modules from:
// protect cost small enough that the farm machinery, not the pipeline,
// dominates.
const fanoutFamily = "tiny"

// FanoutRound is one worker-count round's record.
type FanoutRound struct {
	Workers   int `json:"workers"`
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	ScanHits    uint64  `json:"scan_hits"`
	ScanMisses  uint64  `json:"scan_misses"`
	ScanHitRate float64 `json:"scan_hit_rate"`

	// Seconds is host wall clock (context, not a determinism claim);
	// JobsPerSecond is derived from it.
	Seconds       float64 `json:"seconds"`
	JobsPerSecond float64 `json:"jobs_per_second"`

	// OutputFP fingerprints the round's protected images (sorted
	// per-unique-module digests); every round must agree.
	OutputFP string `json:"output_fp"`
}

// FanoutReport is the full stress result.
type FanoutReport struct {
	Family string `json:"family"`
	Jobs   int    `json:"jobs"`
	Unique int    `json:"unique"`

	Rounds []FanoutRound `json:"rounds"`

	// Deterministic reports that every round produced byte-identical
	// protected images for identical inputs.
	Deterministic bool `json:"deterministic"`
	// MinScanHitRate is the worst round's scan-cache hit rate.
	MinScanHitRate float64 `json:"min_scan_hit_rate"`
}

// imageDigest hashes a protected image's loadable contents.
func imageDigest(p *core.Protected) (string, error) {
	h := fnv.New64a()
	if _, err := p.Image.WriteTo(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// FarmFanout runs the fan-out stress.
func FarmFanout(ctx context.Context, opts FanoutOptions) (*FanoutReport, error) {
	opts = opts.withDefaults()
	fam, err := gen.FamilyByName(fanoutFamily)
	if err != nil {
		return nil, fmt.Errorf("fanout: %w", err)
	}
	// One program description per unique slot; modules are rebuilt per
	// job (Protect mutates its module, and builders are cheap and
	// pure), so cache hits come from content addressing, not pointer
	// identity.
	progs := make([]struct {
		name   string
		verify string
		seed   uint64
	}, opts.Unique)
	for i := range progs {
		prog, err := gen.FamilyProgram(fam, uint64(i+1))
		if err != nil {
			return nil, fmt.Errorf("fanout: seed %d: %w", i+1, err)
		}
		progs[i] = struct {
			name   string
			verify string
			seed   uint64
		}{prog.Name, prog.VerifyFunc, uint64(i + 1)}
	}

	out := &FanoutReport{
		Family: fanoutFamily, Jobs: opts.Jobs, Unique: opts.Unique,
		Deterministic:  true,
		MinScanHitRate: 1,
	}
	var wantDigests []string

	for ri, workers := range opts.Workers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f := farm.New(farm.Config{Workers: workers})
		jobs := make([]*farm.Job, opts.Jobs)
		start := time.Now()
		for j := 0; j < opts.Jobs; j++ {
			p := progs[j%opts.Unique]
			prog, err := gen.FamilyProgram(fam, p.seed)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("fanout: rebuild seed %d: %w", p.seed, err)
			}
			job, err := f.Submit(ctx, fmt.Sprintf("%s#%d", p.name, j), prog.Build(),
				core.Options{VerifyFuncs: []string{p.verify}})
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("fanout: submit %s job %d: %w", p.name, j, err)
			}
			jobs[j] = job
		}

		round := FanoutRound{Workers: workers, Jobs: opts.Jobs}
		digests := make(map[uint64]string, opts.Unique) // unique slot → digest
		for j, job := range jobs {
			res, err := job.Wait(ctx)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("fanout: wait job %d: %w", j, err)
			}
			if res.Err != nil {
				round.Failed++
				continue
			}
			round.Completed++
			d, err := imageDigest(res.Protected)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("fanout: digest job %d: %w", j, err)
			}
			slot := uint64(j % opts.Unique)
			if prev, ok := digests[slot]; ok && prev != d {
				out.Deterministic = false
			}
			digests[slot] = d
		}
		round.Seconds = time.Since(start).Seconds()
		if round.Seconds > 0 {
			round.JobsPerSecond = float64(round.Completed) / round.Seconds
		}

		stats := f.Stats()
		f.Close()
		round.ScanHits = stats.ScanHits
		round.ScanMisses = stats.ScanMisses
		round.ScanHitRate = stats.ScanHitRate()
		if round.ScanHitRate < out.MinScanHitRate {
			out.MinScanHitRate = round.ScanHitRate
		}

		// Round fingerprint: the sorted per-slot digests, hashed.
		keys := make([]string, 0, len(digests))
		for slot, d := range digests {
			keys = append(keys, fmt.Sprintf("%d:%s", slot, d))
		}
		sort.Strings(keys)
		h := fnv.New64a()
		for _, k := range keys {
			h.Write([]byte(k))
		}
		round.OutputFP = fmt.Sprintf("%016x", h.Sum64())
		if len(wantDigests) == 0 {
			wantDigests = keys
		} else if fmt.Sprint(keys) != fmt.Sprint(wantDigests) {
			out.Deterministic = false
		}

		out.Rounds = append(out.Rounds, round)
		if opts.Progress != nil {
			opts.Progress(ri+1, len(opts.Workers), workers)
		}
	}
	return out, nil
}
