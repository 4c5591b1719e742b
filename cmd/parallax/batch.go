package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/dyngen"
	"parallax/internal/farm"
	"parallax/internal/obs"
)

// cmdBatch protects a whole corpus × chain-mode matrix concurrently
// through the internal/farm worker pool and prints a per-job
// status/timing table plus the farm's cache and throughput counters.
func cmdBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	progs := fs.String("progs", "all", "comma-separated corpus programs, gen:<family>:<seed> entries, or 'all'")
	modes := fs.String("modes", "static,xor,rc4,prob", "comma-separated chain modes")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	rounds := fs.Int("rounds", 1, "times to protect the whole matrix (round 2+ hits the warm cache)")
	timeout := fs.Duration("timeout", 10*time.Minute, "abort the batch after this long (0 = none)")
	outDir := fs.String("o", "", "directory to save protected images into (optional)")
	metrics := metricsFlags(fs, "collect farm/pipeline metrics and print them after the batch", metricsJSON)
	fs.Parse(args)

	var programs []corpus.Program
	if *progs == "all" {
		programs = corpus.All()
	} else {
		for _, name := range strings.Split(*progs, ",") {
			p, err := resolveProgram(strings.TrimSpace(name))
			if err != nil {
				return fmt.Errorf("%w: %w", errUsage, err)
			}
			programs = append(programs, p)
		}
	}
	var chainModes []dyngen.Mode
	for _, s := range strings.Split(*modes, ",") {
		m, err := parseMode(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("%w: %w", errUsage, err)
		}
		chainModes = append(chainModes, m)
	}
	if *rounds < 1 {
		return fmt.Errorf("%w: -rounds must be >= 1", errUsage)
	}
	withMetrics, metricsFmt, err := metrics()
	if err != nil {
		return err
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o777); err != nil {
			return fmt.Errorf("creating output directory: %w", err)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var reg *obs.Registry
	if withMetrics {
		reg = obs.NewRegistry()
	}

	f := farm.New(farm.Config{Workers: *workers, Obs: reg})
	defer f.Close()

	failed := 0
	var prev farm.Stats
	for round := 1; round <= *rounds; round++ {
		if *rounds > 1 {
			fmt.Printf("--- round %d/%d ---\n", round, *rounds)
		}
		jobs := make([]*farm.Job, 0, len(programs)*len(chainModes))
		for _, p := range programs {
			for _, m := range chainModes {
				name := fmt.Sprintf("%s/%s", p.Name, m)
				j, err := f.Submit(ctx, name, p.Build(), core.Options{
					VerifyFuncs: []string{p.VerifyFunc},
					ChainMode:   m,
					Obs:         reg,
				})
				if err != nil {
					return fmt.Errorf("submitting %s: %w", name, err)
				}
				jobs = append(jobs, j)
			}
		}
		fmt.Printf("%-14s %-8s %10s %10s %6s %6s  %s\n",
			"job", "status", "queue", "run", "scans", "hits", "detail")
		for _, j := range jobs {
			res, err := j.Wait(ctx)
			if err != nil {
				return err
			}
			status, detail := "ok", ""
			if res.Err != nil {
				status, detail = "FAILED", res.Err.Error()
				failed++
			} else if round == 1 && *outDir != "" {
				path := filepath.Join(*outDir, strings.ReplaceAll(res.Name, "/", "-")+".plx")
				if err := res.Protected.Image.Save(path); err != nil {
					return fmt.Errorf("saving %s: %w", path, err)
				}
				detail = "-> " + path
			}
			fmt.Printf("%-14s %-8s %10s %10s %6d %6d  %s\n",
				res.Name, status,
				res.QueueWait.Round(time.Microsecond),
				res.Runtime.Round(time.Microsecond),
				res.ScanHits+res.ScanMisses, res.ScanHits, detail)
		}
		st := f.Stats()
		fmt.Printf("round %d stats: %s\n\n", round, st.Delta(prev))
		prev = st
	}
	fmt.Printf("total: %s\n", f.Stats())
	if reg != nil {
		if err := writeMetrics(reg, metricsFmt); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, int(prev.JobsSubmitted))
	}
	return nil
}
