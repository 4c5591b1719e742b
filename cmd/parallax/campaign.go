package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parallax/internal/campaign"
	"parallax/internal/chaos"
	"parallax/internal/core"
	"parallax/internal/farm"
	"parallax/internal/obs"
)

// cmdCampaign protects a corpus program and sweeps a tamper campaign
// over the protected image, printing the detection-coverage matrix.
func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	prog := fs.String("prog", "", "corpus program name, or gen:<family>:<seed>")
	workload := fs.String("workload", "idle", "stdin profile driven during the campaign (generated programs add 'heavy', which exercises cold code)")
	verify := fs.String("verify", "", "verification function (default: program's candidate)")
	mode := fs.String("mode", "static", "chain mode: static|xor|rc4|prob")
	stride := fs.Int("stride", 3, "byte step between mutation sites")
	maxMutants := fs.Int("max-mutants", 2048, "campaign size cap (deterministic downsample)")
	workers := fs.Int("workers", 0, "concurrent executors (0 = GOMAXPROCS)")
	maxInst := fs.Uint64("max", 20_000_000, "per-mutant instruction budget")
	timeout := fs.Duration("timeout", 5*time.Second, "per-mutant wall-clock watchdog")
	kindsFlag := fs.String("kinds", "", "mutation kinds, comma-separated: bitflip,byteset,nopsweep,serial (default all)")
	reuseVM := fs.Bool("reuse-vm", true, "production path: tb, one snapshot/restore emulator per worker, fork points, shared catalog (false = reference path: interpreter, clone+reload per mutant)")
	metrics := fs.Bool("metrics", false, "collect pipeline/emulator/farm metrics and print them after the matrix")
	metricsFormat := fs.String("metrics-format", "json", "metrics output format: json|table")
	checkpoint := fs.String("checkpoint", "", "append-only resume journal: a killed campaign re-run with the same flags and journal resumes where it stopped")
	chaosSpec := fs.String("chaos", "", "fault-injection plan, comma-separated point:prob[:count[:delay]] entries (e.g. campaign.mutant:0.05,emu.budget:0.01:4)")
	chaosSeed := fs.Uint64("chaos-seed", 1, "seed for the deterministic fault-injection plan")
	fs.Parse(args)

	p, err := resolveProgram(*prog)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	stdin, err := resolveWorkload(p, *workload)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	chainMode, err := parseMode(*mode)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	kinds, err := parseKinds(*kindsFlag)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	if *metricsFormat != "json" && *metricsFormat != "table" {
		return usagef("bad -metrics-format %q (want json|table)", *metricsFormat)
	}

	// With -metrics the protection runs through a one-shot farm so the
	// report carries the scan-cache view alongside the pipeline stage
	// spans and the per-mutant emulator counters. Without it, reg stays
	// nil and every recording site below is a disabled nil check.
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}

	var inj *chaos.Injector
	if *chaosSpec != "" {
		plan, err := chaos.ParsePlan(*chaosSpec, *chaosSeed)
		if err != nil {
			return fmt.Errorf("%w: %w", errUsage, err)
		}
		inj = chaos.New(plan, reg)
	}

	m := p.Build()
	// Protection always profiles under the idle workload: campaigns with
	// different -workload values must sweep the byte-identical image, or
	// their matrices would not be comparable.
	opts := core.Options{ChainMode: chainMode, Workload: p.Stdin, Obs: reg}
	if *verify != "" {
		if m.Func(*verify) == nil {
			return usagef("no function %q in %s", *verify, p.Name)
		}
		opts.VerifyFuncs = []string{*verify}
	} else {
		opts.VerifyFuncs = []string{p.VerifyFunc}
	}
	var prot *core.Protected
	if reg != nil {
		f := farm.New(farm.Config{Workers: 1, Obs: reg})
		prot, err = f.Protect(context.Background(), p.Name, m, opts)
		f.Close()
	} else {
		prot, err = core.Protect(m, opts)
	}
	if err != nil {
		return fmt.Errorf("protecting %s: %w", p.Name, err)
	}

	rep, err := campaign.Run(context.Background(), prot, campaign.Config{
		Workers:    *workers,
		MaxInst:    *maxInst,
		Timeout:    *timeout,
		Stride:     *stride,
		MaxMutants: *maxMutants,
		Kinds:      kinds,
		Stdin:      stdin,
		Obs:        reg,
		Reload:     !*reuseVM,
		Chaos:      inj,
		Checkpoint: *checkpoint,
	})
	if err != nil {
		return fmt.Errorf("campaign over %s: %w", p.Name, err)
	}
	fmt.Printf("tamper campaign: %s (%s chains, stride %d)\n%s",
		p.Name, *mode, *stride, rep)
	if reg != nil {
		if err := writeMetrics(reg, *metricsFormat); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return nil
}

// writeMetrics snapshots the registry, attaches the derived cache
// hit-rates, and prints it to stdout in the requested format.
func writeMetrics(reg *obs.Registry, format string) error {
	rep := reg.Snapshot()
	if hits, misses := rep.Counters["farm.scan_cache_hits"], rep.Counters["farm.scan_cache_misses"]; hits+misses > 0 {
		rep.Derive("farm.scan_cache.hit_rate", float64(hits)/float64(hits+misses))
	}
	if hits, misses := rep.Counters["farm.hint_cache_hits"], rep.Counters["farm.hint_cache_misses"]; hits+misses > 0 {
		rep.Derive("farm.hint_cache.hit_rate", float64(hits)/float64(hits+misses))
	}
	if format == "table" {
		fmt.Print(rep)
		return nil
	}
	return rep.WriteJSON(os.Stdout)
}

// parseKinds maps a comma list onto mutation kinds; empty means all.
func parseKinds(s string) ([]campaign.Kind, error) {
	if s == "" {
		return nil, nil
	}
	var out []campaign.Kind
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "bitflip":
			out = append(out, campaign.KindBitFlip)
		case "byteset":
			out = append(out, campaign.KindByteSet)
		case "nopsweep":
			out = append(out, campaign.KindNopSweep)
		case "serial":
			out = append(out, campaign.KindSerial)
		default:
			return nil, fmt.Errorf("unknown mutation kind %q (want bitflip|byteset|nopsweep|serial)", name)
		}
	}
	return out, nil
}
