package experiment

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"parallax/internal/campaign"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/obs"
)

// CampaignResult is one corpus program's tamper-campaign outcome.
type CampaignResult struct {
	Program string
	Report  *campaign.Report
}

// Campaign protects each named corpus program and sweeps the tamper
// campaign over it, returning the per-program detection matrices. An
// empty program list means wget (the paper's running example). The
// supplied config is used as-is except Stdin, which is taken from each
// program's workload.
func Campaign(ctx context.Context, progs []string, cfg campaign.Config) ([]CampaignResult, error) {
	if len(progs) == 0 {
		progs = []string{"wget"}
	}
	var out []CampaignResult
	for _, name := range progs {
		p, err := corpus.ByName(name)
		if err != nil {
			return nil, err
		}
		prot, err := core.Protect(p.Build(), core.Options{
			VerifyFuncs: []string{p.VerifyFunc},
		})
		if err != nil {
			return nil, fmt.Errorf("campaign experiment: protecting %s: %w", name, err)
		}
		pcfg := cfg
		pcfg.Stdin = p.Stdin
		rep, err := campaign.Run(ctx, prot, pcfg)
		if err != nil {
			return nil, fmt.Errorf("campaign experiment: %s: %w", name, err)
		}
		out = append(out, CampaignResult{Program: name, Report: rep})
	}
	return out, nil
}

// CampaignEngineRow compares the campaign's two execution paths on
// one corpus program: the reference path (interpreter, clone+reload
// per mutant) and the production path (tb, snapshot/restore, fork
// points and the campaign-wide shared catalog). MatrixEqual is the
// differential check, Speedup and the catalog hit rate the payoff.
type CampaignEngineRow struct {
	Program       string
	Mutants       int
	ReloadSeconds float64 // reference path
	TBSeconds     float64 // production path
	Speedup       float64 // ReloadSeconds / TBSeconds
	// CatalogHitRate is catalog hits over catalog consults on the
	// production run: the fraction of block lookups that skipped
	// decode+compile by adopting another mutant's translation.
	CatalogHitRate float64
	MatrixEqual    bool
	Report         *campaign.Report // production-path report
}

// CampaignEngines runs the same enumerated campaign on both execution
// paths and measures wall-clock time per path. An empty program list
// means wget. Wall-clock numbers vary by host; the matrix equality
// must not.
func CampaignEngines(ctx context.Context, progs []string, cfg campaign.Config) ([]CampaignEngineRow, error) {
	if len(progs) == 0 {
		progs = []string{"wget"}
	}
	var out []CampaignEngineRow
	for _, name := range progs {
		p, err := corpus.ByName(name)
		if err != nil {
			return nil, err
		}
		prot, err := core.Protect(p.Build(), core.Options{
			VerifyFuncs: []string{p.VerifyFunc},
		})
		if err != nil {
			return nil, fmt.Errorf("campaign-engine experiment: protecting %s: %w", name, err)
		}
		pcfg := cfg
		pcfg.Stdin = p.Stdin
		legs, err := comparePaths(ctx, prot, pcfg)
		if err != nil {
			return nil, fmt.Errorf("campaign-engine experiment: %s %w", name, err)
		}
		out = append(out, CampaignEngineRow{
			Program:        name,
			Mutants:        legs.report.Mutants,
			ReloadSeconds:  legs.refSeconds,
			TBSeconds:      legs.prodSeconds,
			Speedup:        legs.speedup(),
			CatalogHitRate: legs.catalogHitRate,
			MatrixEqual:    legs.matrixEqual,
			Report:         legs.report,
		})
	}
	return out, nil
}

// pathLegs is one campaign over one protected image, run on both
// execution paths.
type pathLegs struct {
	report                  *campaign.Report // production path
	refSeconds, prodSeconds float64
	matrixEqual             bool
	catalogHitRate          float64 // on the production run
}

// speedup is the reference path's wall time over the production
// path's (0 when the production run took no measurable time).
func (l pathLegs) speedup() float64 {
	if l.prodSeconds <= 0 {
		return 0
	}
	return l.refSeconds / l.prodSeconds
}

// comparePaths runs cfg's campaign over prot on the reference path and
// then on the production path, timing each, and reports whether the
// two reports are equal and the production run's catalog hit rate.
// cfg.Reload and cfg.Obs are its own.
func comparePaths(ctx context.Context, prot *core.Protected, cfg campaign.Config) (pathLegs, error) {
	run := func(reload bool, reg *obs.Registry) (*campaign.Report, float64, error) {
		c := cfg
		c.Reload, c.Obs = reload, reg
		start := time.Now()
		rep, err := campaign.Run(ctx, prot, c)
		return rep, time.Since(start).Seconds(), err
	}
	ref, refSec, err := run(true, nil)
	if err != nil {
		return pathLegs{}, fmt.Errorf("(reference path): %w", err)
	}
	reg := obs.NewRegistry()
	prod, prodSec, err := run(false, reg)
	if err != nil {
		return pathLegs{}, fmt.Errorf("(production path): %w", err)
	}
	legs := pathLegs{
		report:      prod,
		refSeconds:  refSec,
		prodSeconds: prodSec,
		matrixEqual: reflect.DeepEqual(ref, prod),
	}
	hits := reg.Counter("emu.tb.catalog_hits").Value()
	if consults := hits + reg.Counter("emu.tb.catalog_misses").Value(); consults > 0 {
		legs.catalogHitRate = float64(hits) / float64(consults)
	}
	return legs, nil
}
