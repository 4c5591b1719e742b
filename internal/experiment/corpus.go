package experiment

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"parallax/internal/campaign"
	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/corpus/gen"
	"parallax/internal/emu"
	"parallax/internal/image"
	"parallax/internal/rewrite"
)

// This file is the corpus-at-scale sweep: N generated programs
// (families × seeds) pushed through protect → tamper → detect, with
// per-region detection rates and protect/verify overheads aggregated
// into percentile distributions — the Figure 5/6 analogues measured
// over a population instead of six hand-picked points. Everything fed
// into the distributions is deterministic (seeded generation, the
// emulator's cycle model, deterministic campaign enumeration); only the
// *Seconds fields are host wall clock, kept as labelled context.

// CorpusOptions tunes the sweep.
type CorpusOptions struct {
	// N is the total program budget distributed across families
	// (0 = 105). Budgets >= 20 always include the 1.6 MiB and 4 MiB
	// families so the sweep spans three size decades.
	N int
	// Mutants caps each program's campaign (0 = 96).
	Mutants int
	// Workers is the per-campaign worker count (0 = GOMAXPROCS).
	Workers int
	// CrossEvery re-runs every k-th program's campaign on the reference
	// path and hard-fails on any matrix divergence (0 = 10; negative
	// disables).
	CrossEvery int
	// Progress, when non-nil, is called after each program completes.
	Progress func(done, total int, name string)
}

func (o CorpusOptions) withDefaults() CorpusOptions {
	if o.N == 0 {
		o.N = 105
	}
	if o.Mutants == 0 {
		o.Mutants = 96
	}
	if o.CrossEvery == 0 {
		o.CrossEvery = 10
	}
	return o
}

// CorpusProgram is one generated program's sweep record; Seed and
// ParamsHash pin exactly which program produced each number.
type CorpusProgram struct {
	Family     string `json:"family"`
	Name       string `json:"name"`
	Seed       uint64 `json:"seed"`
	ParamsHash string `json:"params_hash"`
	CodeKiB    int    `json:"code_kib"`
	Modules    int    `json:"modules"`
	TextBytes  int    `json:"text_bytes"`
	Funcs      int    `json:"funcs"`

	// Figure 6 analogue: protectable text percentage (strict and
	// compositional accounting).
	AnyPct      float64 `json:"any_pct"`
	AnyReachPct float64 `json:"any_reach_pct"`

	// Figure 5b analogue: whole-program overhead from the deterministic
	// cycle model; ProtectSeconds is host wall clock (context only).
	BaselineCycles  uint64  `json:"baseline_cycles"`
	ProtectedCycles uint64  `json:"protected_cycles"`
	OverheadPct     float64 `json:"overhead_pct"`
	ProtectSeconds  float64 `json:"protect_seconds"`

	// Campaign detection outcomes.
	Mutants          int     `json:"mutants"`
	GuardedTotal     int     `json:"guarded_total"`
	GuardedChain     int     `json:"guarded_chain"`
	GuardedChainRate float64 `json:"guarded_chain_rate"`
	DetectedRate     float64 `json:"detected_rate"`
	// Per-region-class detection rates: hot text (executes every run),
	// cold text (linked, never executes), chain data (..parallax.*).
	HotDetectedRate  float64 `json:"hot_detected_rate"`
	ColdDetectedRate float64 `json:"cold_detected_rate"`
	DataDetectedRate float64 `json:"data_detected_rate"`

	// MatrixFP fingerprints the rendered detection matrix; reruns of the
	// same (seed, params, campaign config) must reproduce it exactly.
	MatrixFP     string `json:"matrix_fp"`
	CrossChecked bool   `json:"cross_checked"`
}

// Dist is a percentile summary of one metric over a program set.
type Dist struct {
	N    int     `json:"n"`
	P10  float64 `json:"p10"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	Mean float64 `json:"mean"`
}

// NewDist summarizes values (nearest-rank percentiles; deterministic).
func NewDist(values []float64) Dist {
	if len(values) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := func(q float64) float64 {
		i := int(q*float64(len(s)-1) + 0.5)
		return s[i]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Dist{
		N: len(s), P10: rank(0.10), P50: rank(0.50), P90: rank(0.90),
		Mean: sum / float64(len(s)),
	}
}

// CorpusFamily aggregates one family's programs into distributions.
type CorpusFamily struct {
	Family           string `json:"family"`
	CodeKiB          int    `json:"code_kib"`
	N                int    `json:"n"`
	GuardedChainRate Dist   `json:"guarded_chain_rate"`
	DetectedRate     Dist   `json:"detected_rate"`
	HotDetectedRate  Dist   `json:"hot_detected_rate"`
	ColdDetectedRate Dist   `json:"cold_detected_rate"`
	DataDetectedRate Dist   `json:"data_detected_rate"`
	OverheadPct      Dist   `json:"overhead_pct"`
	AnyReachPct      Dist   `json:"any_reach_pct"`
	ProtectSeconds   Dist   `json:"protect_seconds"`
}

// CorpusReport is the full sweep result.
type CorpusReport struct {
	Programs    []CorpusProgram `json:"programs"`
	Families    []CorpusFamily  `json:"families"`
	Overall     CorpusFamily    `json:"overall"`
	CrossChecks int             `json:"cross_checks"`
}

// corpusPlanEntry is one (family, program count) slot in the sweep plan.
type corpusPlanEntry struct {
	fam   gen.Family
	count int
}

// corpusPlan distributes the program budget across families: the bulk
// on the cheap small families, a guaranteed slice on the 1.6 MiB and
// 4 MiB families once the budget affords them (three size decades).
func corpusPlan(n int) []corpusPlanEntry {
	weights := map[string]int{
		"tiny": 34, "small": 22,
		"branchy": 8, "stringy": 8, "muldiv": 8, "callheavy": 8,
		"medium": 7, "huge": 5,
	}
	var plan []corpusPlanEntry
	total := 0
	for _, w := range weights {
		total += w
	}
	assigned := 0
	for _, fam := range gen.Families() {
		c := n * weights[fam.Name] / total
		big := fam.Params.CodeKiB > 1024
		if big && n >= 20 && c < 2 {
			c = 2 // keep the top size decades populated
		}
		if !big && c < 1 {
			c = 1
		}
		plan = append(plan, corpusPlanEntry{fam: fam, count: c})
		assigned += c
	}
	// Remainder (or overdraft) lands on the cheapest family.
	plan[0].count += n - assigned
	if plan[0].count < 1 {
		plan[0].count = 1
	}
	return plan
}

// corpusCampaignConfig scales the campaign to the image: the stride
// spreads sites across the whole text regardless of size, and the
// serial kind (whole-image serialization per mutant) is dropped above
// 256 KiB where it would dominate wall clock without adding coverage
// along the size axis.
func corpusCampaignConfig(opts CorpusOptions, textBytes, codeKiB int) campaign.Config {
	stride := textBytes / 8192
	if stride < 7 {
		stride = 7
	}
	stride |= 1 // odd, so consecutive sites vary mod instruction lengths
	kinds := campaign.AllKinds()
	if codeKiB > 256 {
		kinds = []campaign.Kind{campaign.KindBitFlip, campaign.KindByteSet, campaign.KindNopSweep}
	}
	return campaign.Config{
		Workers:    opts.Workers,
		MaxInst:    2_000_000,
		Stride:     stride,
		MaxMutants: opts.Mutants,
		Kinds:      kinds,
	}
}

// matrixFP fingerprints a rendered detection matrix.
func matrixFP(rep *campaign.Report) string {
	h := fnv.New64a()
	h.Write([]byte(rep.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// regionRates folds the per-region matrix into the three region
// classes using the generator's seed-independent skeleton.
func regionRates(rep *campaign.Report, info gen.Info) (hot, cold, data float64) {
	var h, c, d campaign.Row
	acc := func(dst *campaign.Row, r campaign.Row) {
		dst.Total += r.Total
		dst.Infra += r.Infra
		dst.Silent += r.Silent
	}
	for _, r := range rep.Rows {
		switch {
		case r.Region == "(serialized)":
			// Serial corruption hits the container, not a region class.
		case strings.HasPrefix(r.Region, "..parallax."):
			acc(&d, r)
		case strings.HasPrefix(r.Region, "..cs."):
			// Composed checksum-network checkers execute on every run
			// (entry wrapper), so they are hot code, not cold.
			acc(&h, r)
		case r.Region == "vfy" || r.Region == "main" || info.Hot[r.Region]:
			acc(&h, r)
		default:
			acc(&c, r)
		}
	}
	return h.DetectedRate(), c.DetectedRate(), d.DetectedRate()
}

// runCycles runs an image to exit and returns the deterministic cycle
// count.
func runCycles(img *image.Image) (uint64, error) {
	cpu, err := emu.RunImage(img, emu.NewOS(nil))
	if err != nil {
		return 0, err
	}
	return cpu.Cycles, nil
}

// CorpusSweep runs the corpus-at-scale experiment.
func CorpusSweep(ctx context.Context, opts CorpusOptions) (*CorpusReport, error) {
	opts = opts.withDefaults()
	plan := corpusPlan(opts.N)
	total := 0
	for _, e := range plan {
		total += e.count
	}

	out := &CorpusReport{}
	done := 0
	for _, entry := range plan {
		info, err := gen.Describe(entry.fam.Params)
		if err != nil {
			return nil, fmt.Errorf("corpus sweep: %s: %w", entry.fam.Name, err)
		}
		for seed := uint64(1); seed <= uint64(entry.count); seed++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			prog, err := gen.FamilyProgram(entry.fam, seed)
			if err != nil {
				return nil, fmt.Errorf("corpus sweep: %s seed %d: %w", entry.fam.Name, seed, err)
			}
			m := prog.Build()
			baseImg, err := codegen.Build(m, image.Layout{})
			if err != nil {
				return nil, fmt.Errorf("corpus sweep: %s: codegen: %w", prog.Name, err)
			}
			if err := gen.CheckImage(baseImg); err != nil {
				return nil, fmt.Errorf("corpus sweep: %s: %w", prog.Name, err)
			}
			baseCycles, err := runCycles(baseImg)
			if err != nil {
				return nil, fmt.Errorf("corpus sweep: %s: baseline run: %w", prog.Name, err)
			}
			measure, err := rewrite.Measure(baseImg)
			if err != nil {
				return nil, fmt.Errorf("corpus sweep: %s: measure: %w", prog.Name, err)
			}

			start := time.Now()
			prot, err := core.Protect(m, core.Options{VerifyFuncs: []string{prog.VerifyFunc}})
			if err != nil {
				return nil, fmt.Errorf("corpus sweep: %s: protect: %w", prog.Name, err)
			}
			protectSec := time.Since(start).Seconds()
			if err := gen.CheckProtected(prot); err != nil {
				return nil, fmt.Errorf("corpus sweep: %s: %w", prog.Name, err)
			}
			protCycles, err := runCycles(prot.Image)
			if err != nil {
				return nil, fmt.Errorf("corpus sweep: %s: protected run: %w", prog.Name, err)
			}

			text := baseImg.Text()
			cfg := corpusCampaignConfig(opts, len(text.Data), entry.fam.Params.CodeKiB)
			rep, err := campaign.Run(ctx, prot, cfg)
			if err != nil {
				return nil, fmt.Errorf("corpus sweep: %s: campaign: %w", prog.Name, err)
			}

			rec := CorpusProgram{
				Family:     entry.fam.Name,
				Name:       prog.Name,
				Seed:       seed,
				ParamsHash: entry.fam.Params.Hash(),
				CodeKiB:    entry.fam.Params.CodeKiB,
				Modules:    entry.fam.Params.Modules,
				TextBytes:  len(text.Data),
				Funcs:      len(info.Funcs),

				AnyPct:      measure.AnyPercent(),
				AnyReachPct: measure.AnyReachPercent(),

				BaselineCycles:  baseCycles,
				ProtectedCycles: protCycles,
				OverheadPct:     100 * float64(int64(protCycles)-int64(baseCycles)) / float64(baseCycles),
				ProtectSeconds:  protectSec,

				Mutants:          rep.Mutants,
				GuardedTotal:     rep.GuardedTotal,
				GuardedChain:     rep.GuardedChain,
				GuardedChainRate: rep.GuardedChainRate(),
				DetectedRate:     rep.Totals().DetectedRate(),
				MatrixFP:         matrixFP(rep),
			}
			rec.HotDetectedRate, rec.ColdDetectedRate, rec.DataDetectedRate = regionRates(rep, info)

			// Path cross-check: the detection matrix is a semantic
			// statement about the protected program, so the reference
			// path (another engine, no fork points, no catalog) must
			// reproduce it.
			if opts.CrossEvery > 0 && done%opts.CrossEvery == 0 {
				xcfg := cfg
				xcfg.Reload = true
				xrep, err := campaign.Run(ctx, prot, xcfg)
				if err != nil {
					return nil, fmt.Errorf("corpus sweep: %s: reference-path campaign: %w", prog.Name, err)
				}
				if fp := matrixFP(xrep); fp != rec.MatrixFP {
					return nil, fmt.Errorf("corpus sweep: %s: matrix diverges between paths: %s (production) vs %s (reference)",
						prog.Name, rec.MatrixFP, fp)
				}
				rec.CrossChecked = true
				out.CrossChecks++
			}

			out.Programs = append(out.Programs, rec)
			done++
			if opts.Progress != nil {
				opts.Progress(done, total, prog.Name)
			}
		}
	}

	// Aggregate: per family, then overall.
	byFam := map[string][]CorpusProgram{}
	for _, rec := range out.Programs {
		byFam[rec.Family] = append(byFam[rec.Family], rec)
	}
	aggregate := func(name string, kib int, recs []CorpusProgram) CorpusFamily {
		pull := func(f func(CorpusProgram) float64) Dist {
			vals := make([]float64, len(recs))
			for i, r := range recs {
				vals[i] = f(r)
			}
			return NewDist(vals)
		}
		return CorpusFamily{
			Family: name, CodeKiB: kib, N: len(recs),
			GuardedChainRate: pull(func(r CorpusProgram) float64 { return r.GuardedChainRate }),
			DetectedRate:     pull(func(r CorpusProgram) float64 { return r.DetectedRate }),
			HotDetectedRate:  pull(func(r CorpusProgram) float64 { return r.HotDetectedRate }),
			ColdDetectedRate: pull(func(r CorpusProgram) float64 { return r.ColdDetectedRate }),
			DataDetectedRate: pull(func(r CorpusProgram) float64 { return r.DataDetectedRate }),
			OverheadPct:      pull(func(r CorpusProgram) float64 { return r.OverheadPct }),
			AnyReachPct:      pull(func(r CorpusProgram) float64 { return r.AnyReachPct }),
			ProtectSeconds:   pull(func(r CorpusProgram) float64 { return r.ProtectSeconds }),
		}
	}
	for _, entry := range plan {
		recs := byFam[entry.fam.Name]
		if len(recs) == 0 {
			continue
		}
		out.Families = append(out.Families, aggregate(entry.fam.Name, entry.fam.Params.CodeKiB, recs))
	}
	out.Overall = aggregate("overall", 0, out.Programs)
	return out, nil
}

// CorpusEngineRow compares the two execution paths on one big
// generated image: the same enumerated campaign on the reference path
// (interpreter, clone+reload) and the production path (tb,
// snapshot/restore, fork points, shared catalog). Wall-clock varies by
// host; matrix equality must not.
type CorpusEngineRow struct {
	Family              string  `json:"family"`
	Seed                uint64  `json:"seed"`
	TextBytes           int     `json:"text_bytes"`
	Mutants             int     `json:"mutants"`
	InterpReloadSeconds float64 `json:"interp_reload_seconds"`
	TBSnapSeconds       float64 `json:"tb_snap_seconds"`
	Speedup             float64 `json:"speedup"` // interp reload / tb snap
	CatalogHitRate      float64 `json:"catalog_hit_rate"`
	MatrixEqual         bool    `json:"matrix_equal"`
}

// CorpusEngines re-runs the path table on generated images at the
// sizes where snapshot/restore, fork points and translation caching
// actually have something to amortize. Empty families means
// small/medium/huge — 160 KiB, 1.6 MiB, 4 MiB.
func CorpusEngines(ctx context.Context, families []string, seed uint64, mutants, workers int) ([]CorpusEngineRow, error) {
	if len(families) == 0 {
		families = []string{"small", "medium", "huge"}
	}
	if mutants == 0 {
		mutants = 48
	}
	var out []CorpusEngineRow
	for _, name := range families {
		fam, err := gen.FamilyByName(name)
		if err != nil {
			return nil, err
		}
		prog, err := gen.FamilyProgram(fam, seed)
		if err != nil {
			return nil, err
		}
		prot, err := core.Protect(prog.Build(), core.Options{VerifyFuncs: []string{prog.VerifyFunc}})
		if err != nil {
			return nil, fmt.Errorf("corpus engines: protecting %s: %w", prog.Name, err)
		}
		text := prot.Image.Text()
		cfg := corpusCampaignConfig(CorpusOptions{Mutants: mutants, Workers: workers},
			len(text.Data), fam.Params.CodeKiB)
		legs, err := comparePaths(ctx, prot, cfg)
		if err != nil {
			return nil, fmt.Errorf("corpus engines: %s %w", prog.Name, err)
		}
		out = append(out, CorpusEngineRow{
			Family:              name,
			Seed:                seed,
			TextBytes:           len(text.Data),
			Mutants:             legs.report.Mutants,
			InterpReloadSeconds: legs.refSeconds,
			TBSnapSeconds:       legs.prodSeconds,
			Speedup:             legs.speedup(),
			CatalogHitRate:      legs.catalogHitRate,
			MatrixEqual:         legs.matrixEqual,
		})
	}
	return out, nil
}
