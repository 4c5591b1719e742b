package experiment

import (
	"context"
	"fmt"
	"time"

	"parallax/internal/campaign"
	"parallax/internal/core"
	"parallax/internal/corpus/gen"
	"parallax/internal/emu"
	"parallax/internal/image"
)

// This file is the cold-coverage experiment: the honest measurement of
// the detection blind spot on never-executed text, and of the two
// mitigations this repository implements — workload-driven execution
// (the generated corpus reads a cold-call budget from stdin, so a
// "heavy" workload actually runs cold bodies under the ROP chains'
// indirect coverage) and §VI-C checksum-network composition (checkers
// that hash the cold regions a chain never touches). Each generated
// program is measured as a 2×2 matrix of campaigns — {idle, heavy}
// workload × {plain, composed} protection — and the per-region cold
// detection rates are aggregated into percentile distributions.
//
// Two invariants ride along. First, detection matrices are semantic
// statements about the protected program, so every k-th program's
// heavy/composed campaign is re-run on the campaign's reference path
// and must fingerprint identically. Second, composition must not
// change clean behavior: the composed image's campaign classifies
// against its own clean reference run, which the campaign hard-fails
// on if it no longer exits cleanly.

// ColdCoverOptions tunes the sweep.
type ColdCoverOptions struct {
	// Families are the generator families to sweep (default: tiny,
	// small, branchy, stringy, muldiv, callheavy — the sizes where four
	// campaigns per program stay affordable).
	Families []string
	// Seeds is the number of seeds per family (0 = 5).
	Seeds int
	// Checkers sizes the composed checksum network (0 = 4).
	Checkers int
	// Mutants caps each of the four campaigns (0 = 96).
	Mutants int
	// CrossEvery re-runs every k-th program's heavy/composed campaign
	// on the reference path and hard-fails on matrix divergence
	// (0 = 4; negative disables).
	CrossEvery int
	// Progress, when non-nil, is called after each program completes.
	Progress func(done, total int, name string)
}

func (o ColdCoverOptions) withDefaults() ColdCoverOptions {
	if len(o.Families) == 0 {
		o.Families = []string{"tiny", "small", "branchy", "stringy", "muldiv", "callheavy"}
	}
	if o.Seeds == 0 {
		o.Seeds = 5
	}
	if o.Checkers == 0 {
		o.Checkers = 4
	}
	if o.Mutants == 0 {
		o.Mutants = 96
	}
	if o.CrossEvery == 0 {
		o.CrossEvery = 4
	}
	return o
}

// ColdCell is one campaign cell of a program's 2×2 measurement.
type ColdCell struct {
	Workload string `json:"workload"` // "idle" or "heavy"
	Composed bool   `json:"composed"`
	Mutants  int    `json:"mutants"`

	DetectedRate     float64 `json:"detected_rate"`
	HotDetectedRate  float64 `json:"hot_detected_rate"`
	ColdDetectedRate float64 `json:"cold_detected_rate"`
	DataDetectedRate float64 `json:"data_detected_rate"`
	InfraErrors      int     `json:"infra_errors"`
	MatrixFP         string  `json:"matrix_fp"`
}

// ColdCoverProgram is one generated program's 2×2 record.
type ColdCoverProgram struct {
	Family     string `json:"family"`
	Name       string `json:"name"`
	Seed       uint64 `json:"seed"`
	ParamsHash string `json:"params_hash"`
	TextBytes  int    `json:"text_bytes"`

	// Composed-network shape (§VI-C): how much of the cold candidate
	// space (chain-unguarded regions, text and data alike) the
	// installed checkers actually cover. CoveredPct is covered bytes
	// over covered+dropped — the fraction of what the network set out
	// to protect that it did protect.
	Checkers       int     `json:"checkers"`
	Regions        int     `json:"regions"`
	CoveredBytes   int     `json:"covered_bytes"`
	DroppedRegions int     `json:"dropped_regions"`
	CoveredPct     float64 `json:"covered_pct"`

	// Runtime price of composition under the heavy workload
	// (deterministic cycle model, composed vs plain).
	ComposedOverheadPct float64 `json:"composed_overhead_pct"`

	// Cells in fixed order: idle/plain, heavy/plain, idle/composed,
	// heavy/composed.
	Cells []ColdCell `json:"cells"`

	CrossChecked bool `json:"cross_checked"`
}

// Cell returns the named cell of the 2×2 measurement.
func (p ColdCoverProgram) Cell(workload string, composed bool) ColdCell {
	for _, c := range p.Cells {
		if c.Workload == workload && c.Composed == composed {
			return c
		}
	}
	return ColdCell{}
}

// ColdCoverFamily aggregates one family's programs: the four cold-rate
// distributions are the experiment's headline.
type ColdCoverFamily struct {
	Family string `json:"family"`
	N      int    `json:"n"`

	ColdIdlePlain     Dist `json:"cold_idle_plain"`
	ColdHeavyPlain    Dist `json:"cold_heavy_plain"`
	ColdIdleComposed  Dist `json:"cold_idle_composed"`
	ColdHeavyComposed Dist `json:"cold_heavy_composed"`

	HotHeavyComposed    Dist `json:"hot_heavy_composed"`
	CoveredPct          Dist `json:"covered_pct"`
	ComposedOverheadPct Dist `json:"composed_overhead_pct"`
}

// ColdCoverReport is the full sweep result.
type ColdCoverReport struct {
	Checkers    int                `json:"checkers"`
	Mutants     int                `json:"mutants"`
	Programs    []ColdCoverProgram `json:"programs"`
	Families    []ColdCoverFamily  `json:"families"`
	Overall     ColdCoverFamily    `json:"overall"`
	CrossChecks int                `json:"cross_checks"`
}

// coldCampaignConfig scales the campaign to the image and workload.
// The instruction budget leaves room for both the heavy workload's
// cold bodies and the composed network's hashing pass (~6 emulated
// instructions per covered text byte), so budget trips never masquerade
// as timeouts in the matrix.
func coldCampaignConfig(opts ColdCoverOptions, textBytes, codeKiB int) campaign.Config {
	cfg := corpusCampaignConfig(CorpusOptions{Mutants: opts.Mutants}, textBytes, codeKiB)
	cfg.MaxInst = 4_000_000 + 8*uint64(textBytes)
	cfg.Timeout = 30 * time.Second
	return cfg
}

// infraCount sums the infra column of a report.
func infraCount(rep *campaign.Report) int {
	n := 0
	for _, r := range rep.Rows {
		n += r.Infra
	}
	return n
}

// coldCell folds one campaign report into a cell record.
func coldCell(rep *campaign.Report, info gen.Info, workload string, composed bool) ColdCell {
	c := ColdCell{
		Workload: workload,
		Composed: composed,
		Mutants:  rep.Mutants,

		DetectedRate: rep.Totals().DetectedRate(),
		InfraErrors:  infraCount(rep),
		MatrixFP:     matrixFP(rep),
	}
	c.HotDetectedRate, c.ColdDetectedRate, c.DataDetectedRate = regionRates(rep, info)
	return c
}

// runCyclesWith runs an image to exit under a workload and returns the
// deterministic cycle count.
func runCyclesWith(img *image.Image, stdin []byte) (uint64, error) {
	cpu, err := emu.RunImage(img, emu.NewOS(stdin))
	if err != nil {
		return 0, err
	}
	return cpu.Cycles, nil
}

// ColdCoverSweep runs the cold-coverage experiment.
func ColdCoverSweep(ctx context.Context, opts ColdCoverOptions) (*ColdCoverReport, error) {
	opts = opts.withDefaults()
	out := &ColdCoverReport{Checkers: opts.Checkers, Mutants: opts.Mutants}
	total := len(opts.Families) * opts.Seeds
	done := 0

	for _, name := range opts.Families {
		fam, err := gen.FamilyByName(name)
		if err != nil {
			return nil, fmt.Errorf("coldcover: %w", err)
		}
		info, err := gen.Describe(fam.Params)
		if err != nil {
			return nil, fmt.Errorf("coldcover: %s: %w", name, err)
		}
		for seed := uint64(1); seed <= uint64(opts.Seeds); seed++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			prog, err := gen.FamilyProgram(fam, seed)
			if err != nil {
				return nil, fmt.Errorf("coldcover: %s seed %d: %w", name, seed, err)
			}
			heavy, ok := prog.Workload("heavy")
			if !ok {
				return nil, fmt.Errorf("coldcover: %s has no heavy workload", prog.Name)
			}
			workloads := []campaign.Workload{
				{Name: "idle", Stdin: nil},
				{Name: "heavy", Stdin: heavy},
			}

			plain, err := core.Protect(prog.Build(), core.Options{VerifyFuncs: []string{prog.VerifyFunc}})
			if err != nil {
				return nil, fmt.Errorf("coldcover: %s: protect: %w", prog.Name, err)
			}
			composed, err := core.Protect(prog.Build(), core.Options{
				VerifyFuncs: []string{prog.VerifyFunc}, ComposeChecksum: opts.Checkers,
			})
			if err != nil {
				return nil, fmt.Errorf("coldcover: %s: composed protect: %w", prog.Name, err)
			}
			if composed.Checksum == nil {
				return nil, fmt.Errorf("coldcover: %s: composed image carries no network stats", prog.Name)
			}

			text := plain.Image.Text()
			cfg := coldCampaignConfig(opts, len(text.Data), fam.Params.CodeKiB)

			plainReps, err := campaign.RunWorkloads(ctx, plain, cfg, workloads)
			if err != nil {
				return nil, fmt.Errorf("coldcover: %s: plain: %w", prog.Name, err)
			}
			compReps, err := campaign.RunWorkloads(ctx, composed, cfg, workloads)
			if err != nil {
				return nil, fmt.Errorf("coldcover: %s: composed: %w", prog.Name, err)
			}

			plainCycles, err := runCyclesWith(plain.Image, heavy)
			if err != nil {
				return nil, fmt.Errorf("coldcover: %s: plain heavy run: %w", prog.Name, err)
			}
			compCycles, err := runCyclesWith(composed.Image, heavy)
			if err != nil {
				return nil, fmt.Errorf("coldcover: %s: composed heavy run: %w", prog.Name, err)
			}

			cs := composed.Checksum
			coveredPct := 0.0
			if candidate := cs.CoveredBytes + cs.DroppedBytes; candidate > 0 {
				coveredPct = 100 * float64(cs.CoveredBytes) / float64(candidate)
			}
			rec := ColdCoverProgram{
				Family:     name,
				Name:       prog.Name,
				Seed:       seed,
				ParamsHash: fam.Params.Hash(),
				TextBytes:  len(text.Data),

				Checkers:       cs.Checkers,
				Regions:        cs.Regions,
				CoveredBytes:   int(cs.CoveredBytes),
				DroppedRegions: cs.DroppedRegions,
				CoveredPct:     coveredPct,

				ComposedOverheadPct: 100 * float64(int64(compCycles)-int64(plainCycles)) / float64(plainCycles),

				Cells: []ColdCell{
					coldCell(plainReps["idle"], info, "idle", false),
					coldCell(plainReps["heavy"], info, "heavy", false),
					coldCell(compReps["idle"], info, "idle", true),
					coldCell(compReps["heavy"], info, "heavy", true),
				},
			}

			// Path cross-check on the cell where everything is live at
			// once: heavy workload, composed network.
			if opts.CrossEvery > 0 && done%opts.CrossEvery == 0 {
				xcfg := cfg
				xcfg.Reload = true
				xcfg.Stdin = heavy
				xrep, err := campaign.Run(ctx, composed, xcfg)
				if err != nil {
					return nil, fmt.Errorf("coldcover: %s: reference path: %w", prog.Name, err)
				}
				want := rec.Cell("heavy", true).MatrixFP
				if fp := matrixFP(xrep); fp != want {
					return nil, fmt.Errorf("coldcover: %s: heavy/composed matrix diverges between paths: %s (production) vs %s (reference)",
						prog.Name, want, fp)
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
	byFam := map[string][]ColdCoverProgram{}
	for _, rec := range out.Programs {
		byFam[rec.Family] = append(byFam[rec.Family], rec)
	}
	aggregate := func(name string, recs []ColdCoverProgram) ColdCoverFamily {
		pull := func(f func(ColdCoverProgram) float64) Dist {
			vals := make([]float64, len(recs))
			for i, r := range recs {
				vals[i] = f(r)
			}
			return NewDist(vals)
		}
		return ColdCoverFamily{
			Family: name, N: len(recs),
			ColdIdlePlain:     pull(func(r ColdCoverProgram) float64 { return r.Cell("idle", false).ColdDetectedRate }),
			ColdHeavyPlain:    pull(func(r ColdCoverProgram) float64 { return r.Cell("heavy", false).ColdDetectedRate }),
			ColdIdleComposed:  pull(func(r ColdCoverProgram) float64 { return r.Cell("idle", true).ColdDetectedRate }),
			ColdHeavyComposed: pull(func(r ColdCoverProgram) float64 { return r.Cell("heavy", true).ColdDetectedRate }),

			HotHeavyComposed:    pull(func(r ColdCoverProgram) float64 { return r.Cell("heavy", true).HotDetectedRate }),
			CoveredPct:          pull(func(r ColdCoverProgram) float64 { return r.CoveredPct }),
			ComposedOverheadPct: pull(func(r ColdCoverProgram) float64 { return r.ComposedOverheadPct }),
		}
	}
	for _, name := range opts.Families {
		recs := byFam[name]
		if len(recs) == 0 {
			continue
		}
		out.Families = append(out.Families, aggregate(name, recs))
	}
	out.Overall = aggregate("overall", out.Programs)
	return out, nil
}
