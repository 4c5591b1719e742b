package parallax

// Benchmarks regenerating the paper's tables and figures, one per
// evaluation artifact, plus infrastructure microbenchmarks. The
// figure benchmarks report the measured quantities via b.ReportMetric
// (slowdown factors, overhead percentages, coverage percentages) on
// top of wall-clock timings of the measurement pipeline itself.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// and see cmd/parallax-bench for the same data as plain tables.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"parallax/internal/attack"
	"parallax/internal/campaign"
	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/dyngen"
	"parallax/internal/emu"
	"parallax/internal/experiment"
	"parallax/internal/farm"
	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/rewrite"
)

// BenchmarkFig6Protectability regenerates Figure 6: protectable code
// bytes per rewriting rule, per corpus program. Reported metrics are
// the compositional coverage percentages.
func BenchmarkFig6Protectability(b *testing.B) {
	for _, p := range corpus.All() {
		b.Run(p.Name, func(b *testing.B) {
			var rep *rewrite.Report
			for i := 0; i < b.N; i++ {
				img, err := codegen.Build(p.Build(), image.Layout{})
				if err != nil {
					b.Fatal(err)
				}
				rep, err = rewrite.Measure(img)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Percent(rewrite.RuleExisting), "existing%")
			b.ReportMetric(rep.PercentReach(rewrite.RuleImmMod), "imm-mod%")
			b.ReportMetric(rep.PercentReach(rewrite.RuleJumpMod), "jump-mod%")
			b.ReportMetric(rep.AnyReachPercent(), "any%")
		})
	}
}

// benchFig5 runs one (program, mode) protection + measurement and
// reports Figure 5a/5b metrics.
func benchFig5(b *testing.B, mode dyngen.Mode) {
	for _, p := range corpus.All() {
		b.Run(p.Name, func(b *testing.B) {
			var rows []experiment.Fig5Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiment.Fig5ForProgram(p, []dyngen.Mode{mode})
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			b.ReportMetric(r.Slowdown, "slowdown-x")
			b.ReportMetric(r.OverheadPct, "overhead-%")
		})
	}
}

// BenchmarkFig5aChainSlowdown regenerates Figure 5a (cleartext chains;
// the hardened strategies have their own benchmarks below).
func BenchmarkFig5aChainSlowdown(b *testing.B) { benchFig5(b, dyngen.ModeStatic) }

// BenchmarkFig5aXor measures xor-encrypted chains.
func BenchmarkFig5aXor(b *testing.B) { benchFig5(b, dyngen.ModeXor) }

// BenchmarkFig5aRC4 measures RC4-encrypted chains.
func BenchmarkFig5aRC4(b *testing.B) { benchFig5(b, dyngen.ModeRC4) }

// BenchmarkFig5aProb measures probabilistically generated chains.
func BenchmarkFig5aProb(b *testing.B) { benchFig5(b, dyngen.ModeProb) }

// BenchmarkFig5bOverhead regenerates Figure 5b: whole-program cycle
// overhead of cleartext chains (overhead-% metric; the per-mode
// variants above carry their own overhead metric too).
func BenchmarkFig5bOverhead(b *testing.B) { benchFig5(b, dyngen.ModeStatic) }

// BenchmarkMuChainAblation regenerates the §V-C comparison: µ-chains
// against function chains (mu-ratio-x metric, paper: ≈2x).
func BenchmarkMuChainAblation(b *testing.B) {
	for _, p := range corpus.All() {
		b.Run(p.Name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				r, err := experiment.MuAblationForProgram(p)
				if err != nil {
					b.Fatal(err)
				}
				ratio = r.Ratio
			}
			b.ReportMetric(ratio, "mu-ratio-x")
		})
	}
}

// BenchmarkProtect measures the protection pipeline itself (the static
// analogue of a compiler benchmark).
func BenchmarkProtect(b *testing.B) {
	for _, p := range corpus.All() {
		b.Run(p.Name, func(b *testing.B) {
			m := p.Build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Protect(m, core.Options{
					VerifyFuncs: []string{p.VerifyFunc},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFarmThroughput measures the concurrent batch-protection
// service: one iteration protects the whole 6-program × 4-mode corpus
// matrix through internal/farm. The farm sizes its pool to GOMAXPROCS,
// so scaling is observed with
//
//	go test -bench FarmThroughput -cpu 1,4,8
//
// The first iteration runs on a cold cache; later iterations hit the
// content-addressed scan cache and layout hints (steady-state numbers,
// which is what a long-running protection service sees). Reported
// metrics: jobs/sec and the cumulative scan-cache hit percentage.
func BenchmarkFarmThroughput(b *testing.B) {
	jobs := experiment.FarmMatrix(nil)
	f := farm.New(farm.Config{})
	defer f.Close()
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		futures := make([]*farm.Job, len(jobs))
		for k, jb := range jobs {
			j, err := f.Submit(ctx, jb.Name, jb.Build(), jb.Opts)
			if err != nil {
				b.Fatal(err)
			}
			futures[k] = j
		}
		for k, j := range futures {
			res, err := j.Wait(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if res.Err != nil {
				b.Fatalf("job %s: %v", jobs[k].Name, res.Err)
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	st := f.Stats()
	if st.JobsFailed != 0 {
		b.Fatalf("farm stats: %v", st)
	}
	b.ReportMetric(float64(st.JobsCompleted)/elapsed, "jobs/s")
	b.ReportMetric(100*st.ScanHitRate(), "scan-hit-%")
}

// BenchmarkCampaignEngine compares the tamper campaign's two execution
// paths on the wget corpus program: the reference path (interpreter,
// clone+reload per mutant) and the production path (tb, one
// snapshotted emulator per worker restored between mutants, fork
// points, shared translation catalog). Reported metrics are each
// path's wall time and the reference/production speedup; the
// benchmark fails if the detection matrices diverge.
func BenchmarkCampaignEngine(b *testing.B) {
	var reloadSec, tbSec, speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.CampaignEngines(context.Background(), nil, campaign.Config{
			Stride:     5,
			MaxMutants: 256,
			MaxInst:    6_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.MatrixEqual {
				b.Fatalf("%s: detection matrices diverged between paths", r.Program)
			}
			reloadSec += r.ReloadSeconds
			tbSec += r.TBSeconds
			speedup = r.Speedup
		}
	}
	b.ReportMetric(reloadSec/float64(b.N), "reload-s/op")
	b.ReportMetric(tbSec/float64(b.N), "tb-s/op")
	b.ReportMetric(speedup, "speedup-x")
}

// BenchmarkGadgetScan measures the full scanner (every byte offset,
// six-instruction candidates) over two text sections: gcc's, and the
// protected text of the generated medium module whose cold protect
// sets protect-batch's round time.
func BenchmarkGadgetScan(b *testing.B) {
	bench := func(b *testing.B, text *image.Section) {
		b.SetBytes(int64(len(text.Data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gadget.ScanBytes(text.Data, text.Addr, gadget.ScanConfig{})
		}
	}
	b.Run("gcc", func(b *testing.B) {
		p, err := corpus.ByName("gcc")
		if err != nil {
			b.Fatal(err)
		}
		img, err := codegen.Build(p.Build(), image.Layout{})
		if err != nil {
			b.Fatal(err)
		}
		bench(b, img.Text())
	})
	b.Run("gen-medium-s1", func(b *testing.B) {
		fam, err := gen.FamilyByName("medium")
		if err != nil {
			b.Fatal(err)
		}
		p, err := gen.FamilyProgram(fam, 1)
		if err != nil {
			b.Fatal(err)
		}
		prot, err := core.Protect(p.Build(), core.Options{VerifyFuncs: []string{p.VerifyFunc}})
		if err != nil {
			b.Fatal(err)
		}
		bench(b, prot.Image.Text())
	})
}

// BenchmarkEmulator measures raw interpreter throughput
// (instructions/op via the emulated-MIPS metric).
func BenchmarkEmulator(b *testing.B) {
	p, err := corpus.ByName("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	img, err := codegen.Build(p.Build(), image.Layout{})
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := emu.RunImage(img, emu.NewOS(p.Stdin))
		if err != nil {
			b.Fatal(err)
		}
		insts = cpu.Icount
	}
	b.ReportMetric(float64(insts), "insts/op")
}

// BenchmarkChainExecution isolates one protected run per iteration —
// the end-to-end cost of executing verification chains.
func BenchmarkChainExecution(b *testing.B) {
	p, err := corpus.ByName("nginx")
	if err != nil {
		b.Fatal(err)
	}
	prot, err := core.Protect(p.Build(), core.Options{VerifyFuncs: []string{p.VerifyFunc}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := attack.Run(context.Background(), prot.Image, p.Stdin)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkWursterMatrix regenerates the §VI security matrix outcome
// as a benchmark-visible assertion (1 = reproduced).
func BenchmarkWursterMatrix(b *testing.B) {
	reproduced := 0.0
	for i := 0; i < b.N; i++ {
		ok, err := wursterReproduced()
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			reproduced = 1
		}
	}
	b.ReportMetric(reproduced, "reproduced")
}

func wursterReproduced() (bool, error) {
	p, err := corpus.ByName("nginx")
	if err != nil {
		return false, err
	}
	prot, err := core.Protect(p.Build(), core.Options{VerifyFuncs: []string{p.VerifyFunc}})
	if err != nil {
		return false, err
	}
	clean := attack.Run(context.Background(), prot.Image, p.Stdin)
	g := prot.Chains[p.VerifyFunc].Gadgets()[0]
	cpu, err := emu.LoadImage(prot.Image)
	if err != nil {
		return false, err
	}
	cpu.OS = emu.NewOS(p.Stdin)
	cpu.MaxInst = 50_000_000
	attack.Wurster(cpu, g.Addr, []byte{0xCC})
	runErr := cpu.Run()
	detected := runErr != nil || cpu.Status != clean.Status
	if !detected {
		return false, fmt.Errorf("wurster attack went unnoticed by parallax")
	}
	return true, nil
}
