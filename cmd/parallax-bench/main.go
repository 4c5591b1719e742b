// Command parallax-bench regenerates the paper's evaluation tables and
// figures from the reproduced system:
//
//	parallax-bench -experiment fig6      protectable code bytes (Figure 6)
//	parallax-bench -experiment fig5a     function chain slowdowns (Figure 5a)
//	parallax-bench -experiment fig5b     whole-program overheads (Figure 5b)
//	parallax-bench -experiment uchain    µ-chain ablation (§V-C)
//	parallax-bench -experiment wurster   split-cache attack matrix (§VI/§IX)
//	parallax-bench -experiment oh        oblivious-hashing comparison (§VIII-C)
//	parallax-bench -experiment prob      probabilistic variant counts (§V-B)
//	parallax-bench -experiment farm      batch-protection throughput + cache hit rate
//	parallax-bench -experiment campaign  tamper-campaign detection matrix
//	parallax-bench -experiment campaign-engine  production path (tb) vs reference path (interp)
//	parallax-bench -experiment obs       protect-pipeline per-stage timing (internal/obs)
//	parallax-bench -experiment difftest  differential-oracle engine throughput + divergence gate
//	parallax-bench -experiment corpus    generated-corpus sweep: detection/overhead distributions
//	parallax-bench -experiment coldcover cold-text detection: workload × §VI-C composition matrix
//	parallax-bench -experiment fanout    farm fan-out stress: hundreds of jobs across worker counts
//	parallax-bench -experiment all       the deterministic figure set (fig6 … prob); the
//	                                     wall-clock and sweep experiments (farm, campaign,
//	                                     campaign-engine, obs, difftest, corpus, coldcover,
//	                                     fanout) run only when named explicitly
//
// All numbers except the farm and fanout experiments come from the
// deterministic emulator cycle model; those runs are reproducible bit
// for bit. The farm and fanout experiments measure wall-clock
// throughput of the concurrent batch-protection service
// (internal/farm), so their numbers vary by host and are excluded from
// -experiment all and the reference output. See EXPERIMENTS.md for the
// paper-versus-measured discussion.
//
// The experiment registry below is the single source of truth: the
// -experiment usage string and the "all" set derive from it, and
// TestExperimentDocDrift holds this doc comment to it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"parallax/internal/attack"
	"parallax/internal/baseline/checksum"
	"parallax/internal/baseline/oh"
	"parallax/internal/campaign"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/dyngen"
	"parallax/internal/emu"
	"parallax/internal/experiment"
	"parallax/internal/ir"
)

// benchFlags carries every experiment's tuning flags, parsed once.
type benchFlags struct {
	workers  string
	progs    string
	mutants  int
	n        int
	seeds    int
	checkers int
	families string
	jobs     int
	unique   int
	tbOut    string
	// mutantsSet records whether -mutants was given explicitly; the
	// coldcover experiment has its own default (96 per campaign cell)
	// distinct from campaign-engine's 512.
	mutantsSet bool
}

// experimentDef is one registry entry. The -experiment usage string
// and the "all" set derive from the registry, so a new experiment
// cannot be reachable yet missing from the usage text; the package doc
// comment is held to the registry by TestExperimentDocDrift.
type experimentDef struct {
	name string
	// inAll includes the experiment in -experiment all (the
	// deterministic figure set; wall-clock and sweep experiments run
	// only when named).
	inAll bool
	run   func(f benchFlags) error
}

// registry lists every experiment, in "all"-execution order.
var registry = []experimentDef{
	{"fig6", true, func(benchFlags) error { return fig6() }},
	{"fig5a", true, func(benchFlags) error { return fig5a() }},
	{"fig5b", true, func(benchFlags) error { return fig5b() }},
	{"uchain", true, func(benchFlags) error { return uchain() }},
	{"wurster", true, func(benchFlags) error { return wurster() }},
	{"oh", true, func(benchFlags) error { return ohExperiment() }},
	{"prob", true, func(benchFlags) error { return probExperiment() }},
	{"farm", false, func(f benchFlags) error { return farmExperiment(f.workers) }},
	{"campaign", false, func(f benchFlags) error { return campaignExperiment(f.progs) }},
	{"campaign-engine", false, func(f benchFlags) error { return campaignEngineExperiment(f.progs, f.mutants) }},
	{"obs", false, func(f benchFlags) error { return obsExperiment(f.progs) }},
	{"difftest", false, func(f benchFlags) error { return difftestExperiment(f.progs, f.tbOut) }},
	{"corpus", false, func(f benchFlags) error { return corpusExperiment(f.n) }},
	{"coldcover", false, func(f benchFlags) error {
		mutants := 0 // ColdCoverOptions default
		if f.mutantsSet {
			mutants = f.mutants
		}
		return coldcoverExperiment(f.families, f.seeds, f.checkers, mutants)
	}},
	{"fanout", false, func(f benchFlags) error { return fanoutExperiment(f.jobs, f.unique, f.workers) }},
}

// experimentUsage derives the -experiment flag's value list from the
// registry.
func experimentUsage() string {
	names := make([]string, 0, len(registry)+1)
	for _, e := range registry {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), "|")
}

func main() {
	var f benchFlags
	which := flag.String("experiment", "all", experimentUsage())
	flag.StringVar(&f.workers, "workers", "1,2,4,8",
		"comma-separated worker counts for -experiment farm and fanout")
	flag.StringVar(&f.progs, "progs", "wget",
		"comma-separated corpus programs for -experiment campaign, campaign-engine and obs")
	flag.IntVar(&f.mutants, "mutants", 512,
		"mutant budget for -experiment campaign-engine and coldcover (coldcover default: 96)")
	flag.IntVar(&f.n, "n", 105, "program budget for -experiment corpus")
	flag.IntVar(&f.seeds, "seeds", 5, "seeds per family for -experiment coldcover")
	flag.IntVar(&f.checkers, "checkers", 4, "composed checksum-network size for -experiment coldcover")
	flag.StringVar(&f.families, "families", "",
		"comma-separated generator families for -experiment coldcover (empty = default set)")
	flag.IntVar(&f.jobs, "jobs", 256, "protect jobs per round for -experiment fanout")
	flag.IntVar(&f.unique, "unique", 32, "unique modules for -experiment fanout")
	flag.StringVar(&f.tbOut, "tb-out", "BENCH_tb.json",
		"output path of -experiment difftest's engine-throughput record")
	flag.Parse()
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "mutants" {
			f.mutantsSet = true
		}
	})

	var err error
	switch {
	case *which == "all":
		for _, e := range registry {
			if !e.inAll {
				continue
			}
			if err = e.run(f); err != nil {
				break
			}
		}
	default:
		found := false
		for _, e := range registry {
			if e.name == *which {
				err = e.run(f)
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s)\n", *which, experimentUsage())
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "parallax-bench:", err)
		os.Exit(1)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func fig6() error {
	header("Figure 6 — protectable code bytes (strict% / compositional%)")
	rows, err := experiment.Fig6()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %8s %10s %8s %14s %14s %14s\n",
		"program", "text", "existing", "far-ret", "imm-mod", "jump-mod", "any")
	for _, r := range rows {
		fmt.Printf("%-8s %8d %9.1f%% %7.1f%% %6.1f%%/%5.1f%% %6.1f%%/%5.1f%% %6.1f%%/%5.1f%%\n",
			r.Program, r.TextBytes, r.Existing, r.FarRet,
			r.ImmMod, r.ImmModReach, r.JumpMod, r.JumpModReach, r.Any, r.AnyReach)
	}
	fmt.Println("\npaper: existing 3-6%, far-ret <=1%, imm-mod 37-60%, jump-mod 43-84%, any 63-90% (avg 75%)")
	return nil
}

var fig5Cache []experiment.Fig5Row

func fig5Rows() ([]experiment.Fig5Row, error) {
	if fig5Cache != nil {
		return fig5Cache, nil
	}
	rows, err := experiment.Fig5(experiment.Fig5Modes())
	fig5Cache = rows
	return rows, err
}

func fig5a() error {
	header("Figure 5a — function chain slowdown (x native, per call)")
	rows, err := fig5Rows()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-10s %14s %14s %10s\n",
		"program", "strategy", "native cyc", "chain cyc", "slowdown")
	for _, r := range rows {
		fmt.Printf("%-8s %-10s %14.0f %14.0f %9.1fx\n",
			r.Program, r.Mode, r.NativePerCall, r.ChainPerCall, r.Slowdown)
	}
	fmt.Println("\npaper: cleartext 3.7x(gcc)-46.7x(wget); rc4 7.6x(nginx)-64.3x(wget)")
	return nil
}

func fig5b() error {
	header("Figure 5b — whole-program overhead")
	rows, err := fig5Rows()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-10s %10s %8s\n", "program", "strategy", "overhead", "calls")
	for _, r := range rows {
		fmt.Printf("%-8s %-10s %9.2f%% %8d\n", r.Program, r.Mode, r.OverheadPct, r.Calls)
	}
	fmt.Println("\npaper: cleartext 0.1%(gcc)-2.7%(wget); rc4 0.2%-3.7%; always <4%")
	fmt.Println("note: our absolute percentages are larger because the workloads run ~10^4x")
	fmt.Println("fewer cycles than the authors' testbed against similar per-call chain costs;")
	fmt.Println("the confinement property (overhead ∝ verification calls, protected code at")
	fmt.Println("native speed) is what the experiment demonstrates. See EXPERIMENTS.md.")
	return nil
}

func uchain() error {
	header("§V-C ablation — µ-chains vs function chains")
	rows, err := experiment.MuAblation()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %14s %14s %8s %18s\n",
		"program", "func chain cyc", "µ-chain cyc", "ratio", "chain words")
	for _, r := range rows {
		fmt.Printf("%-8s %14.0f %14.0f %7.2fx %10d -> %d\n",
			r.Program, r.FuncPerCall, r.MuPerCall, r.Ratio, r.FuncChainLen, r.MuChainLen)
	}
	fmt.Println("\npaper: µ-chain overhead exceeds function chains by ~2x on average")
	return nil
}

// wurster runs the §VI security matrix on the license-check scenario:
// static patch and split-cache attack against the checksumming baseline
// and against Parallax.
func wurster() error {
	header("§VI/§IX — Wurster split-cache attack matrix")

	// Checksumming baseline.
	m := licenseModule()
	cs, err := checksum.Protect(m, checksum.Options{})
	if err != nil {
		return err
	}
	clean := attack.Run(context.Background(), cs.Image, nil)
	sym := cs.Image.MustSymbol("validate")
	patch := []byte{0xB8, 0x01, 0x00, 0x00, 0x00, 0xC3} // mov eax,1; ret

	static := cs.Image.Clone()
	if err := attack.PatchBytes(static, sym.Addr, patch); err != nil {
		return err
	}
	staticRes := attack.Run(context.Background(), static, nil)

	cpu, err := emu.LoadImage(cs.Image)
	if err != nil {
		return err
	}
	cpu.OS = emu.NewOS(nil)
	attack.Wurster(cpu, sym.Addr, patch)
	wErr := cpu.Run()

	fmt.Printf("%-22s %-24s %s\n", "protection", "attack", "outcome")
	fmt.Printf("%-22s %-24s clean run: status=%d\n", "checksumming", "(none)", clean.Status)
	fmt.Printf("%-22s %-24s %s\n", "checksumming", "static patch",
		describe(staticRes.Status, staticRes.Err, checksum.TamperStatus))
	outcome := "DEFEATED: cracked binary runs as licensed"
	if wErr != nil || cpu.Status == checksum.TamperStatus {
		outcome = "detected"
	}
	fmt.Printf("%-22s %-24s %s (status=%d)\n", "checksumming", "Wurster split-cache",
		outcome, cpu.Status)

	// Parallax.
	prot, err := core.Protect(licenseModuleChainable(), core.Options{
		VerifyFuncs: []string{"validate"},
	})
	if err != nil {
		return err
	}
	pClean := attack.Run(context.Background(), prot.Image, nil)
	g := prot.Chains["validate"].Gadgets()[0]

	pStatic := prot.Image.Clone()
	if err := attack.PatchBytes(pStatic, g.Addr, []byte{0xCC}); err != nil {
		return err
	}
	pStaticRes := attack.Run(context.Background(), pStatic, nil)

	cpu2, err := emu.LoadImage(prot.Image)
	if err != nil {
		return err
	}
	cpu2.OS = emu.NewOS(nil)
	attack.Wurster(cpu2, g.Addr, []byte{0xCC})
	w2Err := cpu2.Run()

	fmt.Printf("%-22s %-24s clean run: status=%d\n", "parallax", "(none)", pClean.Status)
	fmt.Printf("%-22s %-24s %s\n", "parallax", "static patch (gadget)",
		detected(pStaticRes.Status != pClean.Status || pStaticRes.Err != nil))
	fmt.Printf("%-22s %-24s %s (status=%d err=%v)\n", "parallax", "Wurster split-cache",
		detected(w2Err != nil || cpu2.Status != pClean.Status), cpu2.Status, w2Err != nil)
	fmt.Println("\npaper: the Wurster attack defeats all checksumming; Parallax is immune")
	fmt.Println("because its chains *execute* the protected bytes through the fetch path.")
	return nil
}

func describe(status int32, err error, tamper int32) string {
	if status == tamper {
		return fmt.Sprintf("detected (tamper response %d)", tamper)
	}
	if err != nil {
		return "malfunctioned"
	}
	return fmt.Sprintf("NOT detected (status=%d)", status)
}

func detected(d bool) string {
	if d {
		return "detected (malfunction)"
	}
	return "NOT detected"
}

func ohExperiment() error {
	header("§VIII-C — oblivious hashing comparison")
	m := licenseModule()
	p, err := oh.Protect(m, oh.Options{Funcs: []string{"validate"}})
	if err != nil {
		return err
	}
	img, err := oh.Calibrate(p, nil)
	if err != nil {
		return err
	}
	clean := attack.Run(context.Background(), img, nil)
	fmt.Printf("OH clean run:                       status=%d\n", clean.Status)

	// Non-determinism: run the ptrace detector under OH.
	pm := ptraceModule()
	pp, err := oh.Protect(pm, oh.Options{Funcs: []string{"antidebug"}})
	if err != nil {
		return err
	}
	pimg, err := oh.Calibrate(pp, nil)
	if err != nil {
		return err
	}
	cpu, err := emu.LoadImage(pimg)
	if err != nil {
		return err
	}
	cpu.OS = &emu.OS{DebuggerAttached: true}
	if err := cpu.Run(); err != nil {
		return err
	}
	fmt.Printf("OH on ptrace detector, debugger on: status=%d", cpu.Status)
	if cpu.Status == oh.TamperStatus {
		fmt.Println("  <- FALSE ALARM on untampered binary")
	} else {
		fmt.Println()
	}

	// Parallax protects the same non-deterministic control flow: the
	// verification chain runs a pure helper, while the ptrace branch
	// itself carries crafted gadgets.
	prot, err := core.Protect(ptraceModuleChainable(), core.Options{
		VerifyFuncs: []string{"mixcheck"},
	})
	if err != nil {
		return err
	}
	cpu2, err := emu.LoadImage(prot.Image)
	if err != nil {
		return err
	}
	cpu2.OS = &emu.OS{DebuggerAttached: true}
	if err := cpu2.Run(); err != nil {
		return err
	}
	fmt.Printf("Parallax same scenario:             status=%d  <- correct behaviour preserved\n",
		cpu2.Status)
	fmt.Println("\npaper: OH cannot protect code with non-deterministic inputs; Parallax can.")
	return nil
}

// farmExperiment measures the internal/farm batch-protection service:
// the 6-program × 4-mode matrix protected on one farm per worker
// count, cold (empty cache) and warm (content-addressed scan cache +
// layout hints populated by the cold round). Wall-clock numbers —
// host-dependent, unlike the cycle-model experiments above.
func farmExperiment(workers string) error {
	header("farm — concurrent batch protection (jobs/sec, cache hit rate)")
	var counts []int
	for _, f := range strings.Split(workers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -workers value %q", f)
		}
		counts = append(counts, n)
	}
	rows, err := experiment.FarmThroughput(counts, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %5s %11s %11s %11s %11s %9s %10s\n",
		"workers", "jobs", "cold s", "cold j/s", "warm s", "warm j/s", "speedup", "warm hits")
	for _, r := range rows {
		fmt.Printf("%-8d %5d %11.3f %11.1f %11.3f %11.1f %8.2fx %9.1f%%\n",
			r.Workers, r.Jobs, r.ColdSeconds, r.ColdJobsPerSec,
			r.WarmSeconds, r.WarmJobsPerSec, r.WarmSpeedup, 100*r.WarmHitRate)
	}
	fmt.Println("\nwarm round: layout hints give one-pass convergence, so every gadget")
	fmt.Println("scan is served from the content-addressed cache (scans run = 0);")
	fmt.Println("outputs stay byte-identical to sequential core.Protect (tested).")
	fmt.Printf("host parallelism: GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
	return nil
}

// obsExperiment prints the protect pipeline's per-stage wall-time
// breakdown (internal/obs spans): where a protection run spends its
// time, and how many fixpoint passes each stage took. Wall-clock
// numbers vary by host; stage counts and relative shares are stable.
func obsExperiment(progs string) error {
	header("obs — protect-pipeline per-stage timing")
	for _, name := range strings.Split(progs, ",") {
		name = strings.TrimSpace(name)
		rows, rep, err := experiment.PipelineTiming(name, dyngen.ModeStatic)
		if err != nil {
			return err
		}
		fmt.Printf("%s (static chains):\n", name)
		fmt.Printf("  %-14s %6s %12s %12s %7s\n", "stage", "runs", "total", "mean", "share")
		for _, r := range rows {
			fmt.Printf("  %-14s %6d %12s %12s %6.1f%%\n",
				r.Stage, r.Count, r.Total.Round(time.Microsecond),
				r.Mean.Round(time.Microsecond), 100*r.Share)
		}
		if n := rep.Counters["emu.insts"]; n != 0 {
			fmt.Printf("  emulated instructions: %d\n", n)
		}
		fmt.Println()
	}
	fmt.Println("scan and chain-compile repeat once per fixpoint pass (§IV-C: the")
	fmt.Println("layout must converge before chain words can address gadgets).")
	return nil
}

func probExperiment() error {
	header("§V-B — probabilistic chain variants")
	for _, p := range corpus.All() {
		prot, err := core.Protect(p.Build(), core.Options{
			VerifyFuncs:  []string{p.VerifyFunc},
			ChainMode:    dyngen.ModeProb,
			ProbVariants: 4,
		})
		if err != nil {
			return err
		}
		tb := prot.Tables[p.VerifyFunc]
		multi, product := 0, 1.0
		for _, n := range tb.VariantsPerWord {
			if n > 1 {
				multi++
				if product < 1e30 {
					product *= float64(n)
				}
			}
		}
		fmt.Printf("%-8s chain words=%4d  words with |G_i|>1: %4d  distinct subsets ~ %.2e\n",
			p.Name, len(tb.VariantsPerWord), multi, product)
	}
	fmt.Println("\npaper: prod |G_i| distinct gadget subsets checkable by one chain (§V-B)")
	return nil
}

// licenseModule is the wurster/oh scenario program.
func licenseModule() *ir.Module {
	mb := ir.NewModule("license")
	mb.Global("key", []byte{0x21, 0x43, 0x65, 0x87})

	fb := mb.Func("validate", 0)
	k := fb.Load(fb.Addr("key", 0))
	acc := fb.Copy(k)
	i := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	lim := fb.Const(16)
	c := fb.Cmp(ir.ULt, i, lim)
	fb.Br(c, "body", "done")
	fb.Block("body")
	seven := fb.Const(7)
	fb.Assign(acc, fb.Xor(fb.Mul(acc, seven), i))
	one := fb.Const(1)
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp("head")
	fb.Block("done")
	zero0 := fb.Const(0)
	ok := fb.Cmp(ir.Ne, acc, zero0) // embedded key mixes to non-zero
	fb.Br(ok, "good", "bad")
	fb.Block("good")
	fb.Ret(fb.Const(1))
	fb.Block("bad")
	fb.Ret(fb.Const(0))

	fb = mb.Func("main", 0)
	r := fb.Call("validate")
	zero := fb.Const(0)
	c2 := fb.Cmp(ir.Ne, r, zero)
	fb.Br(c2, "licensed", "refused")
	fb.Block("licensed")
	fb.Ret(fb.Const(7))
	fb.Block("refused")
	fb.Ret(fb.Const(13))
	mb.SetEntry("main")
	return mb.MustBuild()
}

// licenseModuleChainable returns the same scenario with validate as a
// chainable leaf.
func licenseModuleChainable() *ir.Module { return licenseModule() }

// ptraceModule is the §IV-A anti-debugging scenario.
func ptraceModule() *ir.Module {
	mb := ir.NewModule("ptrace")
	fb := mb.Func("antidebug", 0)
	req := fb.Const(0)
	r := fb.Syscall(26, req)
	zero := fb.Const(0)
	bad := fb.Cmp(ir.Ne, r, zero)
	fb.Br(bad, "debugged", "clean")
	fb.Block("debugged")
	fb.Ret(fb.Const(1))
	fb.Block("clean")
	fb.Ret(fb.Const(0))

	fb = mb.Func("main", 0)
	d := fb.Call("antidebug")
	hundred := fb.Const(100)
	fb.Ret(fb.Add(d, hundred))
	mb.SetEntry("main")
	return mb.MustBuild()
}

// ptraceModuleChainable adds a pure helper Parallax can chain while the
// syscall-bearing detector itself carries crafted gadgets.
func ptraceModuleChainable() *ir.Module {
	mb := ir.NewModule("ptrace")
	fb := mb.Func("mixcheck", 1)
	v := fb.Param(0)
	acc := fb.Copy(v)
	i := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	lim := fb.Const(12)
	c := fb.Cmp(ir.ULt, i, lim)
	fb.Br(c, "body", "done")
	fb.Block("body")
	five := fb.Const(5)
	fb.Assign(acc, fb.Add(fb.Xor(acc, i), fb.Shl(acc, five)))
	one := fb.Const(1)
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp("head")
	fb.Block("done")
	fb.Ret(acc)

	fb = mb.Func("antidebug", 0)
	req := fb.Const(0)
	r := fb.Syscall(26, req)
	zero := fb.Const(0)
	bad := fb.Cmp(ir.Ne, r, zero)
	fb.Br(bad, "debugged", "clean")
	fb.Block("debugged")
	fb.Ret(fb.Const(1))
	fb.Block("clean")
	fb.Ret(fb.Const(0))

	fb = mb.Func("main", 0)
	d := fb.Call("antidebug")
	mv := fb.Call("mixcheck", d)
	fb.Call("mixcheck", mv)
	hundred := fb.Const(100)
	fb.Ret(fb.Add(d, hundred))
	mb.SetEntry("main")
	return mb.MustBuild()
}

// campaignExperiment sweeps the tamper campaign over the named corpus
// programs and prints each detection-coverage matrix. Wall-clock heavy
// (thousands of emulated mutant runs), so it is excluded from
// -experiment all, like farm.
func campaignExperiment(progs string) error {
	header("campaign — tamper-mutation detection matrix")
	var names []string
	for _, n := range strings.Split(progs, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	results, err := experiment.Campaign(context.Background(), names, campaign.Config{
		Stride:     3,
		MaxMutants: 2048,
		MaxInst:    20_000_000,
	})
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("\n-- %s --\n%s", r.Program, r.Report)
	}
	fmt.Println("\nchain-detected = run faulted inside chain-guarded bytes (or a guarded-site")
	fmt.Println("mutation diverged): the paper's implicit detection. silent = undetected.")
	return nil
}

// campaignEngineExperiment compares the campaign's two execution
// paths — the reference path (interpreter, clone+reload per mutant)
// and the production path (tb, snapshot/restore, fork points, shared
// translation catalog) — on the same enumerated mutant set. Matrices
// must be byte-identical; wall-clock speedups are host-dependent.
func campaignEngineExperiment(progs string, mutants int) error {
	header("campaign-engine — production path (tb) vs reference path (interp clone+reload)")
	var names []string
	for _, n := range strings.Split(progs, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	// The wall-clock watchdog sits far above any mutant's MaxInst run
	// on either engine, so the instruction budget alone decides every
	// timeout cell: a loaded host slows the interpreter's reference leg
	// several times more than tb, and a 2 s default would classify the
	// same mutant differently on the two paths.
	rows, err := experiment.CampaignEngines(context.Background(), names, campaign.Config{
		Stride:     3,
		MaxMutants: mutants,
		MaxInst:    20_000_000,
		Timeout:    time.Minute,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %8s %10s %10s %9s %7s %10s\n",
		"program", "mutants", "reload-s", "tb-s", "speedup", "cat-hit", "matrix")
	for _, r := range rows {
		eq := "IDENTICAL"
		if !r.MatrixEqual {
			eq = "DIVERGED"
		}
		fmt.Printf("%-8s %8d %10.3f %10.3f %8.2fx %6.1f%% %10s\n",
			r.Program, r.Mutants, r.ReloadSeconds, r.TBSeconds,
			r.Speedup, 100*r.CatalogHitRate, eq)
		if !r.MatrixEqual {
			return fmt.Errorf("campaign-engine: %s detection matrices diverged between paths", r.Program)
		}
	}
	fmt.Println("\nspeedup = reference path (interp clone+reload) over production path (tb).")
	fmt.Println("cat-hit = catalog adoptions over block lookups: mutants re-translate only")
	fmt.Println("the blocks their patch touched and adopt the rest from other workers.")
	fmt.Println("Classifications are differentially tested to match on both paths.")
	return nil
}

func difftestExperiment(progs, out string) error {
	header("difftest — differential oracle engine throughput")
	var names []string
	for _, n := range strings.Split(progs, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	rows, err := experiment.Difftest(names, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %10s %12s %12s %12s %12s %10s %11s\n",
		"program", "insts", "interp i/s", "ref i/s", "tb i/s", "lockstep i/s", "tb/interp", "divergences")
	for _, r := range rows {
		fmt.Printf("%-8s %10d %12.0f %12.0f %12.0f %12.0f %9.2fx %11d\n",
			r.Program, r.Insts, r.FastIPS, r.RefIPS, r.TBIPS, r.LockstepIPS,
			r.TBSpeedup(), r.Divergences)
		if r.Divergences != 0 {
			return fmt.Errorf("difftest: %s diverged between engines", r.Program)
		}
	}
	if err := writeBenchTB(rows, out); err != nil {
		return err
	}
	fmt.Println("\nthe interpreter's lead over the SDM-pseudocode reference is the decode")
	fmt.Println("cache and branch-free flag formulas; the tb column is the translation-")
	fmt.Println("block engine (translate once, chain blocks, materialize flags lazily).")
	fmt.Println("Lockstep adds a full three-way state comparison per retired instruction.")
	fmt.Println("Rates vary by host; the divergence column must read zero (ci.sh gates")
	fmt.Printf("on it). Machine-readable rates land in %s.\n", out)
	return nil
}

// corpusExperiment is the corpus-at-scale sweep: n generated programs
// (families × seeds, 16 KiB–4 MiB) through protect → tamper → detect,
// aggregated into p10/p50/p90 distributions — the Figure 5/6 analogues
// measured over a population — plus the reference-vs-production path
// table on the big images. Detection rates, overheads and matrix
// fingerprints come from deterministic machinery (re-running
// reproduces them bit for bit, on either path); only the *seconds
// columns vary by host.
func corpusExperiment(n int) error {
	header(fmt.Sprintf("corpus — generated-family sweep (n=%d)", n))
	// Below full scale (the ci.sh smoke runs -n 8) the sweep still
	// exercises every stage and every hard gate, but the recorded
	// BENCH_corpus.json is left to full-scale runs and the path table
	// skips the minutes-scale MiB families.
	full := n == 0 || n >= 100
	rep, err := experiment.CorpusSweep(context.Background(), experiment.CorpusOptions{
		N: n,
		Progress: func(done, total int, name string) {
			fmt.Fprintf(os.Stderr, "\r[%3d/%3d] %-24s", done, total, name)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		},
	})
	if err != nil {
		return err
	}

	fmt.Println("\nper-family distributions (p10/p50/p90 over seeds):")
	fmt.Printf("%-10s %7s %3s %17s %17s %17s %17s %15s\n",
		"family", "kib", "n", "guarded-chain%", "detected%", "cold-text%", "overhead%", "protect-s p50")
	dist := func(d experiment.Dist, scale float64) string {
		return fmt.Sprintf("%5.1f/%5.1f/%5.1f", scale*d.P10, scale*d.P50, scale*d.P90)
	}
	for _, f := range append(rep.Families, rep.Overall) {
		fmt.Printf("%-10s %7d %3d %17s %17s %17s %17s %15.3f\n",
			f.Family, f.CodeKiB, f.N,
			dist(f.GuardedChainRate, 100), dist(f.DetectedRate, 100),
			dist(f.ColdDetectedRate, 100), dist(f.OverheadPct, 1),
			f.ProtectSeconds.P50)
	}
	fmt.Printf("\npath cross-checks: %d matrices re-derived on the reference path, all identical\n",
		rep.CrossChecks)

	fmt.Println("\npath table on generated images (reference: interp reload / production: tb snap):")
	var engineFams []string // nil = small/medium/huge
	if !full {
		engineFams = []string{"small"}
	}
	engRows, err := experiment.CorpusEngines(context.Background(), engineFams, 1, 0, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %9s %8s %10s %10s %9s %7s %10s\n",
		"family", "text", "mutants", "reload-s", "tb-s", "speedup", "cat-hit", "matrix")
	for _, r := range engRows {
		eq := "IDENTICAL"
		if !r.MatrixEqual {
			eq = "DIVERGED"
		}
		fmt.Printf("%-8s %9d %8d %10.3f %10.3f %8.2fx %6.1f%% %10s\n",
			r.Family, r.TextBytes, r.Mutants, r.InterpReloadSeconds,
			r.TBSnapSeconds, r.Speedup, 100*r.CatalogHitRate, eq)
		if !r.MatrixEqual {
			return fmt.Errorf("corpus: %s detection matrices diverged between paths", r.Family)
		}
	}

	if full {
		if err := writeBenchCorpus(rep, engRows); err != nil {
			return err
		}
	} else {
		fmt.Println("\nsmoke scale (n < 100): BENCH_corpus.json left to full-scale runs")
	}
	fmt.Println("\ndetection columns are deterministic per (family, seed, params-hash);")
	fmt.Println("seconds columns are host wall clock. The production path's win grows with")
	fmt.Println("image size relative to workload length — see EXPERIMENTS.md for the")
	fmt.Println("distribution discussion and where each effect appears or vanishes.")
	return nil
}

// writeBenchCorpus records the sweep machine-readably: every program
// record (seed + params hash + matrix fingerprint), the per-family
// percentile distributions, and the big-image path table.
func writeBenchCorpus(rep *experiment.CorpusReport, engines []experiment.CorpusEngineRow) error {
	out := struct {
		*experiment.CorpusReport
		EngineTable []experiment.CorpusEngineRow `json:"engine_table"`
	}{rep, engines}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_corpus.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote BENCH_corpus.json")
	return nil
}

// coldcoverExperiment measures the cold-text detection blind spot and
// its two mitigations as a 2×2 campaign matrix per generated program:
// {idle, heavy} workload × {plain, §VI-C composed} protection. Two
// hard gates run at every scale: the idle and heavy matrices of the
// same image must differ (the workload actually changes what executes),
// and cold detection in the heavy/composed cell must beat the
// idle/plain cell at the median. Full scale (default -seeds and
// -families) additionally records BENCH_coldcover.json.
func coldcoverExperiment(families string, seeds, checkers, mutants int) error {
	header(fmt.Sprintf("coldcover — cold-text detection: workload × composition (seeds=%d, checkers=%d)",
		seeds, checkers))
	var fams []string
	for _, f := range strings.Split(families, ",") {
		if f = strings.TrimSpace(f); f != "" {
			fams = append(fams, f)
		}
	}
	full := len(fams) == 0 && seeds >= 5
	rep, err := experiment.ColdCoverSweep(context.Background(), experiment.ColdCoverOptions{
		Families: fams,
		Seeds:    seeds,
		Checkers: checkers,
		Mutants:  mutants,
		Progress: func(done, total int, name string) {
			fmt.Fprintf(os.Stderr, "\r[%3d/%3d] %-24s", done, total, name)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		},
	})
	if err != nil {
		return err
	}

	fmt.Println("\ncold-text detection rate, p10/p50/p90 over seeds (% of cold-region mutants):")
	fmt.Printf("%-10s %3s %17s %17s %17s %17s %10s %10s\n",
		"family", "n", "idle/plain", "heavy/plain", "idle/composed", "heavy/composed", "covered%", "overhead%")
	// Detection rates live as 0..1 fractions in the report; the table
	// and the gates talk percentages.
	dist := func(d experiment.Dist) string {
		return fmt.Sprintf("%5.1f/%5.1f/%5.1f", 100*d.P10, 100*d.P50, 100*d.P90)
	}
	for _, f := range append(rep.Families, rep.Overall) {
		fmt.Printf("%-10s %3d %17s %17s %17s %17s %10.1f %10.2f\n",
			f.Family, f.N,
			dist(f.ColdIdlePlain), dist(f.ColdHeavyPlain),
			dist(f.ColdIdleComposed), dist(f.ColdHeavyComposed),
			f.CoveredPct.P50, f.ComposedOverheadPct.P50)
	}
	fmt.Printf("\npath cross-checks: %d heavy/composed matrices re-derived on the reference path, all identical\n",
		rep.CrossChecks)

	// Gate 1: on the plain image the workload must actually change the
	// detection matrix — identical idle and heavy matrices mean the
	// heavy profile never reached cold code. The composed image is
	// exempt: once the network covers every cold byte, both workloads
	// legitimately converge on the same (fully detecting) matrix. In
	// its place the composed image must lift the idle cell without any
	// cold execution: the checkers hash cold bytes the chains never run.
	for _, p := range rep.Programs {
		var idleFP, heavyFP string
		for _, c := range p.Cells {
			if c.Composed {
				continue
			}
			if c.Workload == "idle" {
				idleFP = c.MatrixFP
			} else {
				heavyFP = c.MatrixFP
			}
		}
		if idleFP == heavyFP {
			return fmt.Errorf("coldcover: %s: idle and heavy workloads produced identical plain matrices %s — workload not reaching cold code",
				p.Name, idleFP)
		}
		plainIdle := p.Cell("idle", false).ColdDetectedRate
		compIdle := p.Cell("idle", true).ColdDetectedRate
		if compIdle <= plainIdle {
			return fmt.Errorf("coldcover: %s: composed idle cold rate %.1f%% not above plain idle %.1f%% — network not detecting statically",
				p.Name, 100*compIdle, 100*plainIdle)
		}
	}
	fmt.Println("workload gate: every plain idle/heavy matrix pair differs, every composed network lifts the idle cold rate")

	// Gate 2: the blind spot must actually close at the median.
	before, after := rep.Overall.ColdIdlePlain.P50, rep.Overall.ColdHeavyComposed.P50
	if after <= before {
		return fmt.Errorf("coldcover: cold detection did not rise: idle/plain p50 %.1f%% vs heavy/composed p50 %.1f%%",
			100*before, 100*after)
	}
	fmt.Printf("coverage gate: cold detection p50 %.1f%% (idle/plain) -> %.1f%% (heavy/composed)\n",
		100*before, 100*after)

	if full {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_coldcover.json", append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("\nwrote BENCH_coldcover.json")
	} else {
		fmt.Println("\nsmoke scale: BENCH_coldcover.json left to full-scale runs (default -seeds/-families)")
	}
	fmt.Println("\ndetection columns are deterministic per (family, seed, params-hash, workload);")
	fmt.Println("overhead% is the composed network's hashing cost under the heavy workload")
	fmt.Println("(cycle model). The composed checkers remain checksums: the Wurster split-")
	fmt.Println("cache attack still defeats that half of the composition (see EXPERIMENTS.md).")
	return nil
}

// fanoutExperiment is the farm fan-out stress: -jobs protect jobs over
// -unique distinct generated modules, one fresh farm per -workers
// count. Hard gates: no failed jobs, byte-identical outputs for
// identical inputs across all rounds, and a scan-miss ceiling of
// unique × workers (the cache can double-scan a module only while its
// first submissions race). Throughput numbers are host wall clock.
func fanoutExperiment(jobs, unique int, workers string) error {
	header(fmt.Sprintf("fanout — farm stress: %d protect jobs, %d unique modules", jobs, unique))
	var counts []int
	for _, f := range strings.Split(workers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -workers value %q", f)
		}
		counts = append(counts, n)
	}
	rep, err := experiment.FarmFanout(context.Background(), experiment.FanoutOptions{
		Jobs: jobs, Unique: unique, Workers: counts,
		Progress: func(round, rounds, w int) {
			fmt.Fprintf(os.Stderr, "\r[%d/%d] workers=%d", round, rounds, w)
			if round == rounds {
				fmt.Fprintln(os.Stderr)
			}
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %6s %6s %10s %10s %9s %11s %10s\n",
		"workers", "done", "failed", "scan-hit", "hint-hit", "seconds", "jobs/s", "output")
	for _, r := range rep.Rounds {
		hintRate := 0.0
		if t := r.HintHits + r.HintMisses; t > 0 {
			hintRate = float64(r.HintHits) / float64(t)
		}
		fmt.Printf("%-8d %6d %6d %9.1f%% %9.1f%% %9.3f %11.1f %10s\n",
			r.Workers, r.Completed, r.Failed, 100*r.ScanHitRate, 100*hintRate,
			r.Seconds, r.JobsPerSecond, r.OutputFP)
		if r.Failed != 0 {
			return fmt.Errorf("fanout: %d jobs failed at workers=%d", r.Failed, r.Workers)
		}
		if ceiling := uint64(unique * r.Workers); r.ScanMisses > ceiling {
			return fmt.Errorf("fanout: workers=%d: %d scan misses exceed the %d ceiling (unique × workers)",
				r.Workers, r.ScanMisses, ceiling)
		}
	}
	if !rep.Deterministic {
		return fmt.Errorf("fanout: identical inputs produced differing protected images across rounds")
	}
	fmt.Printf("\nall rounds produced byte-identical images per module (fingerprint column);\n")
	fmt.Printf("min scan-cache hit rate %.1f%%. Throughput varies by host (GOMAXPROCS=%d).\n",
		100*rep.MinScanHitRate, runtime.GOMAXPROCS(0))
	return nil
}

// writeBenchTB records the engine-throughput comparison in the
// machine-readable file at path (BENCH_tb.json by default): per-program
// insts/s for all three engines plus the tb-over-interpreter speedup
// ratio.
func writeBenchTB(rows []experiment.DifftestRow, path string) error {
	type rec struct {
		Program     string  `json:"program"`
		Insts       uint64  `json:"insts"`
		InterpIPS   float64 `json:"interp_ips"`
		RefIPS      float64 `json:"ref_ips"`
		TBIPS       float64 `json:"tb_ips"`
		TBSpeedup   float64 `json:"tb_speedup"`
		Divergences int     `json:"divergences"`
	}
	out := make([]rec, 0, len(rows))
	for _, r := range rows {
		out = append(out, rec{
			Program:     r.Program,
			Insts:       r.Insts,
			InterpIPS:   r.FastIPS,
			RefIPS:      r.RefIPS,
			TBIPS:       r.TBIPS,
			TBSpeedup:   r.TBSpeedup(),
			Divergences: r.Divergences,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}
