package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"parallax/internal/attack"
	"parallax/internal/campaign"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/emu"
	"parallax/internal/emu/tb"
	"parallax/internal/farm"
	"parallax/internal/image"
	"parallax/internal/obs"
)

// targetSpec is one campaign target before set-up.
type targetSpec struct {
	prog     corpus.Program
	workload string // stdin profile: "idle" or "heavy"
	stride   int    // byte step between mutation sites
}

// campaignSpec is a campaign workload's seeded input.
type campaignSpec struct {
	targets []targetSpec
}

// coldSpec draws campaign-cold's inputs from the seed: generated
// images of the small (160 KiB) and callheavy (64 KiB) families under
// the heavy stdin profile, which makes cold bodies execute late in each
// run, with seed-picked mutation strides. The images are fixed
// generator seeds: drawing them from the workload seed moved mutants/s
// by ±25% and the cycle overhead by ±20% between seeds, because each
// image has its own run length and hot set.
//
// Strides are odd. An even stride keeps landing on the same byte of
// 4-byte-aligned chain words and code: on wget, stride 20 cost 2.42M
// instructions per mutant and stride 23 1.65M, where odd strides 9 to
// 15 all sat within 2% of 1.64M. A stride sweep keeps every mutation
// kind at every site; capping a denser sweep instead keeps every k-th
// (site, kind) entry, which aliases with the kind order. The strides
// are sparse (about 480 mutants over both targets) so one pass takes
// two to three seconds and a run makes fifteen or more of them.
func coldSpec(seed uint64) (campaignSpec, error) {
	r := rand.New(rand.NewPCG(seed, 0x63616d706169676e))
	var ts []targetSpec
	for _, t := range []struct {
		family string
		stride int
	}{{"small", 2801}, {"callheavy", 2201}} {
		fam, err := gen.FamilyByName(t.family)
		if err != nil {
			return campaignSpec{}, err
		}
		p, err := gen.FamilyProgram(fam, 1)
		if err != nil {
			return campaignSpec{}, err
		}
		ts = append(ts, targetSpec{p, "heavy", t.stride + 2*r.IntN(t.stride/8)})
	}
	return campaignSpec{targets: ts}, nil
}

// target is a protected campaign target with its campaign
// configuration and reference-run results.
type target struct {
	mod                    module
	prot                   *core.Protected
	cfg                    campaign.Config
	protCycles, baseCycles uint64
}

// mutantTimeout is the per-mutant wall-clock watchdog. It sits far
// above the slowest instruction-bounded mutant (MaxInst at interpreter
// speed is under 2 s for every target), so the instruction budget alone
// decides the timeout class and a watchdog trip is a failure of the
// run, never a verdict.
const mutantTimeout = 60 * time.Second

// campaignConfig is the production campaign configuration the
// workloads measure: tb engine, snapshot/restore, the campaign's shared
// catalog, one worker per CPU, every mutation kind, no cap on the
// stride sweep.
func campaignConfig(workers, stride int, stdin []byte, cleanInsts uint64) campaign.Config {
	return campaign.Config{
		Workers: workers, Engine: "tb", Stride: stride, MaxMutants: 1 << 30,
		Stdin: stdin, MaxInst: 4 * cleanInsts, Timeout: mutantTimeout,
	}
}

// prepare is a campaign workload's set-up: build the target modules,
// protect them through a farm, and run each protected image and its
// baseline once (the reference runs size the instruction budget and give
// the overhead). Checks that fail are returned as problems.
func prepare(ctx context.Context, rc runConfig, spec campaignSpec, tr *tracer, freg *obs.Registry) ([]target, []job, []string, error) {
	mods := make([]module, len(spec.targets))
	stream := make([]int, len(spec.targets))
	for i, t := range spec.targets {
		stdin, ok := t.prog.Workload(t.workload)
		if !ok {
			return nil, nil, nil, fmt.Errorf("%s has no %q workload", t.prog.Name, t.workload)
		}
		mods[i] = buildModule(t.prog, stdin)
		stream[i] = i
	}
	f := farm.New(farm.Config{Workers: rc.workers, Obs: freg})
	jobs, _ := protectStream(ctx, f, mods, stream, rc.workers, tr)
	f.Close()
	var problems []string
	tgts := make([]target, len(jobs))
	for i, j := range jobs {
		if j.res.Err != nil {
			return nil, nil, nil, fmt.Errorf("protecting %s: %w", mods[i].name, j.res.Err)
		}
		p := j.res.Protected
		prot, err := cleanRun(ctx, p.Image, mods[i].stdin)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: protected reference run: %w", mods[i].name, err)
		}
		base, err := cleanRun(ctx, p.Baseline, mods[i].stdin)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: baseline reference run: %w", mods[i].name, err)
		}
		if prot.Status != base.Status || prot.Stdout != base.Stdout {
			problems = append(problems, fmt.Sprintf("%s: protected run (status %d) differs from baseline (status %d)",
				mods[i].name, prot.Status, base.Status))
		}
		tgts[i] = target{
			mod: mods[i], prot: p,
			cfg:        campaignConfig(rc.workers, spec.targets[i].stride, mods[i].stdin, prot.Icount),
			protCycles: prot.cycles, baseCycles: base.cycles,
		}
	}
	return tgts, jobs, problems, nil
}

// fingerprint identifies a campaign's detection matrix.
func fingerprint(rep *campaign.Report) [32]byte { return sha256.Sum256([]byte(rep.String())) }

// runCampaign is the campaign-cold workload.
func runCampaign(ctx context.Context, rc runConfig, spec campaignSpec) (*outcome, error) {
	out := &outcome{}
	var tr *tracer
	var freg *obs.Registry
	if rc.trace {
		tr, freg = newTracer(), obs.NewRegistry()
	}
	var tgts []target
	var jobs []job
	var problems []string
	setup, err := repeatSetup(rc, func() error {
		var err error
		tgts, jobs, problems, err = prepare(ctx, rc, spec, tr, freg)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.problems = append(out.problems, problems...)

	var protBytes, baseBytes, protCycles, baseCycles float64
	for _, t := range tgts {
		protBytes += float64(imageSize(t.prot.Image))
		baseBytes += float64(imageSize(t.prot.Baseline))
		protCycles += float64(t.protCycles)
		baseCycles += float64(t.baseCycles)
	}
	if rc.trace {
		protectLayerMetrics(out, jobs, freg)
		if err := traceCampaign(ctx, out, tgts, tr); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := timeCampaign(ctx, rc, out, tgts); err != nil {
		return nil, err
	}
	out.set("setup_s", setup, "s")
	out.set("protected_size_ratio", ratio(protBytes, baseBytes), "ratio")
	out.set("overhead_pct", 100*ratio(protCycles-baseCycles, baseCycles), "%")
	return out, nil
}

// timeCampaign runs passes over every target, tracing off: at least
// two, so the matrices can be compared across repeats, and more while
// another pass of the mean length so far still fits in the measuring
// time. ops_per_s is one pass's mutants over the sum of each target's
// fastest campaign.Run wall time. On a shared host, interference from
// other tenants only ever slows a pass: identical passes of one target
// swung by up to 2× within minutes on a 2-vCPU Xeon guest, with process
// CPU time tracking wall time and no steal, so the host's speed, not
// the program's, decided a median over passes. The fastest pass is the
// one closest to the program's own cost.
func timeCampaign(ctx context.Context, rc runConfig, out *outcome, tgts []target) error {
	type repeat struct {
		print    [32]byte
		timeouts int
		clean    bool // no panics or infra errors
		mutants  int
		detected float64 // percent
		wall     time.Duration
	}
	reps := make([][]repeat, len(tgts))
	var elapsed time.Duration
	for pass := 0; pass < 2 || elapsed+elapsed/time.Duration(pass) <= rc.seconds; pass++ {
		for i, t := range tgts {
			runtime.GC() // as in protect-batch: each run starts from a collected heap
			t0 := time.Now()
			rep, err := campaign.Run(ctx, t.prot, t.cfg)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("campaign on %s: %w", t.mod.name, err)
			}
			elapsed += d
			out.attempted += rep.Mutants
			out.failed += rep.Panics + rep.InfraErrors
			reps[i] = append(reps[i], repeat{
				print: fingerprint(rep), timeouts: rep.Totals().Timeout, clean: rep.Panics+rep.InfraErrors == 0,
				mutants: rep.Mutants, detected: 100 * rep.Totals().DetectedRate(), wall: d,
			})
		}
	}
	n, fastest := 0, time.Duration(0)
	for i, t := range tgts {
		var walls []string
		best := reps[i][0].wall
		for _, r := range reps[i] {
			walls = append(walls, fmt.Sprintf("%.3fs", r.wall.Seconds()))
			best = min(best, r.wall)
		}
		n += reps[i][0].mutants
		fastest += best
		out.note("target %s: stride %d, %d mutants, %.1f%% detected, passes %v",
			t.mod.name, t.cfg.Stride, reps[i][0].mutants, reps[i][0].detected, walls)
	}
	// The instruction budget decides timeouts identically in every
	// repeat, so a repeat with more timeouts than the fewest seen had
	// wall-clock watchdog trips: those count as failures, and only the
	// repeats without them must agree.
	for i, rs := range reps {
		least := rs[0].timeouts
		for _, r := range rs {
			least = min(least, r.timeouts)
		}
		var want *[32]byte
		for _, r := range rs {
			out.failed += r.timeouts - least
			if r.timeouts != least || !r.clean {
				continue
			}
			if want == nil {
				want = &r.print
			} else if r.print != *want {
				out.fail("%s: detection matrix differs across repeats of one seed", tgts[i].mod.name)
				break
			}
		}
	}
	out.set("ops_per_s", float64(n)/fastest.Seconds(), "1/s")
	return nil
}

// traceCampaign is the traced run of a campaign workload. Per target it
// runs campaign.Run untraced, campaign.Run with Config.Obs, and the
// traced replay, then checks that the replay did the campaign's work.
func traceCampaign(ctx context.Context, out *outcome, tgts []target, tr *tracer) error {
	ct := &campaignTrace{run: obs.NewRegistry(), replay: obs.NewRegistry()}
	var traced time.Duration
	for _, t := range tgts {
		t0 := time.Now()
		plain, err := campaign.Run(ctx, t.prot, t.cfg)
		ct.plain += time.Since(t0)
		if err != nil {
			return fmt.Errorf("campaign on %s: %w", t.mod.name, err)
		}
		ocfg := t.cfg
		ocfg.Obs = ct.run
		rep, err := campaign.Run(ctx, t.prot, ocfg)
		if err != nil {
			return fmt.Errorf("campaign on %s: %w", t.mod.name, err)
		}
		if fingerprint(plain) != fingerprint(rep) {
			out.fail("%s: detection matrix differs between untraced and observed campaign runs", t.mod.name)
		}
		tot := rep.Totals()
		ct.mutants += rep.Mutants
		ct.measured += tot.Total - tot.Infra
		ct.silent += tot.Silent
		out.attempted += plain.Mutants + rep.Mutants
		out.failed += plain.Panics + plain.InfraErrors + rep.Panics + rep.InfraErrors

		t0 = time.Now()
		dirty, err := replay(ctx, t.prot, t.cfg, tr, ct.replay)
		traced += time.Since(t0)
		if err != nil {
			return fmt.Errorf("replaying campaign on %s: %w", t.mod.name, err)
		}
		ct.dirty = append(ct.dirty, dirty...)
	}
	ct.spans = tr.snapshot()
	out.spans = ct.spans

	run, rp := ct.run.Snapshot().Counters, ct.replay.Snapshot().Counters
	out.failed += int(run["emu.watchdog_trips"] + rp["emu.watchdog_trips"])
	for _, c := range []string{"emu.insts", "emu.restores"} {
		if run[c] != rp[c] {
			out.fail("replay %s = %d, campaign.Run recorded %d", c, rp[c], run[c])
		}
	}
	if l, r := rp["emu.tb.translations"]+rp["emu.tb.catalog_hits"], rp["emu.tb.invalidations"]+rp["emu.tb.flushes"]; l != r {
		out.fail("replay tb: translations + catalog_hits = %d, invalidations + flushes = %d", l, r)
	}
	campaignLayerMetrics(out, ct)
	out.set("trace.overhead_s", (traced - ct.plain).Seconds(), "s")
	return nil
}

// campaignTrace is what a traced campaign run measured.
type campaignTrace struct {
	spans       []span
	run, replay *obs.Registry // campaign.Run's Config.Obs, and the replay's
	plain       time.Duration // untraced campaign.Run wall time
	mutants     int
	measured    int // mutants minus infra-error cells
	silent      int
	dirty       []float64 // dirty pages per restore
}

// campaignLayerMetrics reports the campaign, emu and tb layers; ct nil
// (protect-batch, which does not run them) reports zeros.
func campaignLayerMetrics(out *outcome, ct *campaignTrace) {
	if ct == nil {
		ct = &campaignTrace{}
	}
	run, rp := ct.run.Snapshot().Counters, ct.replay.Snapshot().Counters
	self := func(name string) float64 { return selfTime(ct.spans, name).Seconds() }
	exec := seconds(durations(ct.spans, "tb.execute"))
	insts := float64(run["emu.insts"])

	out.set("campaign.enumerate_s", self("campaign.enumerate"), "s")
	out.set("campaign.clean_run_s", self("campaign.clean_run"), "s")
	out.set("campaign.loader_path_s", self("campaign.loader_path"), "s")
	out.set("campaign.mutants", float64(ct.mutants), "count")
	out.set("campaign.detected_pct", 100*ratio(float64(ct.measured-ct.silent), float64(ct.measured)), "%")

	out.set("emu.load_snapshot_s", self("emu.load_snapshot"), "s")
	out.set("emu.restore_s", self("emu.restore"), "s")
	out.set("emu.patch_s", self("emu.patch"), "s")
	out.set("emu.dirty_pages_p50", median(ct.dirty), "count")
	out.set("emu.insts", insts, "count")
	out.set("emu.insts_per_mutant", ratio(insts, float64(ct.mutants)), "count")
	out.set("emu.insts_per_s", ratio(insts, ct.plain.Seconds()), "1/s")
	out.set("emu.inst_limit_trips", float64(run["emu.inst_limit_trips"]), "count")
	out.set("emu.faults", float64(run["emu.faults"]), "count")
	out.set("emu.watchdog_trips", float64(run["emu.watchdog_trips"]), "count")

	hits, misses := float64(rp["emu.tb.catalog_hits"]), float64(rp["emu.tb.catalog_misses"])
	out.set("tb.execute_s", self("tb.execute"), "s")
	out.set("tb.execute_p50_ms", 1000*percentile(exec, 0.5), "ms")
	out.set("tb.execute_p90_ms", 1000*percentile(exec, 0.9), "ms")
	out.set("tb.translations", float64(rp["emu.tb.translations"]), "count")
	out.set("tb.catalog_hits", hits, "count")
	out.set("tb.catalog_hit_ratio", ratio(hits, hits+misses), "ratio")
	out.set("tb.chain_hits", float64(rp["emu.tb.chain_hits"]), "count")
	out.set("tb.invalidations", float64(rp["emu.tb.invalidations"]), "count")
	out.set("tb.flushes", float64(rp["emu.tb.flushes"]), "count")
}

// replay re-does one campaign's snapshot path from the public calls,
// with a span around each: the clean run, Enumerate, per worker
// LoadImageWith + Snapshot + tb.NewWithCatalog on one shared catalog,
// then per mutant Restore → Patch → attack.RunWith on the reused CPU,
// or the loader path (image.ReadFrom, fresh load and run) for
// serialized-form mutants. It mirrors campaign.Run step for step, so
// its instruction and restore totals must equal the ones campaign.Run
// records into Config.Obs. It returns the dirty-page count of every
// restore.
func replay(ctx context.Context, prot *core.Protected, cfg campaign.Config, tr *tracer, reg *obs.Registry) ([]float64, error) {
	cat := tb.NewCatalog()
	runCfg := attack.RunConfig{Stdin: cfg.Stdin, MaxInst: cfg.MaxInst, Obs: reg, Engine: "tb", Catalog: cat}
	id := tr.begin("campaign.clean_run", 0, 0)
	clean := attack.RunWith(ctx, prot.Image, runCfg)
	tr.end(id)
	if clean.Err != nil {
		return nil, fmt.Errorf("clean run: %w", clean.Err)
	}
	id = tr.begin("campaign.enumerate", 0, 0)
	mutants, err := campaign.Enumerate(prot, cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	stream, err := imageBytes(prot.Image)
	if err != nil {
		return nil, err
	}
	restores := reg.Counter("emu.restores")

	var mu sync.Mutex
	var dirty []float64
	var firstErr error
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tr.begin("emu.load_snapshot", 0, 0)
			cpu, err := emu.LoadImageWith(prot.Image, emu.LoadConfig{})
			var snap *emu.Snapshot
			var eng *tb.Engine
			if err == nil {
				snap = cpu.Snapshot()
				eng = tb.NewWithCatalog(cpu, reg, cat)
				defer eng.Close()
			}
			tr.end(id)
			for i := range next {
				if err != nil {
					continue // drain; the load error is reported below
				}
				run := tr.newRun()
				m := mutants[i]
				mid := tr.begin("campaign.mutant", 0, run)
				if m.Kind == campaign.KindSerial {
					sid := tr.begin("campaign.loader_path", mid, run)
					if img, rerr := image.ReadFrom(bytes.NewReader(corruptSerial(stream, m))); rerr == nil {
						mctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
						attack.RunWith(mctx, img, runCfg)
						cancel()
					}
					tr.end(sid)
					tr.end(mid)
					continue
				}
				rid := tr.begin("emu.restore", mid, run)
				st := cpu.Restore(snap)
				tr.end(rid)
				restores.Inc()
				mu.Lock()
				dirty = append(dirty, float64(st.DirtyPages))
				mu.Unlock()
				pid := tr.begin("emu.patch", mid, run)
				perr := patch(prot.Image, cpu, m)
				tr.end(pid)
				if perr == nil {
					xid := tr.begin("tb.execute", mid, run)
					mctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
					rc := runCfg
					rc.CPU, rc.Exec = cpu, eng
					attack.RunWith(mctx, prot.Image, rc)
					cancel()
					tr.end(xid)
				}
				tr.end(mid)
			}
			if err != nil {
				mu.Lock()
				firstErr = err
				mu.Unlock()
			}
		}()
	}
	for i := range mutants {
		next <- i
	}
	close(next)
	wg.Wait()
	return dirty, firstErr
}

// patch applies a mutant to a rewound CPU the way the campaign's
// snapshot path does: the patch bytes are derived from the base image
// and must lie within one section's initialized data.
func patch(base *image.Image, cpu *emu.CPU, m campaign.Mutant) error {
	var b []byte
	switch m.Kind {
	case campaign.KindBitFlip:
		raw, err := base.ReadAt(m.Addr, 1)
		if err != nil {
			return err
		}
		b = []byte{raw[0] ^ 1<<m.Bit}
	case campaign.KindByteSet:
		b = []byte{0xCC}
	case campaign.KindNopSweep:
		b = bytes.Repeat([]byte{0x90}, m.Len)
	default:
		return fmt.Errorf("cannot patch %v in memory", m.Kind)
	}
	s := base.SectionAt(m.Addr)
	if s == nil || m.Addr-s.Addr+uint32(len(b)) > uint32(len(s.Data)) {
		return fmt.Errorf("patch at %#x outside initialized data", m.Addr)
	}
	return cpu.Patch(m.Addr, b)
}

// corruptSerial applies a serialized-form mutant to the image stream.
func corruptSerial(stream []byte, m campaign.Mutant) []byte {
	if m.Truncate {
		return append([]byte(nil), stream[:min(int(m.Addr), len(stream))]...)
	}
	out := append([]byte(nil), stream...)
	if int(m.Addr) < len(out) {
		out[m.Addr] ^= 1 << m.Bit
	}
	return out
}
