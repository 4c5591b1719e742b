// Package campaign is the exhaustive tamper-campaign engine: it
// enumerates byte-level mutations over a protected image (bit flips,
// byte patches, NOP sweeps, serialized-form corruption), executes every
// mutant under the emulator with hard watchdog budgets, and classifies
// each outcome into a per-region detection-coverage matrix.
//
// The matrix quantifies the paper's central claim — tampering with
// protected instructions destroys the gadgets the verification chains
// execute, so modifications surface as chain malfunction without any
// explicit checksum. A mutant is chain-detected when it faults inside
// chain-guarded bytes (gadget spans or parallax chain data) or when a
// mutation of a guarded site survives to a divergent exit; crash-fault
// when it dies elsewhere; timeout when the watchdog kills a hang;
// silent when the mutated program is observationally identical to the
// clean run. Serialized-form mutants rejected by the hardened loader
// are counted separately — a corruption the toolchain refuses to load
// never reaches execution.
//
// The engine is hardened for hostile inputs by construction: every
// mutant runs under a context deadline and instruction budget, panics
// in the harness are confined and counted, and the campaign is
// deterministic for a given image and config.
package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parallax/internal/attack"
	"parallax/internal/chaos"
	"parallax/internal/core"
	"parallax/internal/emu"
	"parallax/internal/emu/tb"
	"parallax/internal/image"
	"parallax/internal/obs"
)

// Config tunes a campaign.
type Config struct {
	// Workers is the concurrent mutant-executor count; below 1 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxInst bounds each mutant run (0 = 5M instructions).
	MaxInst uint64
	// Timeout is the per-mutant wall-clock watchdog (0 = 2s).
	Timeout time.Duration
	// Stride is the byte step between mutation sites (0 = 1: every
	// byte).
	Stride int
	// MaxMutants caps the campaign size; enumeration downsamples
	// deterministically above it (0 = 4096).
	MaxMutants int
	// Kinds selects the mutation kinds (nil = AllKinds).
	Kinds []Kind
	// Stdin is the workload fed to every run, clean and mutated.
	Stdin []byte
	// Reload selects the execution path, and with it the engine. True
	// is the reference path: the interpreter, a full image clone +
	// emulator load per mutant, every mutant replayed from the entry
	// point, no recording of the clean run and no translation catalog.
	// It is the independent oracle: the differential tests hold the
	// production path classification-identical to it. The zero value is
	// the production path: the translation-block engine (internal/emu/tb)
	// with the campaign's shared catalog. Each worker loads the image
	// once, keeps one persistent tb engine and rewinds dirty pages
	// between mutants, and each mutant resumes from the last fork point
	// of the clean run, recorded on tb, before it first touches a mutated
	// byte (see fork.go). KindSerial mutants always take the loader path;
	// on the production path those whose section layout and entry point
	// match the base image resume from a fork point too.
	Reload bool
	// MemBudget / StackSize bound each mutant's emulator (0 =
	// defaults).
	MemBudget uint64
	StackSize uint32
	// Engine selects nothing: each path runs one engine, emu.Interp on
	// the reference path and emu.TB on the production path. "" or the
	// path's own engine is accepted; any other value makes Run fail
	// before the clean run. The field remains only because perfbench/
	// still sets it.
	Engine emu.Engine
	// Obs, when non-nil, accumulates campaign activity into a shared
	// metrics registry: per-class outcome counters
	// (campaign.outcome.<class>), campaign.mutants, campaign.panics,
	// and — via attack.RunWith — the emu.* run counters for every
	// mutant execution. Nil disables recording entirely.
	Obs *obs.Registry
	// Chaos, when non-nil, arms fault injection on mutant execution
	// (never the clean reference run): worker crashes, blown deadlines,
	// restore corruption, load failures, truncated serialized reads.
	// Faulted cells classify as ClassInfraError and the matrix still
	// completes; see the package fault model in internal/chaos.
	Chaos *chaos.Injector
	// Checkpoint, when non-empty, is the path of the append-only resume
	// journal: every finished mutant outcome is recorded there, and a
	// re-run against the same image, config and journal skips the
	// recorded cells — a killed campaign resumes where it stopped and
	// produces a byte-identical final matrix.
	Checkpoint string

	// cat is the campaign's shared translation catalog, created by
	// withDefaults on the production path and threaded to the clean run
	// and every worker engine. A one-byte mutant re-translates only the
	// blocks its patch touched; the other ~99% are adopted from
	// whichever worker translated them first (see internal/emu/tb's
	// catalog coherence story).
	cat *tb.Catalog

	// rec is the clean run's recording on the production path: the fork
	// points mutants resume from and the first-touch map that picks one
	// (see fork.go). Run sets it from its reference run. A recording
	// without fork points replays every mutant from the entry point.
	rec *emu.Recording
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxInst == 0 {
		cfg.MaxInst = 5_000_000
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Stride < 1 {
		cfg.Stride = 1
	}
	if cfg.MaxMutants == 0 {
		cfg.MaxMutants = 4096
	}
	if cfg.Kinds == nil {
		cfg.Kinds = AllKinds()
	}
	if !cfg.Reload && cfg.cat == nil {
		cfg.cat = tb.NewCatalog()
	}
	return cfg
}

// errPathEngine reports a Config.Engine that names the other path's
// engine.
var errPathEngine = errors.New("campaign: engine does not run on this execution path")

// engine is the backend cfg's path runs: the interpreter on the
// reference path, tb on the production path.
func (cfg Config) engine() emu.Engine {
	if cfg.Reload {
		return emu.Interp
	}
	return emu.TB
}

// checkEngine accepts a Config.Engine of "" or the path's own engine.
func (cfg Config) checkEngine() error {
	if err := cfg.Engine.Validate(); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if cfg.Engine != "" && cfg.Engine != cfg.engine() {
		return fmt.Errorf("%w: %q with Reload=%t (want %q)", errPathEngine, cfg.Engine, cfg.Reload, cfg.engine())
	}
	return nil
}

// Workload names one stdin profile for a campaign. The same protected
// image exercises different code under different workloads — the
// generated corpus reads a cold-call budget from stdin — so detection
// coverage is a per-workload quantity, not a per-image one.
type Workload struct {
	Name  string
	Stdin []byte
}

// RunWorkloads executes one full campaign per workload against the
// same protected image and returns the reports keyed by workload name.
// The workloads share cfg (including, on the production path, one
// shared translation catalog — stdin never changes code bytes, so every
// workload's workers adopt each other's translations). A configured
// checkpoint path gets a per-workload suffix so resumable campaigns
// don't collide; the journal additionally binds the workload's stdin
// through the config hash.
func RunWorkloads(ctx context.Context, prot *core.Protected, cfg Config, wls []Workload) (map[string]*Report, error) {
	cfg = cfg.withDefaults() // one shared catalog across all workloads
	out := make(map[string]*Report, len(wls))
	for _, wl := range wls {
		wcfg := cfg
		wcfg.Stdin = wl.Stdin
		if wcfg.Checkpoint != "" {
			wcfg.Checkpoint = wcfg.Checkpoint + "." + wl.Name
		}
		rep, err := Run(ctx, prot, wcfg)
		if err != nil {
			return nil, fmt.Errorf("campaign: workload %q: %w", wl.Name, err)
		}
		out[wl.Name] = rep
	}
	return out, nil
}

// Run executes a tamper campaign against a protected image and returns
// its detection-coverage matrix. The context cancels the whole
// campaign; each mutant additionally runs under cfg.Timeout and
// cfg.MaxInst. Run never panics on any mutant — harness panics are
// recovered, counted in Report.Panics, and classified as crash faults.
func Run(ctx context.Context, prot *core.Protected, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if prot == nil || prot.Image == nil {
		return nil, fmt.Errorf("campaign: nil protected image")
	}
	if err := cfg.checkEngine(); err != nil {
		return nil, err
	}

	// Reference run: the clean image's observable behavior, recorded
	// for fork-point scheduling on the production path.
	var clean attack.RunResult
	clean, cfg.rec = reference(ctx, prot.Image, cfg)
	if clean.Err != nil {
		return nil, fmt.Errorf("campaign: clean reference run failed: %w", clean.Err)
	}

	mutants, err := Enumerate(prot, cfg)
	if err != nil {
		return nil, err
	}
	var jn *journal
	var done map[int]Class
	if cfg.Checkpoint != "" {
		var buf bytes.Buffer
		if _, err := prot.Image.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("campaign: serializing image for checkpoint: %w", err)
		}
		jn, done, err = openJournal(cfg.Checkpoint, imageHash(buf.Bytes()), cfg, mutants)
		if err != nil {
			return nil, err
		}
		defer jn.close()
	}
	classes, panics, err := executeAll(ctx, prot, mutants, clean, cfg, jn, done)
	if err != nil {
		return nil, err
	}

	rep := &Report{Panics: panics, Resumed: len(done)}
	rows := make(map[string]*Row)
	for i, m := range mutants {
		rep.add(rows, m, classes[i])
	}
	rep.finish(rows)
	recordOutcomes(cfg.Obs, rep, classes)
	return rep, nil
}

// executeAll runs every mutant through the worker pool and returns the
// per-mutant classification vector plus the recovered-panic count. It
// is the campaign's execution core, split out so differential tests can
// compare the two execution paths mutant by mutant. cfg must already
// have defaults applied and, on the production path, carry the clean
// run's recording (Run sets cfg.rec from its reference run).
//
// jn and done (both optional) carry the checkpoint state: cells in
// done are restored without executing, and every freshly finished cell
// is appended to jn — except infra-error cells, whose failure was
// transient, and cells finished after the campaign context was
// cancelled, whose outcome may be cancellation-tainted.
func executeAll(ctx context.Context, prot *core.Protected, mutants []Mutant,
	clean attack.RunResult, cfg Config, jn *journal, done map[int]Class) ([]Class, int, error) {
	var stream []byte
	for _, m := range mutants {
		if m.Kind == KindSerial {
			var buf bytes.Buffer
			if _, err := prot.Image.WriteTo(&buf); err != nil {
				return nil, 0, fmt.Errorf("campaign: serializing image: %w", err)
			}
			stream = buf.Bytes()
			break
		}
	}
	guard := prot.Guard()

	classes := make([]Class, len(mutants))
	for i, c := range done {
		classes[i] = c
	}
	var panics uint64
	var ckErrs uint64
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each production worker owns one reusable VM; a load
			// failure here falls back to per-mutant clone+reload on tb
			// (eng nil), where the same failure surfaces per mutant.
			var eng *vmEngine
			if !cfg.Reload {
				eng = newVMEngine(prot.Image, cfg)
			}
			for i := range next {
				classes[i] = runOne(ctx, prot.Image, stream, guard, i, mutants[i], clean, cfg, eng, &panics)
				if eng != nil && eng.poisoned {
					// Injected restore corruption: the VM's state is no
					// longer trustworthy. Rebuild it; until then (or on
					// rebuild failure) mutants take the clone path.
					eng.close()
					eng = newVMEngine(prot.Image, cfg)
				}
				if jn != nil && classes[i] != ClassInfraError && ctx.Err() == nil {
					// A failed append degrades the checkpoint (those cells
					// re-run on resume), never the running campaign.
					if err := jn.append(i, classes[i], mutants[i]); err != nil {
						atomic.AddUint64(&ckErrs, 1)
					}
				}
			}
		}()
	}
feed:
	for i := range mutants {
		if _, ok := done[i]; ok {
			continue
		}
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if n := atomic.LoadUint64(&ckErrs); n > 0 && cfg.Obs != nil {
		cfg.Obs.Counter("campaign.checkpoint_errors").Add(n)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("campaign: cancelled: %w", err)
	}
	return classes, int(atomic.LoadUint64(&panics)), nil
}

// vmEngine is one worker's reusable execution engine: the protected
// image loaded into an emulator once, snapshotted, and rewound between
// mutants so each run pays only for the pages the previous one dirtied.
type vmEngine struct {
	cpu  *emu.CPU
	snap *emu.Snapshot

	// tbe is the worker's persistent translation-block engine. Living
	// across mutants, it keeps translations of undisturbed code warm:
	// applyVM's pokes and Restore's page copy-backs invalidate, through
	// the memory bus's code hooks, exactly the blocks whose bytes
	// changed.
	tbe *tb.Engine

	// poisoned marks the VM state corrupted (injected restore fault):
	// the owning worker must discard and rebuild the engine before the
	// next mutant.
	poisoned bool
}

// close releases the engine's translation backend (the CPU needs no
// teardown).
func (e *vmEngine) close() { e.tbe.Close() }

// newVMEngine loads the image and takes the baseline snapshot. A load
// failure returns nil: the caller falls back to clone+reload, which
// reports the failure per mutant exactly as before.
func newVMEngine(base *image.Image, cfg Config) *vmEngine {
	cpu, err := emu.LoadImageWith(base, emu.LoadConfig{
		StackSize: cfg.StackSize,
		MemBudget: cfg.MemBudget,
		Chaos:     cfg.Chaos,
	})
	if err != nil {
		return nil
	}
	return &vmEngine{cpu: cpu, snap: cpu.Snapshot(), tbe: tb.NewWithCatalog(cpu, cfg.Obs, cfg.cat)}
}

// recordOutcomes mirrors a finished campaign's classification tallies
// into the registry. Done once per campaign, after the workers join, so
// the mutant hot loop carries no recording cost beyond attack.RunWith's.
func recordOutcomes(reg *obs.Registry, rep *Report, classes []Class) {
	if reg == nil {
		return
	}
	reg.Counter("campaign.mutants").Add(uint64(len(classes)))
	reg.Counter("campaign.panics").Add(uint64(rep.Panics))
	reg.Counter("campaign.infra_errors").Add(uint64(rep.InfraErrors))
	reg.Counter("campaign.resumed_mutants").Add(uint64(rep.Resumed))
	var byClass [numClasses]uint64
	for _, c := range classes {
		if c < numClasses {
			byClass[c]++
		}
	}
	for c, n := range byClass {
		if n != 0 {
			reg.Counter("campaign.outcome." + Class(c).String()).Add(n)
		}
	}
}

// runOne executes and classifies a single mutant. It never panics:
// any harness panic is recovered, counted, and classified as a crash.
// Non-serial mutants run on the worker's vmEngine when one is
// available (restore dirty pages, apply the fork point before the
// mutant's first touch, poke the mutation, run); KindSerial mutants
// always exercise the loader, resuming from a fork point on the
// production path when their layout allows, and a nil engine falls
// back to clone+reload on the path's engine.
func runOne(ctx context.Context, base *image.Image, stream []byte,
	guard image.Ranges, idx int, m Mutant, clean attack.RunResult,
	cfg Config, eng *vmEngine, panics *uint64) (cls Class) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && chaos.IsInjected(e) {
				// Injected worker crash: infrastructure, not a harness
				// bug — the cell is lost, the panic tally stays honest.
				cls = ClassInfraError
				return
			}
			atomic.AddUint64(panics, 1)
			cls = ClassCrash
		}
	}()
	inj := cfg.Chaos
	if err := inj.Fire(chaos.PointCampaignMutant, uint64(idx)); err != nil {
		panic(err)
	}
	// Injected deadline blow-through: the mutant starts with its wall
	// budget already exhausted, exercising the watchdog path end to end;
	// whatever the truncated run reports, the cell is an infra error.
	blownDeadline := inj.Should(chaos.PointCampaignDeadline, uint64(idx))
	timeout := cfg.Timeout
	if blownDeadline {
		timeout = -1
	}

	runCfg := attack.RunConfig{
		Stdin: cfg.Stdin, MaxInst: cfg.MaxInst,
		MemBudget: cfg.MemBudget, StackSize: cfg.StackSize,
		Obs: cfg.Obs, Engine: cfg.engine(), Catalog: cfg.cat,
		Chaos: cfg.Chaos, ChaosKey: uint64(idx),
	}

	var img *image.Image
	switch {
	case m.Kind == KindSerial:
		loaded, err := image.ReadFrom(
			inj.Reader(chaos.PointImageRead, uint64(idx), bytes.NewReader(m.corruptSerial(stream))))
		if err != nil {
			if chaos.IsInjected(err) {
				// The read was truncated by injection, not by the mutant:
				// the loader's verdict on this corruption is unknown.
				return ClassInfraError
			}
			return ClassLoaderReject
		}
		img = loaded
		if fp, diffs := serialFork(cfg.rec, base, loaded); fp != nil {
			// Load the mutant as a fresh run would, move it to the fork
			// point, and put back the differing bytes the fork point's
			// clean pages overwrote.
			cpu, err := attack.Load(loaded, runCfg)
			if err != nil {
				if blownDeadline {
					return ClassInfraError
				}
				return classify(m, attack.RunResult{Err: err}, clean, guard)
			}
			cpu.ApplyFork(fp)
			for _, d := range diffs {
				cpu.Mem.Poke(d.addr, []byte{d.b})
			}
			runCfg.CPU, runCfg.Kernel = cpu, &fp.Kernel
			cfg.Obs.Counter("campaign.inherited_insts").Add(fp.Icount)
		}
	case eng != nil:
		st := eng.cpu.Restore(eng.snap)
		if reg := cfg.Obs; reg != nil {
			reg.Counter("emu.restores").Inc()
			reg.Histogram("emu.dirty_pages").Record(uint64(st.DirtyPages))
		}
		if inj.Should(chaos.PointEmuRestoreDirty, uint64(idx)) {
			// Injected dirty-page copy-back corruption: flip a byte of
			// restored state and poison the VM — the worker rebuilds it,
			// and this cell measured nothing.
			if raw, err := eng.cpu.Mem.Peek(base.Entry, 1); err == nil {
				eng.cpu.Mem.Poke(base.Entry, []byte{raw[0] ^ 0xFF})
			}
			eng.poisoned = true
			return ClassInfraError
		}
		fp := cfg.rec.Before(cfg.rec.FirstTouch(m.Addr, uint32(m.Len)))
		if fp != nil {
			eng.cpu.ApplyFork(fp)
		}
		if err := m.applyVM(base, eng.cpu); err != nil {
			// Unpatchable site: same rejection the clone path's
			// image.WriteAt would produce, before execution.
			return ClassLoaderReject
		}
		if fp != nil {
			runCfg.Kernel = &fp.Kernel
			cfg.Obs.Counter("campaign.inherited_insts").Add(fp.Icount)
		}
		mctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		runCfg.CPU, runCfg.Exec = eng.cpu, eng.tbe
		res := attack.RunWith(mctx, base, runCfg)
		if blownDeadline {
			return ClassInfraError
		}
		return classify(m, res, clean, guard)
	default:
		img = base.Clone()
		if err := m.apply(img); err != nil {
			// Unpatchable site (enumeration raced initialized-data
			// bounds): treat as rejected before execution.
			return ClassLoaderReject
		}
	}

	mctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	res := attack.RunWith(mctx, img, runCfg)
	if blownDeadline {
		return ClassInfraError
	}
	return classify(m, res, clean, guard)
}

// classify maps one mutant run outcome onto the matrix classes.
func classify(m Mutant, res, clean attack.RunResult, guard image.Ranges) Class {
	var de *emu.DeadlineError
	switch {
	case chaos.IsInjected(res.Err):
		// Checked before every outcome shape: an injected fault (forced
		// budget trip, failed allocation) wears the same error types as
		// earned failures, and must never masquerade as a detection.
		return ClassInfraError
	case res.Err == nil:
		if res.Status == clean.Status && res.Stdout == clean.Stdout {
			return ClassSilent
		}
		// Divergent but clean exit: a guarded-site mutation that
		// changed behavior means the chain computed garbage — implicit
		// detection. An unguarded site diverging is the mutated app
		// code itself malfunctioning.
		if m.Guarded {
			return ClassChain
		}
		return ClassCrash
	case errors.Is(res.Err, emu.ErrInstLimit), errors.As(res.Err, &de):
		return ClassTimeout
	default:
		// The run died. Attribute the fault to the chain when the
		// mutation hit guarded bytes (the canonical Parallax detection:
		// a broken gadget derails the chain) or when the final EIP is
		// itself inside chain-guarded territory.
		if m.Guarded || guard.Contains(res.EIP) {
			return ClassChain
		}
		return ClassCrash
	}
}
