// Package tb is the translation-block execution engine: a
// QEMU-TCG-style backend over the emu CPU that decodes each basic
// block once, compiles it into a threaded slice of micro-ops, and
// executes whole blocks at a time with lazy flag materialization —
// the (ccOp, ccSrc, ccDst) triple of the last flag-producing
// instruction is carried forward and EFLAGS (including AF/PF) are
// computed only when a consumer instruction, a block exit to the
// caller, or an error path actually reads them.
//
// Direct jumps, conditional branches and direct calls chain block to
// block without a dispatch-table lookup. Coherence rides the memory
// bus's code-invalidation hooks (Memory.OnCodeInvalidate): stores into
// executable segments, Poke, CPU.Patch, Restore page copy-back and
// CPU.SetOverlay all announce the changed range, and every overlapping
// translation dies before the next op executes — self-modifying code
// runs its new bytes, mid-block, exactly as it does under the
// interpreter.
//
// Instructions without a specialized micro-op fall back, one by one,
// through CPU.ExecInst into the interpreter core after materializing
// flags, so the engine cannot drift from interpreter semantics on
// anything it does not model natively. The lockstep oracle in
// internal/difftest drives Step() to hold it to that claim.
//
// An Engine is not safe for concurrent use; like the CPU it drives,
// it belongs to one goroutine.
package tb

import (
	"context"
	"errors"
	"fmt"
	"math"

	"parallax/internal/chaos"
	"parallax/internal/emu"
	"parallax/internal/obs"
)

// block is one translated basic block: the micro-ops for a straight
// run of instructions starting at lo, ending at the first control
// transfer (or the op cap, or the first undecodable byte).
type block struct {
	end    uint32 // address after the last instruction (jcc fallthrough)
	lo, hi uint32 // code byte range covered; invalidation keys on it
	ops    []uop

	// succ chains direct control transfers: [0] is the fallthrough /
	// unconditional target, [1] the taken branch target. Filled lazily
	// on first transfer once the successor exists.
	succ [2]*block

	// dead marks the block invalidated (its source bytes changed). The
	// executor checks it after every op so a store into upcoming code
	// aborts the block and retranslates — and chained pointers to it
	// are abandoned on sight.
	dead bool

	// fetched is the emu.Recording that has marked [lo, hi) fetched:
	// a mark is never undone, so later entries skip it.
	fetched *emu.Recording
}

// Engine executes a CPU through translated blocks.
type Engine struct {
	cpu    *emu.CPU
	blocks map[uint32]*block
	cc     ccState
	cancel func() // unregisters the code-invalidation hook

	// Step cursor: position inside the block being single-stepped.
	curB *block
	curI int

	// Single-entry segment caches for the dword fast paths (data
	// loads, data stores, stack traffic). Only segments whose
	// permissions make the access legal and side-effect-free are ever
	// cached — see the fast-path comment in exec.go.
	rd, wr, stk *emu.Segment

	// cat, when non-nil, is the shared translation catalog: translate
	// consults it before decoding and publishes its own translations
	// into it (see catalog.go for the coherence story). Nil keeps the
	// engine fully private.
	cat *Catalog

	mTranslations  *obs.Counter
	mChainHits     *obs.Counter
	mInvalidations *obs.Counter
	mFlushes       *obs.Counter
	mCatHits       *obs.Counter
	mCatMisses     *obs.Counter
	mCatInstalls   *obs.Counter
	mBlockLen      *obs.Histogram
}

// New attaches a translation engine to cpu, registering it on the
// memory bus's code-invalidation hook. reg (which may be nil) receives
// the engine's metrics: emu.tb.translations, emu.tb.chain_hits,
// emu.tb.invalidations, emu.tb.flushes and the emu.tb.block_len
// histogram. Call Close when done so the hook does not outlive the
// engine.
func New(cpu *emu.CPU, reg *obs.Registry) *Engine {
	return NewWithCatalog(cpu, reg, nil)
}

// NewWithCatalog is New with a shared translation catalog attached
// (nil keeps the engine private). Every engine sharing one catalog
// adopts the others' translations after byte-verifying them against
// its own memory; catalog adoptions count in this engine's
// emu.tb.catalog_hits (alongside emu.tb.catalog_misses and
// emu.tb.catalog_installs), not in emu.tb.translations, so the
// translation counter still measures decode+compile work actually
// performed.
func NewWithCatalog(cpu *emu.CPU, reg *obs.Registry, cat *Catalog) *Engine {
	e := &Engine{
		cpu:            cpu,
		blocks:         make(map[uint32]*block),
		cat:            cat,
		mTranslations:  reg.Counter("emu.tb.translations"),
		mChainHits:     reg.Counter("emu.tb.chain_hits"),
		mInvalidations: reg.Counter("emu.tb.invalidations"),
		mFlushes:       reg.Counter("emu.tb.flushes"),
		mCatHits:       reg.Counter("emu.tb.catalog_hits"),
		mCatMisses:     reg.Counter("emu.tb.catalog_misses"),
		mCatInstalls:   reg.Counter("emu.tb.catalog_installs"),
		mBlockLen:      reg.Histogram("emu.tb.block_len"),
	}
	e.cancel = cpu.Mem.OnCodeInvalidate(e.invalidate)
	return e
}

// Close unregisters the engine from the invalidation bus and drops its
// translations. The CPU remains usable (including by the interpreter).
//
// The teardown retirement counts into emu.tb.flushes, disjoint from
// emu.tb.invalidations (the per-block coherence kills): every block the
// engine ever held dies exactly once through one of the two counters,
// so after Close, translations + catalog adoptions == invalidations +
// flushes and a metrics report reconciles against hook-bus events.
func (e *Engine) Close() {
	if e.cancel != nil {
		e.cancel()
		e.cancel = nil
	}
	for _, b := range e.blocks {
		b.dead = true
	}
	e.mFlushes.Add(uint64(len(e.blocks)))
	e.blocks = make(map[uint32]*block)
	e.curB = nil
}

// invalidate is the Memory.OnCodeInvalidate hook: executable bytes in
// [lo, hi) changed, so every translation overlapping the range dies.
func (e *Engine) invalidate(lo, hi uint32) {
	for pc, b := range e.blocks {
		if b.lo < hi && lo < b.hi {
			b.dead = true
			delete(e.blocks, pc)
			e.mInvalidations.Inc()
		}
	}
}

// lookup returns a live block starting at pc, translating one if
// needed. The error is the same fetch/decode fault the interpreter's
// own Step would report at pc.
func (e *Engine) lookup(pc uint32) (*block, error) {
	if b, ok := e.blocks[pc]; ok {
		return b, nil
	}
	return e.translate(pc)
}

// errBudget is execBlock's internal stop marker: the instruction
// budget was reached before the next op. Run formats it into the
// interpreter's ErrInstLimit error; Step treats it as a completed
// single step.
var errBudget = errors.New("tb: instruction budget reached")

func instLimitErr(c *emu.CPU) error {
	return fmt.Errorf("%w (%d instructions, eip=%#x)", emu.ErrInstLimit, c.Icount, c.EIP)
}

// Run executes until the program exits, faults, or hits the
// instruction budget — the engine's equivalent of CPU.Run.
func (e *Engine) Run() error { return e.RunContext(context.Background()) }

// maxChainBlocks bounds how many block-to-block transitions one
// execChain call may consume internally before handing control back
// to RunContext, and pollChains how many execChain calls RunContext
// makes between forced context polls. Together they guarantee a
// cancellation check at least every maxChainBlocks×pollChains block
// transitions even when the instruction-count stride never trips —
// a caller-supplied CheckStride sized for trace sampling, or blocks
// whose per-instruction wall cost dwarfs their retirement count
// (fallback string ops), would otherwise starve a tight deadline for
// the whole chained hot loop.
const (
	maxChainBlocks = 64
	pollChains     = 8
)

// RunContext is Run with a cancellation/deadline watchdog, polled
// every CheckStride instructions at block granularity — and at least
// every maxChainBlocks×pollChains block transitions regardless of
// stride — the engine's equivalent of CPU.RunContext, returning the
// same error types.
//
// With an emu.Recording attached, RunContext also takes its fork
// points: at the first dispatcher boundary at or past each one's due
// Icount, with flags materialized (chained execution stops there).
func (e *Engine) RunContext(ctx context.Context) error {
	c := e.cpu
	defer e.materialize()
	e.dropRecorded()
	rec := c.Recording()
	fork := uint64(math.MaxUint64) // Icount of the next fork point
	if rec != nil {
		fork = rec.NextFork()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	limit := c.MaxInst
	if limit == 0 {
		limit = emu.DefaultMaxInst
	}
	stride := c.CheckStride
	if stride == 0 {
		stride = emu.DefaultCheckStride
	}
	if err := ctx.Err(); err != nil {
		return &emu.DeadlineError{EIP: c.EIP, Icount: c.Icount, Err: err}
	}
	next := c.Icount + stride
	chains := 0
	for !c.Exited {
		if c.Icount >= limit {
			return instLimitErr(c)
		}
		if c.Icount >= fork {
			e.materialize()
			rec.Fork()
			fork = rec.NextFork()
		}
		if c.Icount >= next || chains >= pollChains {
			if err := ctx.Err(); err != nil {
				return &emu.DeadlineError{EIP: c.EIP, Icount: c.Icount, Err: err}
			}
			if err := c.Chaos.FireNext(chaos.PointEmuBudget); err != nil {
				// Forced watchdog exhaustion (injected): same shape as a
				// real deadline trip, marked by the wrapped chaos error.
				return &emu.DeadlineError{EIP: c.EIP, Icount: c.Icount, Err: err}
			}
			next = c.Icount + stride
			chains = 0
		}
		b, err := e.lookup(c.EIP)
		if err != nil {
			return err
		}
		// Inner chain loop: follow block-to-block successors without
		// touching the dispatch map until the next poll boundary or
		// fork point. execChain consumes chained edges internally (at
		// most maxChainBlocks per call); this loop turns over when a
		// chain edge is still unlinked or the per-call chain budget ran
		// out.
		stop := min(next, fork)
		for b != nil && c.Icount < stop && chains < pollChains {
			nb, err := e.execChain(b, limit, stop)
			chains++
			if err == errBudget {
				return instLimitErr(c)
			}
			if err != nil {
				return err
			}
			if c.Exited {
				return nil
			}
			b = nb
		}
	}
	return nil
}

// Step retires exactly one instruction, with the interpreter's exact
// observable semantics (Icount, EIP, flags, trace events) — the
// lockstep oracle's entry point. Flags are materialized before Step
// returns, so CPU.Flags() is always valid between steps.
func (e *Engine) Step() error {
	c := e.cpu
	if c.Exited {
		return nil
	}
	defer e.materialize()
	e.dropRecorded()
	b, i := e.curB, e.curI
	if b == nil || b.dead || i >= len(b.ops) || b.ops[i].pc != c.EIP {
		var err error
		b, err = e.lookup(c.EIP)
		if err != nil {
			return err
		}
		i = 0
	}
	nb, err := e.execBlock(b, i, c.Icount+1)
	switch {
	case err == errBudget:
		// One op retired, stopped before the next: cursor advances.
		e.curB, e.curI = b, i+1
		return nil
	case err != nil:
		e.curB = nil
		return err
	case nb != nil:
		e.curB, e.curI = nb, 0
		return nil
	default:
		e.curB = nil
		return nil
	}
}
