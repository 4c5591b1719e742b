package emu

import (
	"fmt"

	"parallax/internal/x86"
)

// This file is the execution-engine support surface: the minimal set
// of hooks an alternative engine (internal/emu/tb's translation-block
// backend) needs to drive a CPU with interpreter-identical semantics.
// Everything here delegates to the interpreter's own internals, so an
// engine that falls back through ExecInst can never drift from the
// interpreter on the instructions it does not specialize.

// DecodeAt decodes the instruction at addr without touching EIP or the
// decode cache. It sees exactly what the fetch unit sees (overlay
// bytes first, segment stitching) and returns the same fault and
// decode errors the interpreter's own fetch would, attributed to addr.
// Translators use it to walk a basic block ahead of execution.
func (c *CPU) DecodeAt(addr uint32) (x86.Inst, error) {
	return c.decodeAt(addr)
}

// ExecInst executes one already-decoded instruction through the
// interpreter core: operand access, flag updates, EIP advance, cycle
// accounting — everything CPU.Step does except decode, the Icount
// increment, and trace/profile sampling, which are the driving
// engine's responsibility.
func (c *CPU) ExecInst(inst x86.Inst) error {
	return c.exec(inst)
}

// Push32 pushes a dword with the interpreter's exact stack semantics:
// ESP moves before the store, and a faulting push just below the stack
// base classifies as *StackOverflowError.
func (c *CPU) Push32(v uint32) error { return c.push32(v) }

// Pop32 pops a dword; ESP moves only after a successful load.
func (c *CPU) Pop32() (uint32, error) { return c.pop32() }

// OverlayActive reports whether the fetch overlay is armed: fetched
// bytes may then differ from the bytes stored in memory, so anything
// content-addressed by memory bytes (the shared translation catalog)
// must not be trusted to describe what this CPU executes.
func (c *CPU) OverlayActive() bool { return c.overlay != nil }

// ProfileEnabled reports whether per-address hit counting is armed;
// engines replicate Step's profiling when it is.
func (c *CPU) ProfileEnabled() bool { return c.profile != nil }

// ProfileHit records one execution of the instruction at addr (no-op
// unless EnableProfile was called).
func (c *CPU) ProfileHit(addr uint32) {
	if c.profile != nil {
		c.profile[addr]++
	}
}

// Tracked reports whether Snapshot's dirty-page bitmap is armed on
// this segment. An engine writing segment bytes directly (after its
// own bounds and permission checks) must consult it on every store —
// a Snapshot can arm tracking at any point between stores — and call
// MarkDirty when it reports true. Stores into executable segments
// must go through Memory.Store32 instead so code-invalidation hooks
// fire.
func (s *Segment) Tracked() bool { return s.dirty != nil }

// MarkDirty records a direct engine write to [off, off+n) in the
// dirty-page bitmap, exactly as a store through the bus would.
func (s *Segment) MarkDirty(off, n uint32) { s.markDirty(off, n) }

// ExitTo implements the exit-sentinel convention for engines: if
// target is ExitSentinel the run ends cleanly with EAX as the status
// (mirroring the interpreter's checkSentinel) and ExitTo reports true.
func (c *CPU) ExitTo(target uint32) bool {
	if target == ExitSentinel {
		c.Exited = true
		c.Status = int32(c.Reg[x86.EAX])
		return true
	}
	return false
}

// Engine selects an execution backend. The zero value and Interp run
// the interpreter; TB runs the translation-block engine
// (internal/emu/tb). Every layer that picks a backend (core.Options,
// attack.RunConfig, campaign.Config, the experiment options and the
// CLI flags) carries an Engine, and Validate is the one check of a
// name.
type Engine string

// The execution backends.
const (
	Interp Engine = "interp"
	TB     Engine = "tb"
)

// Engines lists the named backends in usage-string order.
var Engines = []Engine{Interp, TB}

// Validate reports an error for a name that selects no backend.
func (e Engine) Validate() error {
	switch e {
	case "", Interp, TB:
		return nil
	}
	return fmt.Errorf("unknown engine %q (want interp or tb)", string(e))
}
