package emu

import (
	"errors"
	"fmt"

	"parallax/internal/chaos"
	"parallax/internal/image"
	"parallax/internal/obs"
	"parallax/internal/x86"
)

// Run-control errors.
var (
	// ErrInstLimit means the configured instruction budget was
	// exhausted; the program is likely stuck in a loop.
	ErrInstLimit = errors.New("emu: instruction limit exceeded")
	// ErrHalted means a HLT instruction was executed.
	ErrHalted = errors.New("emu: hlt executed")
	// ErrBreakpoint means an INT3 was executed.
	ErrBreakpoint = errors.New("emu: int3 executed")
)

// DecodeFault wraps an instruction decode failure at a given EIP. A
// tampered or mis-targeted chain frequently dies here.
type DecodeFault struct {
	EIP uint32
	Err error
}

func (e *DecodeFault) Error() string {
	return fmt.Sprintf("emu: decode fault at eip=%#x: %v", e.EIP, e.Err)
}

func (e *DecodeFault) Unwrap() error { return e.Err }

// DivideError is an integer divide fault (#DE).
type DivideError struct{ EIP uint32 }

func (e *DivideError) Error() string {
	return fmt.Sprintf("emu: divide error at eip=%#x", e.EIP)
}

// ExitSentinel is the magic return address pushed below the entry
// frame; returning to it ends the run cleanly with EAX as the status.
const ExitSentinel uint32 = 0xFFFF0F00

// Stack placement.
const (
	DefaultStackTop  uint32 = 0x0BFFF000
	DefaultStackSize uint32 = 1 << 20
)

// CPU is one x86-32 hardware thread plus its address space.
type CPU struct {
	Reg [x86.NumRegs]uint32
	EIP uint32

	// Individual EFLAGS bits.
	CF, PF, AF, ZF, SF, OF, DF bool

	Mem *Memory
	// OS handles int 0x80. Nil means any syscall faults.
	OS Kernel

	// RetHook, when non-nil, observes every executed near/far return
	// (from = the return instruction's address, to = the target).
	// System-level ROP monitors (§VIII-B) attach here.
	RetHook func(from, to uint32)

	// Trace, when non-nil, receives execution events: every near/far
	// return (obs.EventRet — the gadget boundary of a running ROP
	// chain) and instruction events sampled per TraceEvery. The
	// disabled cost is one nil check per instruction.
	Trace obs.TraceSink
	// TraceEvery is the instruction-event sampling stride: 0 emits no
	// obs.EventInst (ret events still flow), 1 traces every
	// instruction, N every Nth.
	TraceEvery uint64

	// MaxInst bounds Run; 0 means DefaultMaxInst.
	MaxInst uint64

	// CheckStride is the instruction interval between context checks
	// in RunContext; 0 means DefaultCheckStride.
	CheckStride uint64

	// Chaos, when non-nil, arms the emulator's fault-injection points
	// (forced budget exhaustion at poll boundaries). Nil — the
	// production default — costs one nil check per poll.
	Chaos *chaos.Injector

	// stackBase is the lowest mapped stack address (set by LoadImage);
	// pushes faulting just below it classify as stack overflow.
	stackBase uint32

	// Icount and Cycles are the deterministic performance counters:
	// executed instructions and modeled cost (see cost.go).
	Icount uint64
	Cycles uint64

	// Exited is set when the program exits via syscall or by returning
	// to ExitSentinel; Status holds the exit status.
	Exited bool
	Status int32

	// Fetch overlay: the Wurster et al. split-cache view. When armed,
	// instruction fetches in the overlaid range see these bytes while
	// data reads see the underlying memory.
	overlay     map[uint32]byte
	decodeCache map[uint32]x86.Inst
	codeVersion uint64
	cacheVer    uint64

	// Optional per-address execution profile (instruction hit counts).
	profile map[uint32]uint64
}

// DefaultMaxInst bounds runaway programs.
const DefaultMaxInst = 500_000_000

// New returns a CPU over an empty address space.
func New() *CPU {
	c := &CPU{Mem: NewMemory(), decodeCache: make(map[uint32]x86.Inst)}
	// The decode cache is an ordinary code-invalidation consumer: any
	// mutation of executable bytes (store, Poke, Patch, Restore page
	// copy-back) evicts exactly the decodes whose windows can overlap
	// the modified range. Overlay state is CPU-local and handled by
	// codeVersion instead.
	c.Mem.OnCodeInvalidate(c.onCodeInvalidate)
	return c
}

// onCodeInvalidate is the CPU's hook on the memory bus: executable
// bytes in [lo, hi) changed, so cached decodes overlapping them die.
func (c *CPU) onCodeInvalidate(lo, hi uint32) {
	c.evictDecodes(lo, hi-lo)
}

// LoadImage maps every section of img and a stack, and prepares the CPU
// to run from the image entry point: ESP points below ExitSentinel so
// that a final return ends the program. Use LoadImageWith to set
// explicit stack and memory budgets.
func LoadImage(img *image.Image) (*CPU, error) {
	return LoadImageWith(img, LoadConfig{})
}

// EnableProfile turns on per-address instruction hit counting.
func (c *CPU) EnableProfile() { c.profile = make(map[uint32]uint64) }

// Profile returns the per-address hit counts (nil unless EnableProfile
// was called).
func (c *CPU) Profile() map[uint32]uint64 { return c.profile }

// SetOverlay arms the fetch overlay with the given bytes at addr,
// leaving data reads untouched. This is the Wurster et al. attack
// primitive.
func (c *CPU) SetOverlay(addr uint32, b []byte) {
	if c.overlay == nil {
		c.overlay = make(map[uint32]byte)
	}
	for i, v := range b {
		c.overlay[addr+uint32(i)] = v
	}
	c.codeVersion++
}

// InvalidateCode must be called after out-of-band modification of
// executable bytes that bypasses the Memory write paths (which reach
// the decode cache through Memory.OnCodeInvalidate) so stale decodes
// are discarded.
func (c *CPU) InvalidateCode() { c.codeVersion++ }

// maxInstLen is the architectural x86 instruction length limit, and
// therefore the fetch window size.
const maxInstLen = 15

// fetchWindowAt returns up to 15 instruction bytes at addr as seen by
// the fetch unit (overlay first, then memory). Bytes are stitched
// across contiguous executable segments, so an instruction straddling
// a segment boundary decodes from its full encoding. missing is the
// first address past the stitched bytes — the fault address when the
// window proves too short to hold the instruction. eip attributes any
// fault.
func (c *CPU) fetchWindowAt(addr, eip uint32) (window []byte, missing uint32, err error) {
	// Permission check on the first byte classifies the common faults
	// (unmapped EIP, jump into non-executable data).
	if _, err := c.Mem.check(addr, 1, AccessFetch, eip); err != nil {
		return nil, addr, err
	}
	window = make([]byte, 0, maxInstLen)
	a := addr
	for len(window) < maxInstLen {
		seg := c.Mem.Segment(a)
		if seg == nil || seg.Perm&image.PermX == 0 {
			break
		}
		off := a - seg.Addr
		n := uint32(maxInstLen - len(window))
		if off+n > uint32(len(seg.Data)) {
			n = uint32(len(seg.Data)) - off
		}
		window = append(window, seg.Data[off:off+n]...)
		a += n
	}
	if c.overlay != nil {
		for i := range window {
			if v, ok := c.overlay[addr+uint32(i)]; ok {
				window[i] = v
			}
		}
	}
	return window, a, nil
}

// decode returns the instruction at EIP, consulting the decode cache.
// Memory-path coherence is event-driven: every mutation of executable
// bytes notifies the CPU's code-invalidation hook, which evicts the
// overlapping decodes. The version check below covers only CPU-local
// fetch state — overlay arm/disarm and explicit InvalidateCode — which
// shadows arbitrary addresses and therefore flushes wholesale.
func (c *CPU) decode() (x86.Inst, error) {
	if c.cacheVer != c.codeVersion {
		c.decodeCache = make(map[uint32]x86.Inst)
		c.cacheVer = c.codeVersion
	}
	if inst, ok := c.decodeCache[c.EIP]; ok {
		return inst, nil
	}
	inst, err := c.decodeAt(c.EIP)
	if err != nil {
		return x86.Inst{}, err
	}
	c.decodeCache[c.EIP] = inst
	return inst, nil
}

// decodeAt decodes the instruction at addr without consulting or
// filling the decode cache. Fault errors attribute to addr as the
// fetching EIP.
func (c *CPU) decodeAt(addr uint32) (x86.Inst, error) {
	window, missing, err := c.fetchWindowAt(addr, addr)
	if err != nil {
		return x86.Inst{}, err
	}
	inst, err := x86.Decode(window, addr)
	if err != nil {
		if errors.Is(err, x86.ErrTruncated) && len(window) < maxInstLen {
			// The instruction ran off the end of mapped executable
			// memory: that is a fetch fault at the first absent byte,
			// not a decode error in the bytes we do have.
			_, ferr := c.Mem.check(missing, 1, AccessFetch, addr)
			if ferr != nil {
				return x86.Inst{}, ferr
			}
		}
		return x86.Inst{}, &DecodeFault{EIP: addr, Err: err}
	}
	return inst, nil
}

// Patch pokes bytes into memory (permissions ignored, like Mem.Poke).
// The code-invalidation bus carries the modified range to every
// consumer — this CPU's decode cache evicts only the entries whose
// windows can overlap the patched bytes, so a warm campaign worker
// patching one mutation site per run keeps every other decode (and any
// attached translation engine keeps its unaffected blocks).
func (c *CPU) Patch(addr uint32, b []byte) error {
	return c.Mem.Poke(addr, b)
}

// evictDecodeAll is the range size beyond which per-byte eviction
// costs more than rebuilding the cache; evictDecodes flushes wholesale
// instead.
const evictDecodeAll = 1 << 15

// evictDecodes drops cached decodes that may include any byte of
// [addr, addr+n): an x86 instruction is at most maxInstLen bytes, so
// entries starting up to maxInstLen-1 bytes before the range can
// straddle into it.
func (c *CPU) evictDecodes(addr, n uint32) {
	if n >= evictDecodeAll {
		clear(c.decodeCache)
		return
	}
	lo := uint32(0)
	if addr >= maxInstLen-1 {
		lo = addr - (maxInstLen - 1)
	}
	for a := lo; a < addr+n; a++ {
		delete(c.decodeCache, a)
	}
}

// Step executes one instruction.
func (c *CPU) Step() error {
	if c.Exited {
		return nil
	}
	inst, err := c.decode()
	if err != nil {
		return err
	}
	if c.profile != nil {
		c.profile[c.EIP]++
	}
	c.Icount++
	if c.Trace != nil && c.TraceEvery != 0 && c.Icount%c.TraceEvery == 0 {
		c.Trace.Emit(obs.Event{Kind: obs.EventInst, Icount: c.Icount, PC: c.EIP})
	}
	return c.exec(inst)
}

// Run executes until the program exits, faults, or hits the instruction
// budget. Use RunContext to add a cancellation/deadline watchdog.
func (c *CPU) Run() error {
	limit := c.MaxInst
	if limit == 0 {
		limit = DefaultMaxInst
	}
	for !c.Exited {
		if c.Icount >= limit {
			return fmt.Errorf("%w (%d instructions, eip=%#x)", ErrInstLimit, c.Icount, c.EIP)
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunImage is a convenience wrapper: load, run, and return the CPU for
// inspection. The error (if any) accompanies the partially-run CPU.
func RunImage(img *image.Image, os Kernel) (*CPU, error) {
	c, err := LoadImage(img)
	if err != nil {
		return nil, err
	}
	c.OS = os
	err = c.Run()
	return c, err
}

// stackGuardSpan bounds how far below the stack base a faulting push
// still classifies as stack overflow (covers pushes after a large
// SUB ESP frame) rather than a wild-pointer fault.
const stackGuardSpan = 1 << 16

func (c *CPU) push32(v uint32) error {
	c.Reg[x86.ESP] -= 4
	err := c.Mem.Store32(c.Reg[x86.ESP], v, c.EIP)
	if err != nil && c.stackBase != 0 {
		esp := c.Reg[x86.ESP]
		if esp < c.stackBase && c.stackBase-esp <= stackGuardSpan {
			return &StackOverflowError{ESP: esp, EIP: c.EIP, Err: err}
		}
	}
	return err
}

func (c *CPU) pop32() (uint32, error) {
	v, err := c.Mem.Load32(c.Reg[x86.ESP], c.EIP)
	if err != nil {
		return 0, err
	}
	c.Reg[x86.ESP] += 4
	return v, nil
}

// Flags packs the modeled EFLAGS bits into the architectural layout
// (bit 1 always set).
func (c *CPU) Flags() uint32 {
	f := uint32(1 << 1)
	set := func(cond bool, bit uint32) {
		if cond {
			f |= bit
		}
	}
	set(c.CF, 1<<0)
	set(c.PF, 1<<2)
	set(c.AF, 1<<4)
	set(c.ZF, 1<<6)
	set(c.SF, 1<<7)
	set(c.DF, 1<<10)
	set(c.OF, 1<<11)
	return f
}

// SetFlags unpacks an architectural EFLAGS dword.
func (c *CPU) SetFlags(f uint32) {
	c.CF = f&(1<<0) != 0
	c.PF = f&(1<<2) != 0
	c.AF = f&(1<<4) != 0
	c.ZF = f&(1<<6) != 0
	c.SF = f&(1<<7) != 0
	c.DF = f&(1<<10) != 0
	c.OF = f&(1<<11) != 0
}

// Cond evaluates an x86 condition code against the current flags.
func (c *CPU) Cond(cc x86.Cond) bool {
	var v bool
	switch cc &^ 1 {
	case x86.CondO:
		v = c.OF
	case x86.CondB:
		v = c.CF
	case x86.CondE:
		v = c.ZF
	case x86.CondBE:
		v = c.CF || c.ZF
	case x86.CondS:
		v = c.SF
	case x86.CondP:
		v = c.PF
	case x86.CondL:
		v = c.SF != c.OF
	case x86.CondLE:
		v = c.ZF || (c.SF != c.OF)
	}
	if cc&1 != 0 {
		v = !v
	}
	return v
}

// String renders the register state for debugging.
func (c *CPU) String() string {
	return fmt.Sprintf(
		"eax=%08x ebx=%08x ecx=%08x edx=%08x esi=%08x edi=%08x ebp=%08x esp=%08x eip=%08x "+
			"[cf=%t zf=%t sf=%t of=%t]",
		c.Reg[x86.EAX], c.Reg[x86.EBX], c.Reg[x86.ECX], c.Reg[x86.EDX],
		c.Reg[x86.ESI], c.Reg[x86.EDI], c.Reg[x86.EBP], c.Reg[x86.ESP], c.EIP,
		c.CF, c.ZF, c.SF, c.OF)
}
