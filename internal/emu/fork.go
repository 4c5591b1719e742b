package emu

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"parallax/internal/image"
	"parallax/internal/x86"
)

// ForkPoint is a clean run's complete state after Icount instructions:
// registers, EFLAGS, the performance counters, the exit latch, every
// page written since the image was loaded, and the kernel state. A
// Recording takes them during an interpreter run; ApplyFork moves
// another CPU loaded from the same image to one, and a run resumed
// there (with RunWith's kernel resume) continues the clean run
// instruction for instruction.
type ForkPoint struct {
	// Icount and Cycles are the clean run's counters at the fork.
	Icount uint64
	Cycles uint64
	// Kernel is the kernel state at the fork; its Stdout and Stderr
	// alias the recording's final output buffers.
	Kernel KernelState

	reg    [x86.NumRegs]uint32
	eip    uint32
	flags  uint32
	exited bool
	status int32
	pages  []forkPage

	outLen, errLen int // output lengths, resolved into Kernel by Finish
}

// forkPage is one page the clean run had written by the fork point:
// its address and contents at that instruction.
type forkPage struct {
	addr uint32
	data []byte
}

// ApplyFork moves the CPU to fp. The CPU must be loaded from the
// recording's image with the same LoadConfig budgets and hold its
// load-time bytes: freshly loaded, or rewound by Restore to a Snapshot
// taken at load. A fork point's pages hold the load-time value in every
// byte the clean run had not written, so a mutation of such a byte is
// poked after ApplyFork, never before. Written pages go through the
// dirty-page bitmap (a later Restore rewinds them) and, when
// executable, the code-invalidation bus.
func (c *CPU) ApplyFork(fp *ForkPoint) {
	for _, p := range fp.pages {
		seg := c.Mem.Segment(p.addr)
		off := p.addr - seg.Addr
		n := uint32(len(p.data))
		dst := seg.Data[off : off+n]
		if bytes.Equal(dst, p.data) {
			continue
		}
		copy(dst, p.data)
		seg.markDirty(off, n)
		if seg.Perm&image.PermX != 0 {
			c.Mem.notifyCodeInvalidate(p.addr, p.addr+n)
		}
	}
	c.Reg = fp.reg
	c.EIP = fp.eip
	c.SetFlags(fp.flags)
	c.Icount = fp.Icount
	c.Cycles = fp.Cycles
	c.Exited = fp.exited
	c.Status = fp.status
}

// Recording watches one interpreter run from the entry point for
// fork-point scheduling. It takes a ForkPoint at fixed instruction
// intervals (at most maxForks of them; when full it keeps every other
// one and doubles the interval) and, for each byte of an address
// span, the instruction count of the first instruction that fetched,
// read or wrote it. A run differs from the recorded one only once it
// reaches a byte that differs between them, so a run over memory that
// differs in some bytes can resume from the last fork point before the
// first of them was touched.
//
// Recording hooks the interpreter's Step and the memory bus; the
// translation-block engine does not feed it. Icounts are stored as
// uint32, so the recorded run must stay below 2^32 instructions.
type Recording struct {
	cpu   *CPU
	lo    uint32
	first []uint32 // per byte of the span: first toucher's Icount, 0 = never
	every uint64   // fork interval
	next  uint64   // Icount of the next fork
	forks []*ForkPoint
	err   error
}

// Fork cadence: the first interval, and the cap that makes a long run
// thin its fork points (between maxForks/2 and maxForks of them, plus
// the exit state).
const (
	forkEvery = 1024
	maxForks  = 32
)

// Record attaches a Recording to a freshly loaded CPU (Icount 0) and
// arms dirty-page tracking, which Record takes over from any Snapshot.
// [lo, hi) is the span whose first touches are kept; a byte outside it
// reads as touched by the first instruction.
func (c *CPU) Record(lo, hi uint32) *Recording {
	r := &Recording{cpu: c, lo: lo, first: make([]uint32, hi-lo), every: forkEvery, next: forkEvery}
	for _, seg := range c.Mem.segs {
		seg.trackDirty()
	}
	c.Mem.rec = r
	return r
}

// step runs before each interpreter instruction executes, after its
// decode: it takes a fork point when one is due (the CPU still holds
// the state after Icount instructions) and marks the instruction's
// bytes fetched by instruction Icount+1.
func (r *Recording) step(n int) {
	c := r.cpu
	if c.Icount >= r.next && r.fork() {
		r.advance()
	}
	r.mark(c.EIP, uint32(n), uint32(c.Icount+1))
}

// mark records instruction t touching [addr, addr+n).
func (r *Recording) mark(addr, n, t uint32) {
	off := addr - r.lo
	if off >= uint32(len(r.first)) {
		return
	}
	end := min(off+n, uint32(len(r.first)))
	for i := off; i < end; i++ {
		if r.first[i] == 0 {
			r.first[i] = t
		}
	}
}

// fork captures the CPU's current state as a fork point. It reports
// false, and stops further fork points, when the CPU's kernel is not
// the *OS model whose state a fork point carries.
func (r *Recording) fork() bool {
	c := r.cpu
	os, ok := c.OS.(*OS)
	if !ok {
		r.err = errors.New("emu: recording needs the *OS kernel model")
		r.next = ^uint64(0)
		return false
	}
	fp := &ForkPoint{
		Icount: c.Icount, Cycles: c.Cycles,
		Kernel: KernelState{StdinOff: os.stdinOff, RandState: os.RandState, Traced: os.traced},
		reg:    c.Reg, eip: c.EIP, flags: c.Flags(), exited: c.Exited, status: c.Status,
		outLen: os.Stdout.Len(), errLen: os.Stderr.Len(),
	}
	for _, seg := range c.Mem.segs {
		size := uint32(len(seg.Data))
		for w, word := range seg.dirty {
			for ; word != 0; word &= word - 1 {
				lo := (uint32(w)*64 + uint32(bits.TrailingZeros64(word))) * PageSize
				hi := min(lo+PageSize, size)
				fp.pages = append(fp.pages, forkPage{seg.Addr + lo, append([]byte(nil), seg.Data[lo:hi]...)})
			}
		}
	}
	r.forks = append(r.forks, fp)
	return true
}

// advance schedules the next periodic fork point. Fork points sit at
// multiples of the interval; once maxForks have been taken, the
// interval doubles and only the fork points at its multiples stay.
func (r *Recording) advance() {
	r.next += r.every
	if len(r.forks) < maxForks {
		return
	}
	r.every *= 2
	kept := r.forks[:0]
	for _, f := range r.forks {
		if f.Icount%r.every == 0 {
			kept = append(kept, f)
		}
	}
	clear(r.forks[len(kept):])
	r.forks = kept
	r.next = (r.cpu.Icount/r.every + 1) * r.every
}

// Finish detaches the recording after the run and takes the exit state
// as the last fork point. It fails when the run did not exit cleanly
// or a fork point could not capture the kernel.
func (r *Recording) Finish() error {
	c := r.cpu
	c.Mem.rec = nil
	if r.err == nil && !c.Exited {
		r.err = fmt.Errorf("emu: recorded run stopped at eip=%#x without exiting", c.EIP)
	}
	if r.err == nil {
		r.fork()
	}
	if r.err != nil {
		r.forks = nil
		return r.err
	}
	os := c.OS.(*OS)
	out, errOut := os.Stdout.Bytes(), os.Stderr.Bytes()
	for _, f := range r.forks {
		f.Kernel.Stdout, f.Kernel.Stderr = out[:f.outLen], errOut[:f.errLen]
	}
	r.cpu = nil
	return nil
}

// Forks returns the fork points in Icount order; the last is the exit
// state.
func (r *Recording) Forks() []*ForkPoint { return r.forks }

// FirstTouch returns the Icount of the first recorded instruction that
// touched any byte of [addr, addr+n), 0 when none did. Bytes outside
// the recorded span count as touched by instruction 1.
func (r *Recording) FirstTouch(addr, n uint32) uint32 {
	t := uint32(0)
	for i := uint32(0); i < n; i++ {
		off := addr + i - r.lo
		if off >= uint32(len(r.first)) {
			return 1
		}
		if f := r.first[off]; f != 0 && (t == 0 || f < t) {
			t = f
		}
	}
	return t
}

// Before returns the last fork point taken before instruction t, the
// first touch of whatever differs from the recorded run: t = 0 (never
// touched) selects the exit state. Nil means no fork point precedes t,
// and the run starts from the entry point.
func (r *Recording) Before(t uint32) *ForkPoint {
	if len(r.forks) == 0 {
		return nil
	}
	if t == 0 {
		return r.forks[len(r.forks)-1]
	}
	i := sort.Search(len(r.forks), func(i int) bool { return r.forks[i].Icount >= uint64(t) })
	if i == 0 {
		return nil
	}
	return r.forks[i-1]
}
