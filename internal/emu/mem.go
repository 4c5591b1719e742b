// Package emu implements a 32-bit x86 interpreter: registers, EFLAGS,
// a segmented flat memory bus, Linux-style int 0x80 system calls, and
// deterministic instruction/cycle accounting.
//
// The emulator is the testbed substituting for the paper's real
// hardware: ROP chains, stack pivots and tampered gadgets execute here
// exactly as encoded byte streams, so integrity violations manifest as
// genuine malfunctions (wrong results, decode faults, memory faults)
// rather than simulated flags.
//
// The bus distinguishes instruction fetches from data reads and supports
// a fetch overlay, reproducing the split instruction-/data-cache view
// exploited by the Wurster et al. attack on checksumming schemes.
package emu

import (
	"bytes"
	"fmt"

	"parallax/internal/image"
)

// Access is a memory access flavor.
type Access uint8

// Access flavors.
const (
	AccessRead Access = iota
	AccessWrite
	AccessFetch
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return "fetch"
	}
}

// FaultError is a memory access violation.
type FaultError struct {
	Addr   uint32
	EIP    uint32
	Access Access
	Reason string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("emu: %s fault at %#x (eip=%#x): %s", e.Access, e.Addr, e.EIP, e.Reason)
}

// PageSize is the dirty-tracking granularity of Snapshot/Restore:
// writes are recorded per 4 KiB page, and Restore copies back only the
// pages a run touched.
const PageSize = 4096

// Segment is one mapped address range.
type Segment struct {
	Name string
	Addr uint32
	Data []byte
	Perm image.Perm

	// dirty is the per-page write bitmap (one bit per PageSize page),
	// armed by CPU.Snapshot and consumed by CPU.Restore. Nil when no
	// snapshot is active, so untracked stores cost one nil check.
	dirty []uint64
}

// End returns the first address past the segment.
func (s *Segment) End() uint32 { return s.Addr + uint32(len(s.Data)) }

// markDirty records a write to [off, off+n) in the page bitmap.
func (s *Segment) markDirty(off, n uint32) {
	if s.dirty == nil || n == 0 {
		return
	}
	for p := off / PageSize; p <= (off+n-1)/PageSize; p++ {
		s.dirty[p>>6] |= 1 << (p & 63)
	}
}

// MemBudgetError reports a Map that would take the address space past
// its configured byte budget.
type MemBudgetError struct {
	Segment   string
	Requested uint64 // bytes the rejected segment asked for
	Mapped    uint64 // bytes already mapped
	Budget    uint64
}

func (e *MemBudgetError) Error() string {
	return fmt.Sprintf("emu: mapping %q (%d bytes) exceeds memory budget (%d of %d bytes mapped)",
		e.Segment, e.Requested, e.Mapped, e.Budget)
}

// Memory is a flat 32-bit address space composed of non-overlapping
// segments.
type Memory struct {
	segs []*Segment
	last *Segment // single-entry lookup cache

	// Budget caps the total mapped bytes; 0 means unlimited. Exceeding
	// it makes Map fail with a *MemBudgetError.
	Budget uint64
	mapped uint64

	// onInval is the code-invalidation bus: every mutation of executable
	// bytes — stores, Poke, CPU.Patch, Restore copying baseline pages
	// back — notifies each registered hook with the affected range.
	onInval  []codeInvalHook
	invalSeq uint64

	// rec, when non-nil, is the Recording CPU.Record attached: check
	// feeds it every data read and write (the tb engine feeds it
	// fetches). Nil costs one check per access.
	rec *Recording
}

// codeInvalHook is one registered code-invalidation callback.
type codeInvalHook struct {
	id uint64
	fn func(lo, hi uint32)
}

// OnCodeInvalidate registers fn to be called whenever executable bytes
// in some range [lo, hi) are modified, through any path: ordinary
// stores into a PermX segment, Poke, CPU.Patch, or CPU.Restore copying
// snapshot baselines back over a dirtied executable page. Consumers
// that cache anything derived from code bytes (decoded instructions,
// translated blocks) register here and evict precisely instead of
// hardcoding calls into each mutation site.
//
// The range is half-open on both sides of the bus, by convention:
// every producer passes [first modified byte, one past the last) —
// stores report [addr, addr+n), Poke the union of its executable
// writes, Restore [page start, page end) per copied-back page — and
// every subscriber must treat hi as exclusive (a cached range [a, b)
// overlaps iff a < hi && lo < b). The boundary-byte regression tests
// in internal/emu/tb hold both directions of that contract.
//
// The returned cancel function unregisters fn; after cancel returns,
// the hook is never invoked again (including by later Snapshot/Restore
// cycles). Hooks run synchronously on the mutating goroutine and must
// not mutate memory themselves.
func (m *Memory) OnCodeInvalidate(fn func(lo, hi uint32)) (cancel func()) {
	m.invalSeq++
	id := m.invalSeq
	m.onInval = append(m.onInval, codeInvalHook{id: id, fn: fn})
	return func() {
		for i := range m.onInval {
			if m.onInval[i].id == id {
				m.onInval = append(m.onInval[:i], m.onInval[i+1:]...)
				return
			}
		}
	}
}

// notifyCodeInvalidate fans the modified range out to every
// registered hook.
func (m *Memory) notifyCodeInvalidate(lo, hi uint32) {
	for i := range m.onInval {
		m.onInval[i].fn(lo, hi)
	}
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{} }

// Map adds a segment. Overlapping an existing segment is an error.
func (m *Memory) Map(name string, addr uint32, size uint32, perm image.Perm) (*Segment, error) {
	if size == 0 {
		return nil, fmt.Errorf("emu: segment %q has zero size", name)
	}
	if addr+size < addr {
		return nil, fmt.Errorf("emu: segment %q wraps the address space", name)
	}
	for _, s := range m.segs {
		if addr < s.End() && s.Addr < addr+size {
			return nil, fmt.Errorf("emu: segment %q [%#x,%#x) overlaps %q [%#x,%#x)",
				name, addr, addr+size, s.Name, s.Addr, s.End())
		}
	}
	if m.Budget != 0 && m.mapped+uint64(size) > m.Budget {
		return nil, &MemBudgetError{Segment: name, Requested: uint64(size),
			Mapped: m.mapped, Budget: m.Budget}
	}
	m.mapped += uint64(size)
	seg := &Segment{Name: name, Addr: addr, Data: make([]byte, size), Perm: perm}
	m.segs = append(m.segs, seg)
	return seg, nil
}

// Segment returns the segment containing addr, or nil.
func (m *Memory) Segment(addr uint32) *Segment {
	if s := m.last; s != nil && addr >= s.Addr && addr < s.End() {
		return s
	}
	for _, s := range m.segs {
		if addr >= s.Addr && addr < s.End() {
			m.last = s
			return s
		}
	}
	return nil
}

// SegmentByName returns the named segment, or nil.
func (m *Memory) SegmentByName(name string) *Segment {
	for _, s := range m.segs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func permFor(a Access) image.Perm {
	switch a {
	case AccessRead:
		return image.PermR
	case AccessWrite:
		return image.PermW
	default:
		return image.PermX
	}
}

// check resolves addr..addr+n-1 for the given access, returning the
// segment-relative slice.
func (m *Memory) check(addr uint32, n uint32, access Access, eip uint32) ([]byte, error) {
	s := m.Segment(addr)
	if s == nil {
		return nil, &FaultError{Addr: addr, EIP: eip, Access: access, Reason: "unmapped"}
	}
	if addr+n > s.End() || addr+n < addr {
		return nil, &FaultError{Addr: addr, EIP: eip, Access: access,
			Reason: "crosses segment boundary"}
	}
	if s.Perm&permFor(access) == 0 {
		return nil, &FaultError{Addr: addr, EIP: eip, Access: access,
			Reason: fmt.Sprintf("segment %s is %s", s.Name, s.Perm)}
	}
	off := addr - s.Addr
	if m.rec != nil && access != AccessFetch {
		// The published Icount is the accessing instruction's on a
		// fallback or syscall, and a chained tb run's start otherwise:
		// never later than the access. It is 0 inside the run's first
		// chain, and 0 means never touched, so the mark is at least 1.
		m.rec.mark(addr, n, uint32(max(m.rec.cpu.Icount, 1)))
	}
	if access == AccessWrite {
		// The caller is about to mutate the returned slice: record the
		// touched pages for Restore and, when the segment is executable
		// (a self-modifying program writing its own code), tell every
		// invalidation hook which code bytes are about to change.
		s.markDirty(off, n)
		if s.Perm&image.PermX != 0 {
			m.notifyCodeInvalidate(addr, addr+n)
		}
	}
	return s.Data[off : off+n], nil
}

// Read copies n bytes at addr as a data read.
func (m *Memory) Read(addr, n uint32, eip uint32) ([]byte, error) {
	b, err := m.check(addr, n, AccessRead, eip)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// Load32 reads a little-endian dword.
func (m *Memory) Load32(addr uint32, eip uint32) (uint32, error) {
	b, err := m.check(addr, 4, AccessRead, eip)
	if err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// Load16 reads a little-endian word.
func (m *Memory) Load16(addr uint32, eip uint32) (uint16, error) {
	b, err := m.check(addr, 2, AccessRead, eip)
	if err != nil {
		return 0, err
	}
	return uint16(b[0]) | uint16(b[1])<<8, nil
}

// Load8 reads a byte.
func (m *Memory) Load8(addr uint32, eip uint32) (uint8, error) {
	b, err := m.check(addr, 1, AccessRead, eip)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Store32 writes a little-endian dword.
func (m *Memory) Store32(addr uint32, v uint32, eip uint32) error {
	b, err := m.check(addr, 4, AccessWrite, eip)
	if err != nil {
		return err
	}
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

// Store16 writes a little-endian word.
func (m *Memory) Store16(addr uint32, v uint16, eip uint32) error {
	b, err := m.check(addr, 2, AccessWrite, eip)
	if err != nil {
		return err
	}
	b[0], b[1] = byte(v), byte(v>>8)
	return nil
}

// Store8 writes a byte.
func (m *Memory) Store8(addr uint32, v uint8, eip uint32) error {
	b, err := m.check(addr, 1, AccessWrite, eip)
	if err != nil {
		return err
	}
	b[0] = v
	return nil
}

// Poke writes bytes ignoring permissions. It models out-of-band
// modification: a debugger poking text, or an attacker patching the
// binary on disk. Returns an error only for unmapped addresses.
func (m *Memory) Poke(addr uint32, b []byte) error {
	touchedCode := false
	var codeLo, codeHi uint32
	// The invalidation must fire even when a later byte faults: the
	// bytes already written stay written.
	defer func() {
		if touchedCode {
			m.notifyCodeInvalidate(codeLo, codeHi)
		}
	}()
	for i, v := range b {
		a := addr + uint32(i)
		s := m.Segment(a)
		if s == nil {
			return &FaultError{Addr: a, Access: AccessWrite, Reason: "unmapped (poke)"}
		}
		off := a - s.Addr
		s.Data[off] = v
		s.markDirty(off, 1)
		if s.Perm&image.PermX != 0 {
			if !touchedCode {
				codeLo = a
			}
			touchedCode = true
			codeHi = a + 1
		}
	}
	return nil
}

// EqualAt reports whether the n bytes at addr equal b, ignoring
// permissions (the read-side counterpart of Poke). Unmapped bytes in
// the range make it false. It allocates nothing: the shared
// translation catalog uses it to verify a candidate translation's code
// bytes against live memory on every adoption.
func (m *Memory) EqualAt(addr uint32, b []byte) bool {
	for len(b) > 0 {
		s := m.Segment(addr)
		if s == nil {
			return false
		}
		off := addr - s.Addr
		n := uint32(len(s.Data)) - off
		if uint32(len(b)) < n {
			n = uint32(len(b))
		}
		if !bytes.Equal(b[:n], s.Data[off:off+n]) {
			return false
		}
		addr += n
		b = b[n:]
	}
	return true
}

// Peek reads bytes ignoring permissions.
func (m *Memory) Peek(addr uint32, n uint32) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint32(i)
		s := m.Segment(a)
		if s == nil {
			return nil, &FaultError{Addr: a, Access: AccessRead, Reason: "unmapped (peek)"}
		}
		out[i] = s.Data[a-s.Addr]
	}
	return out, nil
}
