package emu

import "parallax/internal/x86"

// Snapshot is a point-in-time capture of a CPU and its address space,
// taken with CPU.Snapshot and replayed with CPU.Restore. It exists to
// make tamper campaigns cheap: instead of re-cloning and re-loading the
// protected image for every mutant, a worker loads once, snapshots, and
// between mutants copies back only the 4 KiB pages the previous run
// dirtied.
//
// Taking a snapshot arms per-page dirty tracking on every segment of
// the CPU's memory. The tracking assumes the segment set is fixed: a
// Map after Snapshot leaves the new segment untracked and unrestored.
// Taking a new Snapshot supersedes any previous one for the same CPU.
type Snapshot struct {
	reg    [x86.NumRegs]uint32
	eip    uint32
	flags  uint32
	icount uint64
	cycles uint64
	exited bool
	status int32

	segs []segBaseline
}

// segBaseline pairs a live segment with its byte image at snapshot
// time.
type segBaseline struct {
	seg      *Segment
	baseline []byte
}

// RestoreStats reports what one Restore had to undo.
type RestoreStats struct {
	// DirtyPages is the number of 4 KiB pages copied back.
	DirtyPages int
}

// Snapshot captures the CPU state (registers, EIP, EFLAGS, counters,
// exit state) and a baseline of every mapped segment, and arms
// per-page dirty tracking so a later Restore can copy back only what
// ran since. It does not capture the fetch overlay: Restore leaves an
// armed overlay as it finds it.
func (c *CPU) Snapshot() *Snapshot {
	s := &Snapshot{
		reg:    c.Reg,
		eip:    c.EIP,
		flags:  c.Flags(),
		icount: c.Icount,
		cycles: c.Cycles,
		exited: c.Exited,
		status: c.Status,
	}
	s.segs = make([]segBaseline, 0, len(c.Mem.segs))
	for _, seg := range c.Mem.segs {
		seg.trackDirty()
		s.segs = append(s.segs, segBaseline{
			seg:      seg,
			baseline: append([]byte(nil), seg.Data...),
		})
	}
	return s
}

// trackDirty arms the segment's per-page write bitmap, cleared.
func (seg *Segment) trackDirty() {
	pages := (uint32(len(seg.Data)) + PageSize - 1) / PageSize
	words := (pages + 63) / 64
	if seg.dirty == nil || uint32(len(seg.dirty)) != words {
		seg.dirty = make([]uint64, words)
	} else {
		clear(seg.dirty)
	}
}

// Restore rewinds the CPU to the snapshot point: every dirty page is
// copied back from the baseline, the dirty bitmaps are cleared, and
// register/flag/counter/exit state is reset. Each restored executable
// page is announced on the memory bus's code-invalidation hook, so
// every consumer — this CPU's decode cache, any attached translation
// engine — drops what the copy-back rewrote (those entries describe
// the mutated bytes, not the restored ones); a translation engine
// keeps the rest warm across mutants.
//
// The snapshot must have been taken from this CPU.
func (c *CPU) Restore(s *Snapshot) RestoreStats {
	var st RestoreStats
	for _, sb := range s.segs {
		seg := sb.seg
		size := uint32(len(seg.Data))
		exec := seg.Perm&permFor(AccessFetch) != 0
		for w, bits := range seg.dirty {
			if bits == 0 {
				continue
			}
			for b := uint32(0); b < 64; b++ {
				if bits&(1<<b) == 0 {
					continue
				}
				p := uint32(w)*64 + b
				lo := p * PageSize
				hi := lo + PageSize
				if hi > size {
					hi = size
				}
				copy(seg.Data[lo:hi], sb.baseline[lo:hi])
				st.DirtyPages++
				if exec {
					c.Mem.notifyCodeInvalidate(seg.Addr+lo, seg.Addr+hi)
				}
			}
			seg.dirty[w] = 0
		}
	}
	c.Reg = s.reg
	c.EIP = s.eip
	c.SetFlags(s.flags)
	c.Icount = s.icount
	c.Cycles = s.cycles
	c.Exited = s.exited
	c.Status = s.status
	if c.profile != nil {
		c.profile = make(map[uint32]uint64)
	}
	return st
}
