package gadget

import (
	"sort"

	"parallax/internal/image"
	"parallax/internal/x86"
)

// The scanner's limits. Gadgets ending in retf are always scanned
// (§IV-B5).
const (
	// maxInsts is the longest considered gadget in instructions,
	// the return included: the paper's §VII-A limit ("we limited the
	// length of the considered gadgets to six instructions").
	maxInsts = 6
	// maxBytes bounds a gadget's byte length.
	maxBytes = 24
)

// ScanBytes finds every gadget in code (loaded at base): for each byte
// offset, decode forward; a sequence of at most maxInsts instructions
// ending in ret/retf is a candidate, which the classifier then types.
func ScanBytes(code []byte, base uint32) []*Gadget {
	return scanSection(code, base, nil, nil)
}

// scanSection scans code (loaded at base) given prevCode, the same
// section's bytes at an earlier scan, and prev, the gadgets that scan
// found, sorted by address. A gadget at offset off is a pure function
// of base, code[off:off+maxBytes] and len(code), so only the offsets
// within maxBytes before a changed byte are scanned again; every other
// gadget of prev is reused as is. A nil prevCode (a full scan) makes
// every offset dirty. Each dirty span is scanned through a reach
// table that decodes every offset once (see reachTable). The Aligned
// bits come from a fresh linear sweep, which on a full scan reads its
// instruction lengths from that table; a reused gadget whose bit flips
// is cloned rather than mutated.
func scanSection(code []byte, base uint32, prevCode []byte, prev []*Gadget) []*Gadget {
	var aligned []bool
	if prevCode != nil {
		aligned = alignedStarts(len(code), func(off int) int {
			inst, err := x86.Decode(code[off:], base+uint32(off))
			if err != nil {
				return 0
			}
			return inst.Len
		})
	}
	out := make([]*Gadget, 0, len(prev))
	// keep reuses the gadgets of prev below offset end.
	keep := func(end int) {
		for ; len(prev) > 0 && int(prev[0].Addr-base) < end; prev = prev[1:] {
			g := prev[0]
			if a := aligned[g.Addr-base]; a != g.Aligned {
				c := *g
				c.Aligned = a
				g = &c
			}
			out = append(out, g)
		}
	}
	for _, d := range dirtySpans(code, prevCode) {
		keep(d.lo)
		for len(prev) > 0 && int(prev[0].Addr-base) < d.hi {
			prev = prev[1:] // stale: rescanned below
		}
		t := newReachTable(code, base, d)
		if aligned == nil {
			// A full scan: the one span's table covers the section.
			aligned = alignedStarts(len(code), t.instLen)
		}
		for off := d.lo; off < d.hi; off++ {
			if g := t.gadget(code, base, off); g != nil {
				g.Aligned = aligned[off]
				out = append(out, g)
			}
		}
	}
	keep(len(code))
	return out
}

// alignedStarts marks the instruction starts of a linear sweep over n
// bytes, so gadgets can report whether they hide inside the
// instruction stream. instLen gives the length of the instruction
// decoded at an offset, or 0 where decoding fails; the sweep steps one
// byte past a failure.
func alignedStarts(n int, instLen func(off int) int) []bool {
	aligned := make([]bool, n)
	for off := 0; off < n; off += max(instLen(off), 1) {
		aligned[off] = true
	}
	return aligned
}

// reachTable decodes each offset of one dirty span once. A gadget
// candidate starting at off decodes along the fixed successor walk
// pos -> pos+Len, because the instruction at pos depends only on pos;
// so each offset's candidate follows from its own instruction and its
// successor's entry. The table covers [lo, min(hi+maxBytes, len(code)))
// for a span [lo, hi), filled right to left.
type reachTable struct {
	lo    int
	lens  []uint8 // instruction length at lo+i; 0 for a decode error
	reach []reach
}

// reach is the walk from one offset up to and including its first
// return: n instructions over b bytes, or n == 0 when the walk fails
// first (a decode error, the section's end) or exceeds maxInsts or
// maxBytes. b never exceeds the section's length, which fits an
// address, and n never exceeds b.
type reach struct{ n, b uint32 }

// newReachTable decodes the offsets of span d.
func newReachTable(code []byte, base uint32, d span) *reachTable {
	end := min(d.hi+maxBytes, len(code))
	t := &reachTable{lo: d.lo, lens: make([]uint8, end-d.lo), reach: make([]reach, end-d.lo)}
	for p := end - 1; p >= d.lo; p-- {
		i := p - d.lo
		inst, err := x86.Decode(code[p:], base+uint32(p))
		if err != nil {
			continue
		}
		t.lens[i] = uint8(inst.Len)
		var r reach
		switch {
		case inst.Op == x86.RET || inst.Op == x86.RETF:
			r = reach{1, uint32(inst.Len)}
		case p+inst.Len < end:
			// A walk whose next instruction starts at or past end
			// has run past the section or past maxBytes from every
			// start in the span, so it has no gadget.
			if next := t.reach[i+inst.Len]; next.n != 0 {
				r = reach{next.n + 1, next.b + uint32(inst.Len)}
			}
		}
		if r.n <= maxInsts && r.b <= maxBytes {
			t.reach[i] = r
		}
	}
	return t
}

// instLen returns the length of the instruction at offset off, or 0
// where decoding fails.
func (t *reachTable) instLen(off int) int { return int(t.lens[off-t.lo]) }

// gadget returns the classified gadget starting at offset off, or nil.
// Only an offset whose walk reaches a return decodes again, into a
// slice of exactly its instruction count.
func (t *reachTable) gadget(code []byte, base uint32, off int) *Gadget {
	r := t.reach[off-t.lo]
	if r.n == 0 {
		return nil
	}
	g := &Gadget{Addr: base + uint32(off), Len: int(r.b), Insts: make([]x86.Inst, r.n)}
	for k, pos := 0, off; k < len(g.Insts); k++ {
		// The table decoded every offset of this walk without error.
		g.Insts[k], _ = x86.Decode(code[pos:], base+uint32(pos))
		pos += g.Insts[k].Len
	}
	if !classify(g) {
		return nil
	}
	return g
}

// span is a half-open offset range [lo, hi).
type span struct{ lo, hi int }

// dirtySpans returns the sorted, disjoint offset ranges whose gadgets
// may differ between prev and code, which have the same length: the
// window (i-maxBytes, i] around every byte i that differs. A nil prev
// makes the whole of code dirty.
func dirtySpans(code, prev []byte) []span {
	if prev == nil {
		return []span{{0, len(code)}}
	}
	var out []span
	for i := range code {
		if code[i] == prev[i] {
			continue
		}
		lo := max(i-maxBytes+1, 0)
		if n := len(out); n > 0 && out[n-1].hi >= lo {
			out[n-1].hi = i + 1
		} else {
			out = append(out, span{lo, i + 1})
		}
	}
	return out
}

// Scan finds and indexes all gadgets in an image's executable sections.
func Scan(img *image.Image) *Catalog {
	return Rescan(img, nil, nil)
}

// Rescan returns the same catalog as Scan(img), reusing the work of an
// earlier scan: prev is the catalog Scan or Rescan returned for
// prevImg. An executable section of img with the same address and
// length as one of prevImg is rescanned only around the bytes that
// differ; any other section, or a nil prev, is scanned in full.
// prevImg's bytes must not have changed since prev was scanned from
// them. Neither prev nor its gadgets are modified: the result shares
// unchanged gadgets.
func Rescan(img, prevImg *image.Image, prev *Catalog) *Catalog {
	if prev == nil {
		prevImg = nil
	}
	var all []*Gadget
	for _, s := range img.Sections {
		if s.Perm&image.PermX == 0 {
			continue
		}
		var prevCode []byte
		var prevGadgets []*Gadget
		if ps := execSection(prevImg, s.Addr, len(s.Data)); ps != nil {
			prevCode, prevGadgets = ps.Data, prev.within(s.Addr, s.Addr+uint32(len(s.Data)))
		}
		all = append(all, scanSection(s.Data, s.Addr, prevCode, prevGadgets)...)
	}
	c := NewCatalog(all)
	c.Sort()
	return c
}

// execSection returns img's executable section at addr with n bytes
// of data, or nil (always nil for a nil img).
func execSection(img *image.Image, addr uint32, n int) *image.Section {
	if img == nil {
		return nil
	}
	for _, s := range img.Sections {
		if s.Perm&image.PermX != 0 && s.Addr == addr && len(s.Data) == n {
			return s
		}
	}
	return nil
}

// within returns the gadgets starting in [lo, hi) of a sorted catalog.
func (c *Catalog) within(lo, hi uint32) []*Gadget {
	gs := c.Gadgets
	i := sort.Search(len(gs), func(k int) bool { return gs[k].Addr >= lo })
	j := sort.Search(len(gs), func(k int) bool { return gs[k].Addr >= hi })
	return gs[i:j]
}
