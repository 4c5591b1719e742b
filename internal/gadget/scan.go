package gadget

import (
	"math/bits"
	"slices"
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
	gs, _ := scanSection(code, base, nil, nil, nil)
	return gs
}

// scanSection scans code (loaded at base) given prevCode, the same
// section's bytes at an earlier scan, and that scan's result: starts,
// its linear-sweep instruction starts, and prev, its gadgets sorted by
// address. It returns the gadgets and the instruction starts of code.
// A gadget at offset off is a pure function of base,
// code[off:off+maxBytes] and len(code), so only the offsets within
// maxBytes before a changed byte are scanned again; every other gadget
// of prev is reused as is. A nil prevCode (a full scan) makes every
// offset dirty. Each dirty span is scanned through a reach table that
// decodes every offset once (see reachTable). The starts come from the
// full scan's reach table or from a re-sweep of starts around the
// changed bytes (see resweep); a reused gadget whose Aligned bit flips
// is cloned rather than mutated.
func scanSection(code []byte, base uint32, prevCode []byte, starts bitset, prev []*Gadget) ([]*Gadget, bitset) {
	spans := []span{{0, len(code)}}
	if prevCode != nil {
		diffs := changedBytes(code, prevCode)
		starts = resweep(code, base, starts, diffs)
		spans = dirtySpans(diffs)
	}
	out := make([]*Gadget, 0, len(prev))
	// keep reuses the gadgets of prev below offset end.
	keep := func(end int) {
		for ; len(prev) > 0 && int(prev[0].Addr-base) < end; prev = prev[1:] {
			g := prev[0]
			if a := starts.has(int(g.Addr - base)); a != g.Aligned {
				c := *g
				c.Aligned = a
				g = &c
			}
			out = append(out, g)
		}
	}
	var s scanner
	for _, d := range spans {
		keep(d.lo)
		for len(prev) > 0 && int(prev[0].Addr-base) < d.hi {
			prev = prev[1:] // stale: rescanned below
		}
		t := newReachTable(code, base, d)
		if prevCode == nil {
			// A full scan: the one span's table covers the section.
			starts = alignedStarts(t.lens)
		}
		out = s.appendSpan(out, code, base, t, d, starts)
	}
	keep(len(code))
	return out, starts
}

// alignedStarts marks the instruction starts of a linear sweep, so
// gadgets can report whether they hide inside the instruction stream.
// lens gives the length of the instruction decoded at each offset, or
// 0 where decoding fails; the sweep steps one byte past a failure.
func alignedStarts(lens []uint8) bitset {
	starts := newBitset(len(lens))
	for off := 0; off < len(lens); off += max(int(lens[off]), 1) {
		starts.set(off)
	}
	return starts
}

// resweep returns the linear sweep's instruction starts over code,
// given old, the starts over prev, which has code's length, and diffs,
// the sorted offsets at which code and prev differ. The instruction at
// a start s, its length or its decode failure, depends only on
// code[s:s+x86.MaxInstLen] (and the section's length), so the two
// sweeps take the same steps until the first old start at or after
// i-(MaxInstLen-1) for a changed byte i: the re-sweep restarts there.
// It resynchronizes at the first start of both sweeps whose next
// MaxInstLen bytes are unchanged, past which the sweeps agree up to
// the next restart. Only the re-swept instructions are decoded.
func resweep(code []byte, base uint32, old bitset, diffs []int) bitset {
	starts := slices.Clone(old)
	n := len(code)
	// p is a start of the new sweep, whose starts below p are final.
	for p, d := 0, 0; p < n; {
		for d < len(diffs) && diffs[d] < p {
			d++
		}
		if old.has(p) && (d == len(diffs) || diffs[d] >= p+x86.MaxInstLen) {
			if d == len(diffs) {
				break
			}
			p = old.next(diffs[d] - (x86.MaxInstLen - 1))
			continue
		}
		l := 1
		if inst, ok := x86.TryDecode(code[p:], base+uint32(p)); ok {
			l = inst.Len
		}
		starts.set(p)
		for q := p + 1; q < min(p+l, n); q++ {
			starts.clear(q)
		}
		p += l
	}
	return starts
}

// bitset is a set of section offsets.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }

// next returns the first member at or after i, or a value past every
// member when there is none.
func (b bitset) next(i int) int {
	w := i >> 6
	if w >= len(b) {
		return len(b) * 64
	}
	if x := b[w] >> (i & 63); x != 0 {
		return i + bits.TrailingZeros64(x)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w*64 + bits.TrailingZeros64(b[w])
		}
	}
	return len(b) * 64
}

// reachTable decodes each offset of one dirty span once. A gadget
// candidate starting at off decodes along the fixed successor walk
// pos -> pos+Len, because the instruction at pos depends only on pos;
// so each offset's candidate follows from its own instruction and its
// successor's entry. The table covers [lo, min(hi+maxBytes, len(code)))
// for a span [lo, hi), filled right to left.
type reachTable struct {
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
	t := &reachTable{lens: make([]uint8, end-d.lo), reach: make([]reach, end-d.lo)}
	for p := end - 1; p >= d.lo; p-- {
		i := p - d.lo
		inst, ok := x86.TryDecode(code[p:], base+uint32(p))
		if !ok {
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

// scanner classifies the candidates of one section's dirty spans with
// one evaluator, decoding each candidate into its own buffer.
type scanner struct {
	ev  evaluator
	buf [maxInsts]x86.Inst
}

// appendSpan appends to out the classified gadgets starting in span d,
// which t covers, with their Aligned bits from starts. Only an offset
// whose walk reaches a return decodes again. A gadget that classifies
// is copied into slabs of Gadget and x86.Inst sized for every such
// candidate of the span, so the span costs two allocations however
// many gadgets it holds, and any gadget of the span keeps both alive.
func (s *scanner) appendSpan(out []*Gadget, code []byte, base uint32, t *reachTable, d span, starts bitset) []*Gadget {
	reach := t.reach[:d.hi-d.lo]
	nCand, nInsts := 0, 0
	for _, r := range reach {
		if r.n != 0 {
			nCand++
			nInsts += int(r.n)
		}
	}
	out = slices.Grow(out, nCand)
	gs := make([]Gadget, 0, nCand)
	insts := make([]x86.Inst, 0, nInsts)
	for i, r := range reach {
		if r.n == 0 {
			continue
		}
		off := d.lo + i
		g := Gadget{Addr: base + uint32(off), Len: int(r.b), Insts: s.buf[:r.n]}
		for k, pos := 0, off; k < len(g.Insts); k++ {
			// The table decoded every offset of this walk without error.
			g.Insts[k], _ = x86.TryDecode(code[pos:], base+uint32(pos))
			pos += g.Insts[k].Len
		}
		if !s.ev.classify(&g) {
			continue
		}
		g.Aligned = starts.has(off)
		k := len(insts)
		insts = append(insts, g.Insts...)
		g.Insts = insts[k:len(insts):len(insts)]
		gs = append(gs, g)
		out = append(out, &gs[len(gs)-1])
	}
	return out
}

// span is a half-open offset range [lo, hi).
type span struct{ lo, hi int }

// changedBytes returns the sorted offsets at which code and prev,
// which have the same length, differ.
func changedBytes(code, prev []byte) []int {
	var out []int
	for i := range code {
		if code[i] != prev[i] {
			out = append(out, i)
		}
	}
	return out
}

// dirtySpans returns the sorted, disjoint offset ranges whose gadgets
// may differ, given the sorted changed offsets: the window
// (i-maxBytes, i] around every changed byte i.
func dirtySpans(diffs []int) []span {
	var out []span
	for _, i := range diffs {
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
	var sweeps []sweep
	for _, s := range img.Sections {
		if s.Perm&image.PermX == 0 {
			continue
		}
		var prevCode []byte
		var prevStarts bitset
		var prevGadgets []*Gadget
		if ps := execSection(prevImg, s.Addr, len(s.Data)); ps != nil {
			if st, ok := prev.starts(s.Addr); ok {
				prevCode, prevStarts = ps.Data, st
				prevGadgets = prev.within(s.Addr, s.Addr+uint32(len(s.Data)))
			}
		}
		gs, starts := scanSection(s.Data, s.Addr, prevCode, prevStarts, prevGadgets)
		all = append(all, gs...)
		sweeps = append(sweeps, sweep{s.Addr, starts})
	}
	c := NewCatalog(all)
	c.sweeps = sweeps
	c.Sort()
	return c
}

// sweep is one executable section's linear-sweep instruction starts.
type sweep struct {
	addr   uint32
	starts bitset
}

// starts returns the instruction starts of the scanned section at addr.
func (c *Catalog) starts(addr uint32) (bitset, bool) {
	for _, s := range c.sweeps {
		if s.addr == addr {
			return s.starts, true
		}
	}
	return nil, false
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
