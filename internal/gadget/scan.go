package gadget

import (
	"sort"

	"parallax/internal/image"
	"parallax/internal/x86"
)

// ScanConfig tunes the gadget scanner.
type ScanConfig struct {
	// MaxInsts is the longest considered gadget in instructions
	// (including the return). Zero means 6, the paper's §VII-A limit
	// ("we limited the length of the considered gadgets to six
	// instructions").
	MaxInsts int
	// MaxBytes bounds a gadget's byte length. Zero means 24.
	MaxBytes int
	// IncludeFar controls whether retf-terminated gadgets are scanned
	// (§IV-B5). Default true; set SkipFar to disable.
	SkipFar bool
}

func (c ScanConfig) withDefaults() ScanConfig {
	if c.MaxInsts == 0 {
		c.MaxInsts = 6
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 24
	}
	return c
}

// ScanBytes finds every gadget in code (loaded at base): for each byte
// offset, decode forward; a sequence of at most MaxInsts instructions
// ending in ret/retf is a candidate, which the classifier then types.
func ScanBytes(code []byte, base uint32, cfg ScanConfig) []*Gadget {
	return scanSection(code, base, cfg.withDefaults(), nil, nil)
}

// scanSection scans code (loaded at base) given prevCode, the same
// section's bytes at an earlier scan, and prev, the gadgets that scan
// found, sorted by address. A gadget at offset off is a pure function
// of base, code[off:off+MaxBytes] and len(code), so only the offsets
// within MaxBytes before a changed byte are decoded again; every other
// gadget of prev is reused as is. The Aligned bits come from a fresh
// linear sweep, and a reused gadget whose bit flips is cloned rather
// than mutated. A nil prevCode (a full scan) makes every offset dirty.
func scanSection(code []byte, base uint32, cfg ScanConfig, prevCode []byte, prev []*Gadget) []*Gadget {
	aligned := alignedStarts(code, base)
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
	for _, d := range dirtySpans(code, prevCode, cfg.MaxBytes) {
		keep(d.lo)
		for len(prev) > 0 && int(prev[0].Addr-base) < d.hi {
			prev = prev[1:] // stale: rescanned below
		}
		for off := d.lo; off < d.hi; off++ {
			if g := scanAt(code, base, off, cfg); g != nil {
				g.Aligned = aligned[off]
				out = append(out, g)
			}
		}
	}
	keep(len(code))
	return out
}

// alignedStarts marks the instruction starts of a linear sweep, so
// gadgets can report whether they hide inside the instruction stream.
func alignedStarts(code []byte, base uint32) []bool {
	aligned := make([]bool, len(code))
	for off := 0; off < len(code); {
		aligned[off] = true
		inst, err := x86.Decode(code[off:], base+uint32(off))
		if err != nil {
			off++
			continue
		}
		off += inst.Len
	}
	return aligned
}

// span is a half-open offset range [lo, hi).
type span struct{ lo, hi int }

// dirtySpans returns the sorted, disjoint offset ranges whose gadgets
// may differ between prev and code, which have the same length: the
// window (i-maxBytes, i] around every byte i that differs. A nil prev
// makes the whole of code dirty.
func dirtySpans(code, prev []byte, maxBytes int) []span {
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

// scanAt decodes a gadget candidate starting at offset off.
func scanAt(code []byte, base uint32, off int, cfg ScanConfig) *Gadget {
	var insts []x86.Inst
	pos := off
	for len(insts) < cfg.MaxInsts {
		if pos-off >= cfg.MaxBytes || pos >= len(code) {
			return nil
		}
		inst, err := x86.Decode(code[pos:], base+uint32(pos))
		if err != nil {
			return nil
		}
		if pos-off+inst.Len > cfg.MaxBytes {
			return nil
		}
		insts = append(insts, inst)
		pos += inst.Len
		if inst.Op == x86.RET || inst.Op == x86.RETF {
			if inst.Op == x86.RETF && cfg.SkipFar {
				return nil
			}
			g := &Gadget{
				Addr:  base + uint32(off),
				Len:   pos - off,
				Insts: insts,
			}
			if !classify(g) {
				return nil
			}
			return g
		}
	}
	return nil
}

// Scan finds and indexes all gadgets in an image's executable sections.
func Scan(img *image.Image, cfg ScanConfig) *Catalog {
	return Rescan(img, cfg, nil, nil)
}

// Rescan returns the same catalog as Scan(img, cfg), reusing the work
// of an earlier scan: prev is the catalog Scan or Rescan returned for
// prevImg under the same cfg. An executable section of img with the
// same address and length as one of prevImg is rescanned only around
// the bytes that differ; any other section, a nil prev, or a prev
// scanned under another cfg is scanned in full. prevImg's bytes must
// not have changed since prev was scanned from them. Neither prev nor
// its gadgets are modified: the result shares unchanged gadgets.
func Rescan(img *image.Image, cfg ScanConfig, prevImg *image.Image, prev *Catalog) *Catalog {
	cfg = cfg.withDefaults()
	if prev == nil || prev.cfg != cfg {
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
		all = append(all, scanSection(s.Data, s.Addr, cfg, prevCode, prevGadgets)...)
	}
	c := NewCatalog(all)
	c.Sort()
	c.cfg = cfg
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
