package gen

import (
	"fmt"
	"slices"
	"strings"

	"parallax/internal/chain"
	"parallax/internal/core"
	"parallax/internal/image"
)

// This file is the shared region-map invariant checker the corpus
// tests run over both the hand-written six programs and every
// generated family. image.Validate covers structural well-formedness
// (bounds, overlap, limits); these checks go further, pinning the
// properties the campaign's region accounting and the rewriting
// passes silently assume:
//
//   - sections are sorted by address and exactly one is executable;
//   - every symbol lies inside a section, function symbols inside
//     executable text;
//   - every relocation site lies in initialized data and the patched
//     dword actually resolves to its symbol (abs32) or encodes the
//     correct displacement (rel32);
//   - protected images carry at least one chain whose gadgets all
//     live in executable text, and ..parallax.* symbols.

// CheckImage verifies the region-map invariants of a linked image.
func CheckImage(img *image.Image) error {
	if img == nil {
		return fmt.Errorf("gen: nil image")
	}
	if err := img.Validate(); err != nil {
		return err
	}

	// Section ordering: strictly ascending, exactly one executable.
	nx := 0
	for i, s := range img.Sections {
		if i > 0 && s.Addr < img.Sections[i-1].End() {
			return fmt.Errorf("gen: section %s at %#x not after %s",
				s.Name, s.Addr, img.Sections[i-1].Name)
		}
		if s.Perm&image.PermX != 0 {
			nx++
		}
	}
	if nx != 1 {
		return fmt.Errorf("gen: %d executable sections, want 1", nx)
	}
	text := img.Text()
	if text == nil {
		return fmt.Errorf("gen: no .text section")
	}

	// Symbols: inside a section; functions inside executable text.
	for _, sym := range img.Symbols {
		sec := img.SectionAt(sym.Addr)
		if sec == nil {
			return fmt.Errorf("gen: symbol %s at %#x outside all sections", sym.Name, sym.Addr)
		}
		if sym.Size > 0 && sym.Addr+sym.Size > sec.End() {
			return fmt.Errorf("gen: symbol %s [%#x,%#x) spills out of %s",
				sym.Name, sym.Addr, sym.Addr+sym.Size, sec.Name)
		}
		if sym.Kind == image.SymFunc && sec.Perm&image.PermX == 0 {
			return fmt.Errorf("gen: function symbol %s in non-executable %s", sym.Name, sec.Name)
		}
	}

	// Relocations: site in initialized data, patched value resolves.
	for _, rel := range img.Relocs {
		raw, err := img.ReadAt(rel.Addr, 4)
		if err != nil {
			return fmt.Errorf("gen: reloc site %#x unreadable: %w", rel.Addr, err)
		}
		target, err := img.Lookup(rel.Sym)
		if err != nil {
			return fmt.Errorf("gen: reloc at %#x: %w", rel.Addr, err)
		}
		got := uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24
		want := target.Addr + uint32(rel.Add)
		if rel.Kind == image.RelocRel32 {
			want -= rel.Addr + 4
		}
		if got != want {
			return fmt.Errorf("gen: reloc at %#x -> %s: patched %#x, want %#x",
				rel.Addr, rel.Sym, got, want)
		}
		tsec := img.SectionAt(target.Addr)
		if tsec == nil {
			return fmt.Errorf("gen: reloc target %s at %#x outside all sections",
				rel.Sym, target.Addr)
		}
	}
	return nil
}

// CheckProtected verifies the protected-image invariants on top of
// CheckImage: chains exist, every chain-used gadget lies inside
// executable text, and the image carries ..parallax.* symbols — the
// two halves of the guard set (core.Protected.Guard) the campaign's
// detection matrix is built on.
func CheckProtected(prot *core.Protected) error {
	if prot == nil || prot.Image == nil {
		return fmt.Errorf("gen: nil protected image")
	}
	if err := CheckImage(prot.Image); err != nil {
		return err
	}
	if len(prot.Chains) == 0 {
		return fmt.Errorf("gen: protected image has no chains")
	}
	for name, ch := range prot.Chains {
		gs := ch.Gadgets()
		if len(gs) == 0 {
			return fmt.Errorf("gen: chain %s has no gadgets", name)
		}
		for _, g := range gs {
			lo, hi := g.Range()
			if hi <= lo {
				return fmt.Errorf("gen: chain %s gadget at %#x has empty range", name, lo)
			}
			sec := prot.Image.SectionAt(lo)
			if sec == nil || sec.Perm&image.PermX == 0 {
				return fmt.Errorf("gen: chain %s gadget [%#x,%#x) outside executable text",
					name, lo, hi)
			}
			if hi > sec.End() {
				return fmt.Errorf("gen: chain %s gadget [%#x,%#x) spills out of %s",
					name, lo, hi, sec.Name)
			}
		}
	}
	if !slices.ContainsFunc(prot.Image.Symbols, func(s image.Symbol) bool { return chain.Owns(s.Name) }) {
		return fmt.Errorf("gen: no ..parallax.* data symbols in protected image")
	}
	return nil
}

// CheckCrossModule verifies that a generated multi-module image
// carries at least one relocation whose site and target live in
// different logical modules (the m<i>_ function clusters) — the
// property that makes Modules > 1 more than a naming convention.
func CheckCrossModule(img *image.Image, p Params) error {
	if p.Modules <= 1 {
		return nil
	}
	for _, rel := range img.Relocs {
		site, ok := img.SymbolAt(rel.Addr)
		if !ok {
			continue
		}
		sm, okSite := moduleOf(site.Name)
		tm, okTgt := moduleOf(rel.Sym)
		if okSite && okTgt && sm != tm {
			return nil
		}
	}
	return fmt.Errorf("gen: no cross-module relocations in a %d-module image", p.Modules)
}

// moduleOf parses the module index out of a generated function name
// ("m3_f0042" -> 3).
func moduleOf(name string) (int, bool) {
	if !strings.HasPrefix(name, "m") {
		return 0, false
	}
	us := strings.IndexByte(name, '_')
	if us < 2 {
		return 0, false
	}
	n := 0
	for _, c := range name[1:us] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
