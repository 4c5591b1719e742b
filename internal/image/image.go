// Package image defines the executable container used throughout this
// repository: a loaded Image (sections, symbols, relocations) plus the
// relocatable Object form that the code generator emits and the linker
// turns into an Image.
//
// The format plays the role ELF plays for the paper's prototype. It is
// deliberately minimal: Parallax needs section bytes, symbol addresses
// and relocation fix-ups — nothing more.
package image

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Perm is a section permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Section is a contiguous address range with uniform permissions.
type Section struct {
	Name string
	Addr uint32
	Data []byte // initialized bytes; may be shorter than Size (rest is zero)
	Size uint32 // total size in memory
	Perm Perm
}

// End returns the first address past the section.
func (s *Section) End() uint32 { return s.Addr + s.Size }

// Contains reports whether addr falls inside the section.
func (s *Section) Contains(addr uint32) bool {
	return addr >= s.Addr && addr < s.End()
}

// SymKind distinguishes function symbols from data objects.
type SymKind uint8

// Symbol kinds.
const (
	SymFunc SymKind = iota
	SymObject
)

// Symbol names an address range in the image.
type Symbol struct {
	Name string
	Addr uint32
	Size uint32
	Kind SymKind
}

// Internal reports whether name is a toolchain-internal symbol: one
// the protection and baseline passes add (pool, loader stubs, chain
// data, checkers), never the application's own code or data. Every
// such name starts with "..".
func Internal(name string) bool { return strings.HasPrefix(name, "..") }

// RelocKind is the patch flavor of a relocation site.
type RelocKind uint8

// Relocation kinds.
const (
	// RelocAbs32 patches a 4-byte absolute address.
	RelocAbs32 RelocKind = iota
	// RelocRel32 patches a 4-byte displacement relative to the end of
	// the 4-byte site (x86 call/jmp/jcc semantics).
	RelocRel32
)

// Reloc records, post-link, where a symbol reference was patched. The
// rewriting passes use these to re-link after moving code.
type Reloc struct {
	Addr uint32 // address of the 4-byte patch site
	Kind RelocKind
	Sym  string
	Add  int32
}

// Image is a linked, loadable program.
type Image struct {
	Entry    uint32
	Sections []*Section
	Symbols  []Symbol
	Relocs   []Reloc
}

// Section returns the section with the given name, or nil.
func (img *Image) Section(name string) *Section {
	for _, s := range img.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Text returns the executable text section. Every image linked by this
// package has exactly one, named ".text".
func (img *Image) Text() *Section { return img.Section(".text") }

// SectionAt returns the section containing addr, or nil.
func (img *Image) SectionAt(addr uint32) *Section {
	for _, s := range img.Sections {
		if s.Contains(addr) {
			return s
		}
	}
	return nil
}

// Symbol returns the symbol with the given name.
func (img *Image) Symbol(name string) (Symbol, bool) {
	for _, s := range img.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// ErrNoSymbol is the sentinel wrapped by Lookup failures.
var ErrNoSymbol = errors.New("image: no such symbol")

// Lookup is Symbol with an error return: library code paths use it (and
// propagate the %w-wrapped error) instead of MustSymbol, so a missing
// symbol in a malformed or tampered image degrades into an error, not a
// panic.
func (img *Image) Lookup(name string) (Symbol, error) {
	s, ok := img.Symbol(name)
	if !ok {
		return Symbol{}, fmt.Errorf("%w: %q", ErrNoSymbol, name)
	}
	return s, nil
}

// MustSymbol is Symbol for names that are known to exist; it panics when
// the symbol is missing. Tests, examples and CLI front-ends only —
// library code must use Lookup and propagate the error.
func (img *Image) MustSymbol(name string) Symbol {
	s, ok := img.Symbol(name)
	if !ok {
		panic(fmt.Sprintf("image: missing symbol %q", name))
	}
	return s
}

// SymbolAt returns the symbol whose range covers addr, preferring
// function symbols.
func (img *Image) SymbolAt(addr uint32) (Symbol, bool) {
	var best Symbol
	found := false
	for _, s := range img.Symbols {
		if addr >= s.Addr && addr < s.Addr+s.Size {
			if !found || (s.Kind == SymFunc && best.Kind != SymFunc) {
				best = s
				found = true
			}
		}
	}
	return best, found
}

// Funcs returns all function symbols sorted by address.
func (img *Image) Funcs() []Symbol {
	out := make([]Symbol, 0, len(img.Symbols))
	for _, s := range img.Symbols {
		if s.Kind == SymFunc {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// ReadAt copies length bytes starting at addr from the image's
// initialized section contents. Reads within a section but past its
// initialized data yield zeros (BSS semantics).
func (img *Image) ReadAt(addr, length uint32) ([]byte, error) {
	s := img.SectionAt(addr)
	if s == nil || addr+length > s.End() || addr+length < addr {
		return nil, fmt.Errorf("image: read [%#x,%#x) outside any section", addr, addr+length)
	}
	out := make([]byte, length)
	off := addr - s.Addr
	if off < uint32(len(s.Data)) {
		copy(out, s.Data[off:])
	}
	return out, nil
}

// WriteAt patches bytes at addr in place. The write must fall within a
// single section's initialized data.
func (img *Image) WriteAt(addr uint32, b []byte) error {
	s := img.SectionAt(addr)
	if s == nil {
		return fmt.Errorf("image: write at %#x outside any section", addr)
	}
	off := addr - s.Addr
	if off+uint32(len(b)) > uint32(len(s.Data)) {
		return fmt.Errorf("image: write [%#x,%#x) past initialized data of %s",
			addr, addr+uint32(len(b)), s.Name)
	}
	copy(s.Data[off:], b)
	return nil
}

// Clone returns a deep copy of the image. Protection and attack passes
// mutate clones, leaving the original intact.
func (img *Image) Clone() *Image {
	out := &Image{Entry: img.Entry}
	out.Sections = make([]*Section, len(img.Sections))
	for i, s := range img.Sections {
		ns := *s
		ns.Data = append([]byte(nil), s.Data...)
		out.Sections[i] = &ns
	}
	out.Symbols = append([]Symbol(nil), img.Symbols...)
	out.Relocs = append([]Reloc(nil), img.Relocs...)
	return out
}
