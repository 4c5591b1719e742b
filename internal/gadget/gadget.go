// Package gadget finds and classifies ROP gadgets: instruction
// sequences of at most six instructions ending in a near or far return,
// at any byte offset of an executable section — aligned with the
// program's real instruction stream or hidden inside it.
//
// Classification assigns each gadget a semantic type ("pop reg",
// "add dst,src", "store [dst],src", ...) via a small symbolic evaluator
// over the decoded instructions, plus safety metadata (clobbered
// registers, incidental memory traffic, stack consumption) that the ROP
// compiler uses to decide whether a gadget is chain-usable.
package gadget

import (
	"fmt"
	"sort"
	"strings"

	"parallax/internal/x86"
)

// Kind is the semantic type of a gadget. The taxonomy follows the
// paper's §III "gadget mapping which categorizes the available gadgets
// into a set of types; for instance, memory stores and register moves".
type Kind uint8

// Gadget kinds.
const (
	// KindOther decodes cleanly to a return but matches no chain-usable
	// pattern. Still valuable for protection (§VII-A counts bytes).
	KindOther Kind = iota
	// KindRet is a bare return (chain no-op).
	KindRet
	// KindPopReg: pop Dst; ret — the constant loader.
	KindPopReg
	// KindMovReg: Dst = Src; ret.
	KindMovReg
	// KindAddReg: Dst += Src; ret.
	KindAddReg
	// KindSubReg: Dst -= Src; ret.
	KindSubReg
	// KindAndReg: Dst &= Src; ret.
	KindAndReg
	// KindOrReg: Dst |= Src; ret.
	KindOrReg
	// KindXorReg: Dst ^= Src; ret.
	KindXorReg
	// KindNegReg: Dst = -Dst; ret.
	KindNegReg
	// KindNotReg: Dst = ^Dst; ret.
	KindNotReg
	// KindShrImm: Dst >>= ShiftK (logical); ret.
	KindShrImm
	// KindShlImm: Dst <<= ShiftK; ret.
	KindShlImm
	// KindLoad: Dst = mem32[Src]; ret.
	KindLoad
	// KindStore: mem32[Dst] = Src; ret.
	KindStore
	// KindAddEsp: esp += Src; ret — the chain branch primitive.
	KindAddEsp
	// KindPopEsp: pop esp; ret — the chain epilogue primitive.
	KindPopEsp
	// KindXchgReg: Dst <-> Src; ret.
	KindXchgReg
	// KindMulReg: Dst *= Src (truncated signed multiply); ret.
	KindMulReg
	// KindShlCL: Dst <<= CL; ret.
	KindShlCL
	// KindShrCL: Dst >>= CL (logical); ret.
	KindShrCL
	// KindSarCL: Dst >>= CL (arithmetic); ret.
	KindSarCL
	// KindSarImm: Dst >>= ShiftK (arithmetic); ret.
	KindSarImm
	// KindUDivMod: xor edx,edx; div Src; ret — EAX = EAX/Src,
	// EDX = EAX%Src (unsigned). Matched structurally.
	KindUDivMod
	// KindSDivMod: cdq; idiv Src; ret — signed divide. Matched
	// structurally.
	KindSDivMod
)

var kindNames = map[Kind]string{
	KindOther: "other", KindRet: "ret", KindPopReg: "pop", KindMovReg: "mov",
	KindAddReg: "add", KindSubReg: "sub", KindAndReg: "and", KindOrReg: "or",
	KindXorReg: "xor", KindNegReg: "neg", KindNotReg: "not",
	KindShrImm: "shr", KindShlImm: "shl", KindLoad: "load", KindStore: "store",
	KindAddEsp: "addesp", KindPopEsp: "popesp", KindXchgReg: "xchg",
	KindMulReg: "mul", KindShlCL: "shlcl", KindShrCL: "shrcl",
	KindSarCL: "sarcl", KindSarImm: "sar", KindUDivMod: "udiv",
	KindSDivMod: "sdiv",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// RegSet is a bitmask of general-purpose registers.
type RegSet uint8

// Add inserts a register.
func (s *RegSet) Add(r x86.Reg) { *s |= 1 << r }

// Has reports membership.
func (s RegSet) Has(r x86.Reg) bool { return s&(1<<r) != 0 }

func (s RegSet) String() string {
	var parts []string
	for r := x86.Reg(0); r < x86.NumRegs; r++ {
		if s.Has(r) {
			parts = append(parts, r.String())
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Gadget is one discovered gadget.
type Gadget struct {
	Addr  uint32
	Len   int // total byte length including the return
	Insts []x86.Inst

	Kind   Kind
	Dst    x86.Reg
	Src    x86.Reg
	ShiftK uint8 // shift amount for KindShrImm/KindShlImm

	// PopSlot is, for KindPopReg, the dword index below the initial
	// stack pointer that lands in Dst (0 for a bare pop reg; ret).
	PopSlot int
	// StackPops is the number of dwords consumed from the stack before
	// the return address is read.
	StackPops int
	// RetImm is the ret imm16 extra stack adjustment in bytes, applied
	// after popping the return address.
	RetImm uint16
	// FarRet marks retf gadgets, which consume one extra dword (the
	// discarded CS) after the return address.
	FarRet bool

	// Clobbers are registers modified beyond Dst (ESP excluded).
	Clobbers RegSet
	// MemReads/MemWrites flag incidental memory traffic with addresses
	// that are not part of the gadget's semantic contract. Gadgets with
	// MemWrites are never chain-usable; stray reads are tolerated only
	// by protection counting.
	MemReads  bool
	MemWrites bool
	// StackWrites marks gadgets that push below the incoming stack
	// pointer. In a chain, such a push overwrites already-consumed
	// chain words, corrupting the chain for its next invocation, so
	// these gadgets are never chain-usable.
	StackWrites bool

	// Aligned marks gadgets that begin on an instruction boundary of
	// the host program's linear disassembly.
	Aligned bool
}

// Usable reports whether the ROP compiler may put this gadget in a
// chain: it must have a recognized kind and no stray memory writes.
func (g *Gadget) Usable() bool {
	return g.Kind != KindOther && !g.MemWrites && !g.StackWrites
}

// String renders a short description.
func (g *Gadget) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%#x: ", g.Addr)
	for i, in := range g.Insts {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(in.String())
	}
	fmt.Fprintf(&b, "  [%s", g.Kind)
	switch g.Kind {
	case KindPopReg, KindNegReg, KindNotReg, KindShlCL, KindShrCL, KindSarCL:
		fmt.Fprintf(&b, " %s", g.Dst)
	case KindShrImm, KindShlImm, KindSarImm:
		fmt.Fprintf(&b, " %s,%d", g.Dst, g.ShiftK)
	case KindMovReg, KindAddReg, KindSubReg, KindAndReg, KindOrReg, KindXorReg,
		KindLoad, KindStore, KindXchgReg, KindMulReg:
		fmt.Fprintf(&b, " %s,%s", g.Dst, g.Src)
	case KindAddEsp, KindUDivMod, KindSDivMod:
		fmt.Fprintf(&b, " %s", g.Src)
	}
	b.WriteString("]")
	return b.String()
}

// Range returns the byte interval [Addr, Addr+Len).
func (g *Gadget) Range() (uint32, uint32) { return g.Addr, g.Addr + uint32(g.Len) }

// Catalog is the full gadget inventory of a binary, indexed by kind.
type Catalog struct {
	Gadgets []*Gadget
	byKind  map[Kind][]*Gadget
	// cfg is the configuration, defaults applied, of the scan that
	// built the catalog; zero for catalogs built by NewCatalog, which
	// Rescan never reuses.
	cfg ScanConfig
}

// NewCatalog indexes a gadget list.
func NewCatalog(gs []*Gadget) *Catalog {
	c := &Catalog{Gadgets: gs, byKind: make(map[Kind][]*Gadget)}
	for _, g := range gs {
		c.byKind[g.Kind] = append(c.byKind[g.Kind], g)
	}
	return c
}

// Find returns chain-usable gadgets of kind k with the given dst/src
// constraints; pass x86.NumRegs as a wildcard.
func (c *Catalog) Find(k Kind, dst, src x86.Reg) []*Gadget {
	var out []*Gadget
	for _, g := range c.byKind[k] {
		if !g.Usable() {
			continue
		}
		if dst != x86.NumRegs && g.Dst != dst {
			continue
		}
		if src != x86.NumRegs && g.Src != src {
			continue
		}
		out = append(out, g)
	}
	return out
}

// CoveredBytes returns the union size of all gadget byte ranges within
// [lo, hi), plus a bitmap of covered offsets relative to lo.
func (c *Catalog) CoveredBytes(lo, hi uint32) (int, []bool) {
	if hi <= lo {
		return 0, nil
	}
	cover := make([]bool, hi-lo)
	for _, g := range c.Gadgets {
		s, e := g.Range()
		if e <= lo || s >= hi {
			continue
		}
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		for i := s; i < e; i++ {
			cover[i-lo] = true
		}
	}
	n := 0
	for _, v := range cover {
		if v {
			n++
		}
	}
	return n, cover
}

// Sort orders gadgets by address.
func (c *Catalog) Sort() {
	sort.Slice(c.Gadgets, func(i, j int) bool { return c.Gadgets[i].Addr < c.Gadgets[j].Addr })
}
