package ropc

import (
	"encoding/binary"
	"fmt"
	"strings"

	"parallax/internal/gadget"
	"parallax/internal/x86"
)

// WordKind discriminates chain words.
type WordKind uint8

// Chain word kinds.
const (
	// WGadget is a gadget address.
	WGadget WordKind = iota
	// WConst is an immediate constant, frame address or global
	// address consumed by a pop gadget.
	WConst
	// WJunk is padding consumed but ignored (extra pops, far-return CS
	// words, ret-imm skips).
	WJunk
	// WExitPtr is the final chain word: the loader patches it before
	// every run with the stack address holding the resume address
	// (§V-A's epilogue).
	WExitPtr
)

// Spec is the semantic requirement a gadget slot satisfies. Two gadgets
// with the same Spec are interchangeable, which is exactly the
// equivalence dyngen's probabilistic generation exploits (§V-B).
type Spec struct {
	Kind gadget.Kind
	Dst  x86.Reg
	Src  x86.Reg
}

func (s Spec) String() string {
	return fmt.Sprintf("%v(%v,%v)", s.Kind, s.Dst, s.Src)
}

// Word is one 32-bit chain element.
type Word struct {
	Kind   WordKind
	Gadget *gadget.Gadget // WGadget
	Value  uint32         // WConst/WJunk
	Spec   Spec           // WGadget: the requirement this slot fills
	// Live records the registers that were live when the gadget was
	// selected; any interchangeable alternative must avoid clobbering
	// them (used by probabilistic regeneration, §V-B).
	Live gadget.RegSet
}

// Chain is a compiled verification chain for one function.
type Chain struct {
	FuncName string
	Words    []Word

	// FrameBase/FrameSize describe the scratch frame holding the
	// function's virtual registers plus the return-value slot.
	FrameBase uint32
	FrameSize uint32
	NumParams int
	// RetSlotAddr is where the chain stores its return value.
	RetSlotAddr uint32
	// ExitPtrIndex is the index of the WExitPtr word.
	ExitPtrIndex int
}

// ByteLen returns the chain's size in bytes.
func (c *Chain) ByteLen() int { return 4 * len(c.Words) }

// Bytes materializes the chain into little-endian words.
func (c *Chain) Bytes() []byte {
	out := make([]byte, 0, c.ByteLen())
	for _, w := range c.Words {
		v := w.Value
		if w.Kind == WGadget {
			v = w.Gadget.Addr
		}
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

// Gadgets returns the distinct gadgets used by the chain.
func (c *Chain) Gadgets() []*gadget.Gadget {
	seen := make(map[uint32]bool)
	var out []*gadget.Gadget
	for _, w := range c.Words {
		if w.Kind == WGadget && !seen[w.Gadget.Addr] {
			seen[w.Gadget.Addr] = true
			out = append(out, w.Gadget)
		}
	}
	return out
}

// String renders a word-by-word dump for debugging and the ropdump
// tool.
func (c *Chain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chain %s: %d words, frame %#x+%d\n",
		c.FuncName, len(c.Words), c.FrameBase, c.FrameSize)
	for i, w := range c.Words {
		switch w.Kind {
		case WGadget:
			fmt.Fprintf(&b, "  [%3d] gadget %v\n", i, w.Gadget)
		case WConst:
			fmt.Fprintf(&b, "  [%3d] const  %#x\n", i, w.Value)
		case WJunk:
			fmt.Fprintf(&b, "  [%3d] junk\n", i)
		case WExitPtr:
			fmt.Fprintf(&b, "  [%3d] exitptr\n", i)
		}
	}
	return b.String()
}

// Env supplies the compiler with its gadget inventory and address
// resolution.
type Env struct {
	Catalog *gadget.Catalog
	// GlobalAddr resolves a global symbol to its linked address.
	GlobalAddr func(string) (uint32, bool)
	// Prefer ranks gadget candidates: gadgets for which it returns
	// true are chosen over others. Parallax passes a predicate marking
	// gadgets that overlap protected instructions (§III: "overlapping
	// gadgets are always preferred over non-overlapping gadgets").
	Prefer func(*gadget.Gadget) bool
}

// MissingGadgetError reports that no chain-usable gadget satisfies a
// required spec; Parallax responds by inserting the fallback pool.
type MissingGadgetError struct {
	Spec Spec
	Live gadget.RegSet
}

func (e *MissingGadgetError) Error() string {
	return fmt.Sprintf("ropc: no usable gadget for %v (live %v)", e.Spec, e.Live)
}

func popcount(v uint8) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// Alternatives returns the gadgets interchangeable with the one in a
// chain word: same semantic spec, same stack footprint (pops, pop slot,
// far-return, ret-imm), and clobbers compatible with the word's live
// set. The result always contains the word's own gadget. These
// equivalence classes are the G_i sets of the paper's §V-B
// probabilistic generation.
func Alternatives(env *Env, w Word) []*gadget.Gadget {
	if w.Kind != WGadget {
		return nil
	}
	base := w.Gadget
	var out []*gadget.Gadget
	for _, g := range env.Catalog.Find(w.Spec.Kind, w.Spec.Dst, w.Spec.Src) {
		if g.Clobbers&w.Live != 0 {
			continue
		}
		if g.StackPops != base.StackPops || g.PopSlot != base.PopSlot ||
			g.FarRet != base.FarRet || g.RetImm != base.RetImm {
			continue
		}
		if g.MemReads != base.MemReads || g.MemWrites || g.StackWrites {
			continue
		}
		out = append(out, g)
	}
	return out
}
