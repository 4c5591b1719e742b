package ropc

import (
	"fmt"

	"parallax/internal/gadget"
	"parallax/internal/ir"
	"parallax/internal/x86"
)

// junkWord fills chain slots whose runtime value is irrelevant.
const junkWord = 0xDEADC0DE

// anyReg is the wildcard register constraint in a Spec.
const anyReg = x86.NumRegs

// Options tunes chain compilation.
type Options struct {
	// Mu compiles instruction-level verification (§V-C µ-chains): each
	// IR instruction's gadget sequence carries its own context
	// save/restore prologue and epilogue, the structure that costs
	// µ-chains their ~2x overhead over function chains.
	Mu bool
}

// CompileWith translates an IR function into a ROP chain.
//
// The function's virtual registers live in a scratch frame at
// frameBase (one dword per register, two context-save slots, and a
// trailing return-value slot); the chain is position-dependent only
// through the gadget and frame addresses baked into its words.
func CompileWith(f *ir.Func, env *Env, frameBase uint32, opt Options) (*Chain, error) {
	if !Chainable(f) {
		return nil, fmt.Errorf("ropc: %s makes calls or syscalls and cannot be chained", f.Name)
	}
	lf, err := Lower(f)
	if err != nil {
		return nil, err
	}
	c := &compiler{
		env:       env,
		f:         lf,
		frameBase: frameBase,
		labels:    make(map[string]int),
		mu:        opt.Mu,
		picks:     make(map[pickKey]*gadget.Gadget),
	}
	if err := c.run(); err != nil {
		return nil, fmt.Errorf("ropc: compiling %s: %w", f.Name, err)
	}
	return &Chain{
		FuncName:     f.Name,
		Words:        c.words,
		FrameBase:    frameBase,
		FrameSize:    uint32(4 * (lf.NumVals + frameExtra)),
		NumParams:    f.NumParams,
		RetSlotAddr:  frameBase + uint32(4*(lf.NumVals+frameExtra-1)),
		ExitPtrIndex: c.exitPtrIdx,
	}, nil
}

// frameExtra is the number of frame slots beyond the virtual
// registers: two µ-chain context-save slots and the return slot (last).
const frameExtra = 3

// FrameWords returns the number of frame dwords CompileWith will use
// for a function. Callers reserving frame space before compilation use
// this; the return slot is always the final word.
func FrameWords(f *ir.Func) (int, error) {
	lf, err := Lower(f)
	if err != nil {
		return 0, err
	}
	return lf.NumVals + frameExtra, nil
}

type fixupKind uint8

const (
	fixDiff  fixupKind = iota // 4*(idx(labelA) - idx(labelB))
	fixDelta                  // 4*(idx(labelA) - base)
)

type fixup struct {
	wordIdx int
	kind    fixupKind
	labelA  string
	labelB  string
	base    int
}

type compiler struct {
	env       *Env
	f         *ir.Func
	frameBase uint32

	words       []Word
	pendingSkip int
	labels      map[string]int
	fixups      []fixup
	exitPtrIdx  int
	mu          bool

	// picks memoizes pickChecked for this compile. The choice is a pure
	// function of the catalog, Env.Prefer, the spec and the live set,
	// and a chain asks for the same few dozen (spec, live) pairs over
	// and over.
	picks map[pickKey]*gadget.Gadget
}

// pickKey is what a gadget choice depends on within one compile.
type pickKey struct {
	spec Spec
	live gadget.RegSet
}

func (c *compiler) slotAddr(v ir.Value) uint32 {
	return c.frameBase + uint32(4*int(v))
}

func (c *compiler) retSlotAddr() uint32 {
	return c.frameBase + uint32(4*(c.f.NumVals+frameExtra-1))
}

func (c *compiler) saveSlotAddr(i int) uint32 {
	return c.frameBase + uint32(4*(c.f.NumVals+i))
}

// emitGadget appends a gadget word plus its stack footprint. When
// valueSlot is non-nil, the gadget must be a popper and *valueSlot
// receives the index of the word that lands in its destination.
func (c *compiler) emitGadget(spec Spec, live gadget.RegSet, value uint32,
	valueSlot *int) error {
	g, err := c.pick(spec, live)
	if err != nil {
		return err
	}
	c.words = append(c.words, Word{Kind: WGadget, Gadget: g, Spec: spec, Live: live})
	// A far return or ret-imm on the *previous* gadget consumes words
	// immediately after this gadget's address.
	for i := 0; i < c.pendingSkip; i++ {
		c.words = append(c.words, Word{Kind: WJunk, Value: junkWord})
	}
	c.pendingSkip = 0
	for i := 0; i < g.StackPops; i++ {
		if valueSlot != nil && i == g.PopSlot {
			*valueSlot = len(c.words)
			c.words = append(c.words, Word{Kind: WConst, Value: value})
		} else {
			c.words = append(c.words, Word{Kind: WJunk, Value: junkWord})
		}
	}
	if g.FarRet {
		c.pendingSkip++
	}
	c.pendingSkip += int(g.RetImm) / 4
	return nil
}

// pick returns pickChecked's choice, walking the catalog only the
// first time a (spec, live) pair is asked for. Misses are not cached:
// the error ends the compile.
func (c *compiler) pick(spec Spec, live gadget.RegSet) (*gadget.Gadget, error) {
	k := pickKey{spec, live}
	if g, ok := c.picks[k]; ok {
		return g, nil
	}
	g, err := c.pickChecked(spec, live)
	if err != nil {
		return nil, err
	}
	c.picks[k] = g
	return g, nil
}

// pickChecked walks every catalog gadget of the spec's kind and
// returns the best-scoring one that is safe under live: overlap with
// protected code (Env.Prefer) first, then the smallest stack footprint
// and clobber set; ties go to the first in catalog order.
func (c *compiler) pickChecked(spec Spec, live gadget.RegSet) (*gadget.Gadget, error) {
	cands := c.env.Catalog.Find(spec.Kind, spec.Dst, spec.Src)
	var best *gadget.Gadget
	bestScore := -1 << 30
	for _, g := range cands {
		if !c.safeFor(spec, g, live) {
			continue
		}
		score := 0
		if c.env.Prefer != nil && c.env.Prefer(g) {
			score += 1000
		}
		score -= 10 * g.StackPops
		if g.FarRet {
			score -= 5
		}
		if g.RetImm != 0 {
			score -= 5
		}
		score -= int(popcount(uint8(g.Clobbers)))
		if score > bestScore {
			best = g
			bestScore = score
		}
	}
	if best == nil {
		return nil, &MissingGadgetError{Spec: spec, Live: live}
	}
	return best, nil
}

func (c *compiler) safeFor(spec Spec, g *gadget.Gadget, live gadget.RegSet) bool {
	if !g.Usable() {
		return false
	}
	if g.Clobbers&live != 0 {
		return false
	}
	if g.RetImm%4 != 0 {
		return false
	}
	switch spec.Kind {
	case gadget.KindAddEsp:
		// The pivot must be exactly [add esp, r; ret]: any stack pop
		// around the pivot would consume target words.
		return len(g.Insts) == 2 && !g.FarRet && g.RetImm == 0
	case gadget.KindPopEsp:
		return len(g.Insts) == 2 && !g.FarRet && g.RetImm == 0 && g.PopSlot == 0
	case gadget.KindUDivMod, gadget.KindSDivMod:
		// matchStructural admits only a register divisor and clears
		// MemReads, so stray writes are all there is to check.
		return !g.MemWrites
	default:
		return !g.MemReads && !g.MemWrites
	}
}

// Canonical emission helpers. The compiler routes all data through a
// fixed register discipline: EAX is the accumulator, EBX the address/
// second operand, ECX the parking and shift-count register, EDX the
// division remainder.

func (c *compiler) pop(r x86.Reg, value uint32, live gadget.RegSet) error {
	return c.emitGadget(Spec{Kind: gadget.KindPopReg, Dst: r, Src: anyReg},
		live, value, new(int))
}

func (c *compiler) popIdx(r x86.Reg, value uint32, live gadget.RegSet) (int, error) {
	idx := -1
	err := c.emitGadget(Spec{Kind: gadget.KindPopReg, Dst: r, Src: anyReg},
		live, value, &idx)
	return idx, err
}

func (c *compiler) op(kind gadget.Kind, dst, src x86.Reg, live gadget.RegSet) error {
	return c.emitGadget(Spec{Kind: kind, Dst: dst, Src: src}, live, 0, nil)
}

func live(regs ...x86.Reg) gadget.RegSet {
	var s gadget.RegSet
	for _, r := range regs {
		s.Add(r)
	}
	return s
}

// loadVal leaves frame[v] in EAX. Keep holds registers that must
// survive.
func (c *compiler) loadVal(v ir.Value, keep gadget.RegSet) error {
	if err := c.pop(x86.EBX, c.slotAddr(v), keep); err != nil {
		return err
	}
	keepB := keep
	keepB.Add(x86.EBX)
	return c.op(gadget.KindLoad, x86.EAX, x86.EBX, keepB)
}

// storeEAX writes EAX into frame[v].
func (c *compiler) storeEAX(v ir.Value, keep gadget.RegSet) error {
	keepA := keep
	keepA.Add(x86.EAX)
	if err := c.pop(x86.EBX, c.slotAddr(v), keepA); err != nil {
		return err
	}
	keepA.Add(x86.EBX)
	return c.op(gadget.KindStore, x86.EBX, x86.EAX, keepA)
}

func (c *compiler) mov(dst, src x86.Reg, keep gadget.RegSet) error {
	keepS := keep
	keepS.Add(src)
	return c.op(gadget.KindMovReg, dst, src, keepS)
}

func (c *compiler) run() error {
	for _, b := range c.f.Blocks {
		c.labels[b.Name] = len(c.words)
		if c.pendingSkip != 0 {
			return fmt.Errorf("internal: pending stack skip crosses block label %q", b.Name)
		}
		for i := range b.Insts {
			if c.mu {
				if err := c.muContext(); err != nil {
					return fmt.Errorf("block %s inst %d prologue: %w", b.Name, i, err)
				}
			}
			if err := c.inst(&b.Insts[i]); err != nil {
				return fmt.Errorf("block %s inst %d (%v): %w", b.Name, i, b.Insts[i], err)
			}
			if c.mu {
				if err := c.muRestore(); err != nil {
					return fmt.Errorf("block %s inst %d epilogue: %w", b.Name, i, err)
				}
			}
		}
		if err := c.term(&b.Term); err != nil {
			return fmt.Errorf("block %s terminator (%v): %w", b.Name, b.Term, err)
		}
	}
	if err := c.emitExit(); err != nil {
		return err
	}
	return c.resolve()
}

func (c *compiler) inst(in *ir.Inst) error {
	switch in.Kind {
	case ir.OpConst:
		if err := c.pop(x86.EAX, uint32(in.Imm), live()); err != nil {
			return err
		}
		return c.storeEAX(in.Dst, live())

	case ir.OpCopy:
		if err := c.loadVal(in.A, live()); err != nil {
			return err
		}
		return c.storeEAX(in.Dst, live())

	case ir.OpAddr:
		addr, ok := c.env.GlobalAddr(in.Global)
		if !ok {
			return fmt.Errorf("undefined global %q", in.Global)
		}
		if err := c.pop(x86.EAX, addr+uint32(in.Imm), live()); err != nil {
			return err
		}
		return c.storeEAX(in.Dst, live())

	case ir.OpNot, ir.OpNeg:
		if err := c.loadVal(in.A, live()); err != nil {
			return err
		}
		kind := gadget.KindNotReg
		if in.Kind == ir.OpNeg {
			kind = gadget.KindNegReg
		}
		if err := c.op(kind, x86.EAX, anyReg, live(x86.EAX)); err != nil {
			return err
		}
		return c.storeEAX(in.Dst, live())

	case ir.OpLoad:
		if err := c.loadVal(in.A, live()); err != nil {
			return err
		}
		if err := c.mov(x86.EBX, x86.EAX, live()); err != nil {
			return err
		}
		if err := c.op(gadget.KindLoad, x86.EAX, x86.EBX, live(x86.EBX)); err != nil {
			return err
		}
		return c.storeEAX(in.Dst, live())

	case ir.OpStore:
		// value → ECX, address → EBX, value back to EAX, store.
		if err := c.loadVal(in.B, live()); err != nil {
			return err
		}
		if err := c.mov(x86.ECX, x86.EAX, live()); err != nil {
			return err
		}
		if err := c.loadVal(in.A, live(x86.ECX)); err != nil {
			return err
		}
		if err := c.mov(x86.EBX, x86.EAX, live(x86.ECX)); err != nil {
			return err
		}
		if err := c.mov(x86.EAX, x86.ECX, live(x86.EBX)); err != nil {
			return err
		}
		return c.op(gadget.KindStore, x86.EBX, x86.EAX, live(x86.EAX, x86.EBX))

	case ir.OpBin:
		return c.binOp(in)

	case ir.OpCmp, ir.OpLoad8, ir.OpStore8:
		return fmt.Errorf("internal: %v survived lowering", in.Kind)

	default:
		return fmt.Errorf("unsupported instruction kind %d", in.Kind)
	}
}

func (c *compiler) binOp(in *ir.Inst) error {
	// B → ECX, A → EAX, then combine.
	if err := c.loadVal(in.B, live()); err != nil {
		return err
	}
	if err := c.mov(x86.ECX, x86.EAX, live()); err != nil {
		return err
	}
	if err := c.loadVal(in.A, live(x86.ECX)); err != nil {
		return err
	}

	switch in.Bin {
	case ir.Add, ir.Sub, ir.And, ir.Or, ir.Xor, ir.Mul:
		kind := map[ir.BinKind]gadget.Kind{
			ir.Add: gadget.KindAddReg, ir.Sub: gadget.KindSubReg,
			ir.And: gadget.KindAndReg, ir.Or: gadget.KindOrReg,
			ir.Xor: gadget.KindXorReg, ir.Mul: gadget.KindMulReg,
		}[in.Bin]
		if err := c.mov(x86.EBX, x86.ECX, live(x86.EAX)); err != nil {
			return err
		}
		if err := c.op(kind, x86.EAX, x86.EBX, live(x86.EAX, x86.EBX)); err != nil {
			return err
		}

	case ir.Shl, ir.Shr, ir.Sar:
		kind := map[ir.BinKind]gadget.Kind{
			ir.Shl: gadget.KindShlCL, ir.Shr: gadget.KindShrCL, ir.Sar: gadget.KindSarCL,
		}[in.Bin]
		// Count is already in ECX.
		if err := c.op(kind, x86.EAX, x86.ECX, live(x86.EAX, x86.ECX)); err != nil {
			return err
		}

	case ir.UDiv, ir.URem, ir.SDiv, ir.SRem:
		kind := gadget.KindUDivMod
		if in.Bin == ir.SDiv || in.Bin == ir.SRem {
			kind = gadget.KindSDivMod
		}
		if err := c.mov(x86.EBX, x86.ECX, live(x86.EAX)); err != nil {
			return err
		}
		if err := c.op(kind, x86.EAX, x86.EBX, live(x86.EAX, x86.EBX)); err != nil {
			return err
		}
		if in.Bin == ir.URem || in.Bin == ir.SRem {
			if err := c.mov(x86.EAX, x86.EDX, live(x86.EDX)); err != nil {
				return err
			}
		}

	default:
		return fmt.Errorf("unsupported binary op %v", in.Bin)
	}
	return c.storeEAX(in.Dst, live())
}

// muContext emits the per-instruction context save a standalone inline
// µ-chain needs: the surrounding native registers are parked in the
// frame before the instruction's gadget sequence runs. (Between IR
// instructions no chain register is live, so the traffic is free to
// use the scratch registers.)
func (c *compiler) muContext() error {
	for i := 0; i < 2; i++ {
		if err := c.pop(x86.EBX, c.saveSlotAddr(i), live()); err != nil {
			return err
		}
		if err := c.op(gadget.KindStore, x86.EBX, x86.EAX, live(x86.EAX, x86.EBX)); err != nil {
			return err
		}
	}
	return nil
}

// muRestore is the matching per-instruction epilogue.
func (c *compiler) muRestore() error {
	for i := 1; i >= 0; i-- {
		if err := c.pop(x86.EBX, c.saveSlotAddr(i), live()); err != nil {
			return err
		}
		if err := c.op(gadget.KindLoad, x86.EAX, x86.EBX, live(x86.EBX)); err != nil {
			return err
		}
	}
	return nil
}

const exitLabel = "..exit"

func (c *compiler) term(t *ir.Term) error {
	switch t.Kind {
	case ir.TermRet:
		if t.HasVal {
			if err := c.loadVal(t.Val, live()); err != nil {
				return err
			}
		} else {
			if err := c.pop(x86.EAX, 0, live()); err != nil {
				return err
			}
		}
		keep := live(x86.EAX)
		if err := c.pop(x86.EBX, c.retSlotAddr(), keep); err != nil {
			return err
		}
		if err := c.op(gadget.KindStore, x86.EBX, x86.EAX, live(x86.EAX, x86.EBX)); err != nil {
			return err
		}
		return c.emitJmp(exitLabel)

	case ir.TermJmp:
		return c.emitJmp(t.Then)

	case ir.TermBr:
		return c.emitBr(t.Val, t.Then, t.Else)

	default:
		return fmt.Errorf("unknown terminator %d", t.Kind)
	}
}

// emitJmp transfers chain control to a label: EAX = 4*(target - here)
// then esp += EAX.
func (c *compiler) emitJmp(label string) error {
	deltaIdx, err := c.popIdx(x86.EAX, 0, live())
	if err != nil {
		return err
	}
	if err := c.op(gadget.KindAddEsp, anyReg, x86.EAX, live(x86.EAX)); err != nil {
		return err
	}
	addEspIdx := len(c.words) - 1 // AddEsp gadgets never carry data words
	c.fixups = append(c.fixups, fixup{
		wordIdx: deltaIdx, kind: fixDelta, labelA: label, base: addEspIdx + 1,
	})
	return nil
}

// emitBr branches on a 0/1 condition:
//
//	EAX = cond; EAX = -EAX              (mask: 0 or ~0)
//	EBX = 4*(then-else); EAX &= EBX     (diff if taken)
//	EBX = 4*(else-base); EAX += EBX     (final delta)
//	esp += EAX
func (c *compiler) emitBr(cond ir.Value, then, els string) error {
	if err := c.loadVal(cond, live()); err != nil {
		return err
	}
	if err := c.op(gadget.KindNegReg, x86.EAX, anyReg, live(x86.EAX)); err != nil {
		return err
	}
	diffIdx, err := c.popIdx(x86.EBX, 0, live(x86.EAX))
	if err != nil {
		return err
	}
	if err := c.op(gadget.KindAndReg, x86.EAX, x86.EBX, live(x86.EAX, x86.EBX)); err != nil {
		return err
	}
	elseIdx, err := c.popIdx(x86.EBX, 0, live(x86.EAX))
	if err != nil {
		return err
	}
	if err := c.op(gadget.KindAddReg, x86.EAX, x86.EBX, live(x86.EAX, x86.EBX)); err != nil {
		return err
	}
	if err := c.op(gadget.KindAddEsp, anyReg, x86.EAX, live(x86.EAX)); err != nil {
		return err
	}
	addEspIdx := len(c.words) - 1
	c.fixups = append(c.fixups,
		fixup{wordIdx: diffIdx, kind: fixDiff, labelA: then, labelB: els},
		fixup{wordIdx: elseIdx, kind: fixDelta, labelA: els, base: addEspIdx + 1},
	)
	return nil
}

// emitExit appends the §V-A epilogue: a pop-esp gadget whose data word
// (patched by the loader before every call) points back into the
// caller's stack frame, where the resume address waits.
func (c *compiler) emitExit() error {
	c.labels[exitLabel] = len(c.words)
	if c.pendingSkip != 0 {
		return fmt.Errorf("internal: pending stack skip at chain exit")
	}
	g, err := c.pick(Spec{Kind: gadget.KindPopEsp, Dst: anyReg, Src: anyReg}, live())
	if err != nil {
		return err
	}
	c.words = append(c.words, Word{
		Kind: WGadget, Gadget: g,
		Spec: Spec{Kind: gadget.KindPopEsp, Dst: anyReg, Src: anyReg},
	})
	c.exitPtrIdx = len(c.words)
	c.words = append(c.words, Word{Kind: WExitPtr, Value: junkWord})
	return nil
}

func (c *compiler) resolve() error {
	idxOf := func(label string) (int, error) {
		i, ok := c.labels[label]
		if !ok {
			return 0, fmt.Errorf("undefined chain label %q", label)
		}
		return i, nil
	}
	for _, f := range c.fixups {
		a, err := idxOf(f.labelA)
		if err != nil {
			return err
		}
		var v int
		switch f.kind {
		case fixDiff:
			b, err := idxOf(f.labelB)
			if err != nil {
				return err
			}
			v = 4 * (a - b)
		case fixDelta:
			v = 4 * (a - f.base)
		}
		c.words[f.wordIdx].Value = uint32(int32(v))
	}
	return nil
}
