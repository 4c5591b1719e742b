package gadget

import (
	"parallax/internal/x86"
)

// The classifier runs a small symbolic evaluator over a gadget's
// instructions. Registers start as Init(r); instructions build
// expressions; at the return, the final state is matched against the
// kind taxonomy. Anything outside the tracked subset degrades to
// Unknown, which keeps classification sound: a gadget is only typed
// when its semantics are fully understood.
//
// A sym is never modified once built, so expressions share operands
// freely, the Init and Unknown syms are package values, and one
// evaluator serves every candidate of a scan: it builds each
// candidate's syms in an arena it reuses, because no sym outlives the
// classification that built it.

type symKind uint8

const (
	symUnknown symKind = iota
	symInit            // initial value of a register
	symConst
	symStack // dword at initial_esp + 4*idx (idx >= 0: chain data)
	symBin   // binary expression
	symNeg
	symNot
	symLoad // 32-bit load from Addr expression
)

type sym struct {
	kind symKind
	reg  x86.Reg // symInit
	c    uint32  // symConst
	idx  int     // symStack
	op   x86.Op  // symBin
	a, b *sym    // operands (a also for symNeg/symNot/symLoad address)
}

var unknownSym = &sym{kind: symUnknown}

// initSyms holds Init(r) for every register.
var initSyms = func() (s [x86.NumRegs]*sym) {
	for r := range s {
		s[r] = &sym{kind: symInit, reg: x86.Reg(r)}
	}
	return s
}()

// newSym places s in the evaluator's arena. A full arena is replaced,
// not grown, so the syms already handed out stay valid.
func (e *evaluator) newSym(s sym) *sym {
	if len(e.arena) == cap(e.arena) {
		e.arena = make([]sym, 0, max(2*cap(e.arena), 64))
	}
	e.arena = append(e.arena, s)
	return &e.arena[len(e.arena)-1]
}

func (e *evaluator) constSym(c uint32) *sym { return e.newSym(sym{kind: symConst, c: c}) }
func (e *evaluator) stackSym(idx int) *sym  { return e.newSym(sym{kind: symStack, idx: idx}) }
func (e *evaluator) loadSym(addr *sym) *sym { return e.newSym(sym{kind: symLoad, a: addr}) }
func (e *evaluator) binSym(op x86.Op, a, b *sym) *sym {
	return e.newSym(sym{kind: symBin, op: op, a: a, b: b})
}

// isInit reports whether s is the untouched initial value of r.
func (s *sym) isInit(r x86.Reg) bool { return s.kind == symInit && s.reg == r }

type memWrite struct {
	addr  *sym
	value *sym
	wide  bool // 32-bit
}

// stackSlot is a stack dword the gadget itself wrote.
type stackSlot struct {
	idx int // as in symStack
	v   *sym
}

type evaluator struct {
	regs   [x86.NumRegs]*sym
	espOff int  // esp = initial_esp + 4*espOff (when espKnown)
	espSym *sym // set when esp left the simple offset form
	slots  []stackSlot

	writes    []memWrite
	loads     int
	minEsp    int // most negative espOff reached (stack writes below entry)
	stackBad  bool
	memReads  bool
	memWrites bool

	arena []sym // the current candidate's syms
}

// noteEsp records stack excursions below the entry pointer.
func (e *evaluator) noteEsp() {
	if e.espOff < e.minEsp {
		e.minEsp = e.espOff
	}
}

// reset readies e for a new candidate, keeping its storage.
func (e *evaluator) reset() {
	*e = evaluator{regs: initSyms, slots: e.slots[:0], writes: e.writes[:0], arena: e.arena[:0]}
}

// push writes v to the stack slot below esp.
func (e *evaluator) push(v *sym) {
	e.espOff--
	e.noteEsp()
	if s := e.slot(e.espOff); s != nil {
		s.v = v
		return
	}
	e.slots = append(e.slots, stackSlot{e.espOff, v})
}

// slot returns the written stack slot idx, or nil.
func (e *evaluator) slot(idx int) *stackSlot {
	for i := range e.slots {
		if e.slots[i].idx == idx {
			return &e.slots[i]
		}
	}
	return nil
}

// addrSym computes the symbolic effective address of a memory operand.
func (e *evaluator) addrSym(o x86.Operand) *sym {
	var s *sym
	if o.HasBase {
		if o.Base == x86.ESP {
			return unknownSym // esp-relative data addressing not modeled
		}
		s = e.regs[o.Base]
	}
	if o.HasIndex {
		return unknownSym // scaled indexing degrades to unknown
	}
	if s == nil {
		return e.constSym(uint32(o.Disp))
	}
	if o.Disp == 0 {
		return s
	}
	return e.binSym(x86.ADD, s, e.constSym(uint32(o.Disp)))
}

// readOp returns the symbolic value of a 32-bit operand.
func (e *evaluator) readOp(o x86.Operand) *sym {
	switch o.Kind {
	case x86.KReg:
		return e.regs[o.Reg]
	case x86.KImm:
		return e.constSym(uint32(o.Imm))
	case x86.KMem:
		e.loads++
		a := e.addrSym(o)
		if a.kind == symUnknown {
			e.memReads = true
			return unknownSym
		}
		return e.loadSym(a)
	default:
		return unknownSym
	}
}

// step evaluates one instruction; ok=false aborts classification (the
// sequence is not a valid straight-line gadget body).
func (e *evaluator) step(in *x86.Inst) (ok bool) {
	// Control flow, traps and kernel transitions invalidate a gadget
	// body outright.
	switch in.Op {
	case x86.CALL, x86.JMP, x86.JCC, x86.INT, x86.INT3, x86.HLT:
		return false
	case x86.MOVS, x86.STOS, x86.CMPS, x86.SCAS, x86.LODS:
		// String ops have unbounded, pointer-register-directed memory
		// traffic at any width.
		e.memWrites = true
		e.memReads = true
		e.regs[x86.ESI] = unknownSym
		e.regs[x86.EDI] = unknownSym
		if in.Rep || in.RepNE {
			e.regs[x86.ECX] = unknownSym
		}
		if in.Op == x86.LODS || in.Op == x86.SCAS {
			e.regs[x86.EAX] = unknownSym
		}
		return true
	}

	// Narrow operations are not tracked precisely: they poison their
	// destination and flag memory traffic.
	if in.W != 32 {
		switch in.Op {
		case x86.CMP, x86.TEST, x86.NOP, x86.SAHF, x86.LAHF:
			// flags only (lahf poisons AH's parent register)
			if in.Op == x86.LAHF {
				e.regs[x86.EAX] = unknownSym
			}
			if _, isMem := in.MemOperand(); isMem {
				e.loads++
				e.memReads = true
			}
			return true
		}
		if in.Dst.Kind == x86.KMem {
			e.memWrites = true
			return true
		}
		switch in.Op {
		case x86.MUL, x86.IMUL, x86.DIV, x86.IDIV:
			// Narrow multiplies/divides write AX or DX:AX.
			e.regs[x86.EAX] = unknownSym
			e.regs[x86.EDX] = unknownSym
			if _, isMem := in.MemOperand(); isMem {
				e.loads++
				e.memReads = true
			}
			return true
		}
		poison := func(o x86.Operand) {
			if o.Kind != x86.KReg {
				return
			}
			// Byte registers 4..7 alias the second byte of regs 0..3.
			r := o.Reg
			if in.W == 8 && r >= 4 {
				r -= 4
			}
			e.regs[r] = unknownSym
		}
		poison(in.Dst)
		if in.Op == x86.XCHG {
			poison(in.Src) // xchg writes both operands
		}
		if in.Src.Kind == x86.KMem {
			e.loads++
			e.memReads = true
		}
		return true
	}

	switch in.Op {
	case x86.NOP, x86.CMP, x86.TEST, x86.CLC, x86.STC, x86.CMC, x86.CLD, x86.STD,
		x86.PUSHFD:
		if in.Op == x86.PUSHFD {
			e.push(unknownSym)
		}
		if _, isMem := in.MemOperand(); isMem {
			e.loads++
			e.memReads = true
		}
		return true

	case x86.POPFD:
		e.espOff++
		return true

	case x86.MOV:
		v := e.readOp(in.Src)
		return e.writeOp(in.Dst, v)

	case x86.LEA:
		e.regs[in.Dst.Reg] = e.addrSym(in.Src)
		return true

	case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.ADC, x86.SBB:
		op := in.Op
		if op == x86.ADC {
			op = x86.ADD // carry not modeled; value degraded below
		}
		if op == x86.SBB {
			op = x86.SUB
		}
		a := e.readOp(in.Dst)
		b := e.readOp(in.Src)
		v := e.binSym(op, a, b)
		if in.Op == x86.ADC || in.Op == x86.SBB {
			v = unknownSym // depends on incoming CF
		}
		// Special case: esp arithmetic with a register source is the
		// AddEsp branch primitive.
		if in.Dst.IsReg(x86.ESP) {
			if in.Op == x86.ADD && in.Src.Kind == x86.KImm {
				if in.Src.Imm%4 != 0 {
					e.stackBad = true
					return true
				}
				e.espOff += int(in.Src.Imm / 4)
				return true
			}
			if in.Op == x86.SUB && in.Src.Kind == x86.KImm {
				if in.Src.Imm%4 != 0 {
					e.stackBad = true
					return true
				}
				e.espOff -= int(in.Src.Imm / 4)
				e.noteEsp()
				return true
			}
			if in.Op == x86.ADD && in.Src.Kind == x86.KReg {
				e.espSym = e.binSym(x86.ADD, initSyms[x86.ESP], e.regs[in.Src.Reg])
				return true
			}
			e.stackBad = true
			return true
		}
		return e.writeOp(in.Dst, v)

	case x86.XCHG:
		if in.Dst.Kind == x86.KReg && in.Src.Kind == x86.KReg {
			if in.Dst.Reg == x86.ESP || in.Src.Reg == x86.ESP {
				// Stack pivot: esp leaves the tracked form.
				e.stackBad = true
				other := in.Dst.Reg
				if other == x86.ESP {
					other = in.Src.Reg
				}
				e.regs[other] = unknownSym
				return true
			}
			e.regs[in.Dst.Reg], e.regs[in.Src.Reg] = e.regs[in.Src.Reg], e.regs[in.Dst.Reg]
			return true
		}
		a := e.readOp(in.Dst)
		b := e.readOp(in.Src)
		if !e.writeOp(in.Dst, b) {
			return false
		}
		return e.writeOp(in.Src, a)

	case x86.NEG:
		v := e.readOp(in.Dst)
		return e.writeOp(in.Dst, e.newSym(sym{kind: symNeg, a: v}))

	case x86.NOT:
		v := e.readOp(in.Dst)
		return e.writeOp(in.Dst, e.newSym(sym{kind: symNot, a: v}))

	case x86.INC:
		v := e.readOp(in.Dst)
		return e.writeOp(in.Dst, e.binSym(x86.ADD, v, e.constSym(1)))

	case x86.DEC:
		v := e.readOp(in.Dst)
		return e.writeOp(in.Dst, e.binSym(x86.SUB, v, e.constSym(1)))

	case x86.SHL, x86.SAL, x86.SHR, x86.SAR, x86.ROL, x86.ROR, x86.RCL, x86.RCR:
		v := e.readOp(in.Dst)
		op := in.Op
		if op == x86.SAL {
			op = x86.SHL
		}
		if op == x86.SHL || op == x86.SHR || op == x86.SAR {
			if in.Src.Kind == x86.KImm {
				return e.writeOp(in.Dst, e.binSym(op, v, e.constSym(uint32(in.Src.Imm))))
			}
			if in.Src.IsReg(x86.ECX) {
				return e.writeOp(in.Dst, e.binSym(op, v, e.regs[x86.ECX]))
			}
		}
		return e.writeOp(in.Dst, unknownSym)

	case x86.PUSH:
		e.push(e.readOp(in.Dst))
		return true

	case x86.POP:
		v, popOK := e.popSlot()
		if !popOK {
			return true // stackBad already set
		}
		if in.Dst.IsReg(x86.ESP) {
			e.espSym = v
			return true
		}
		return e.writeOp(in.Dst, v)

	case x86.PUSHAD:
		for i := 0; i < 8; i++ {
			e.push(unknownSym)
		}
		return true

	case x86.POPAD:
		for _, r := range []x86.Reg{x86.EDI, x86.ESI, x86.EBP, x86.EBX,
			x86.EDX, x86.ECX, x86.EAX} {
			e.regs[r] = unknownSym
		}
		e.espOff += 8
		return true

	case x86.LEAVE:
		// esp = ebp; pop ebp — the stack pointer leaves the tracked
		// form.
		e.espSym = e.regs[x86.EBP]
		e.regs[x86.EBP] = unknownSym
		e.stackBad = true
		return true

	case x86.MOVZX, x86.MOVSX:
		if in.Src.Kind == x86.KMem {
			e.loads++
			e.memReads = true
		}
		e.regs[in.Dst.Reg] = unknownSym
		return true

	case x86.MUL, x86.IMUL, x86.DIV, x86.IDIV:
		// Two-operand register imul is precisely tracked (truncated
		// multiply); everything else poisons EDX:EAX.
		if in.Op == x86.IMUL && !in.HasImm && in.Dst.Kind == x86.KReg &&
			in.Src.Kind == x86.KReg {
			a := e.regs[in.Dst.Reg]
			b := e.regs[in.Src.Reg]
			return e.writeOp(in.Dst, e.binSym(x86.IMUL, a, b))
		}
		if _, isMem := in.MemOperand(); isMem {
			e.loads++
			e.memReads = true
		}
		e.regs[x86.EAX] = unknownSym
		e.regs[x86.EDX] = unknownSym
		if in.Op == x86.IMUL && in.Dst.Kind == x86.KReg && in.Src.Kind != x86.KNone {
			e.regs[in.Dst.Reg] = unknownSym
		}
		return true

	case x86.CDQ, x86.CWDE:
		e.regs[x86.EDX] = unknownSym
		if in.Op == x86.CWDE {
			e.regs[x86.EAX] = unknownSym
		}
		return true

	case x86.SETCC:
		return e.writeOp(in.Dst, unknownSym)

	default:
		return false
	}
}

func (e *evaluator) popSlot() (*sym, bool) {
	if e.espSym != nil {
		e.stackBad = true
		return unknownSym, false
	}
	idx := e.espOff
	e.espOff++
	if s := e.slot(idx); s != nil {
		return s.v, true
	}
	if idx < 0 {
		// Reading below where the gadget itself pushed but at a slot it
		// never wrote: value unknowable.
		return unknownSym, true
	}
	return e.stackSym(idx), true
}

// writeOp stores a symbolic value into a 32-bit destination.
func (e *evaluator) writeOp(o x86.Operand, v *sym) bool {
	switch o.Kind {
	case x86.KReg:
		if o.Reg == x86.ESP {
			// Arbitrary esp writes are stack pivots outside the
			// tracked form.
			e.stackBad = true
			return true
		}
		e.regs[o.Reg] = v
		return true
	case x86.KMem:
		a := e.addrSym(o)
		if a.kind == symUnknown {
			e.memWrites = true
			return true
		}
		e.writes = append(e.writes, memWrite{addr: a, value: v, wide: true})
		return true
	default:
		return false
	}
}

// classify runs the evaluator over the instruction sequence (which must
// end in RET/RETF) and fills in the gadget's semantic fields. It
// returns false when the body contains instructions that invalidate it
// as a gadget (control flow, traps). Gadgets the evaluator cannot type
// get a second chance against the structural patterns (divides, whose
// paired EAX/EDX results are beyond the single-destination model).
func (e *evaluator) classify(g *Gadget) bool {
	if !e.classifyEval(g) {
		return false
	}
	if g.Kind == KindOther {
		matchStructural(g)
	}
	return true
}

// matchStructural recognizes exact multi-result instruction patterns.
func matchStructural(g *Gadget) {
	ins := g.Insts
	if len(ins) != 3 || ins[2].Op != x86.RET || ins[2].Imm != 0 {
		return
	}
	div := &ins[1]
	if div.W != 32 || div.Dst.Kind != x86.KReg {
		return
	}
	r := div.Dst.Reg
	if r == x86.ESP || r == x86.EDX || r == x86.EAX {
		return
	}
	reset := func(kind Kind) {
		g.Kind = kind
		g.Dst = x86.EAX
		g.Src = r
		var cl RegSet
		cl.Add(x86.EDX)
		g.Clobbers = cl
		g.MemReads = false
		g.MemWrites = false
		g.StackPops = 0
	}
	switch {
	case ins[0].Op == x86.XOR && ins[0].W == 32 &&
		ins[0].Dst.IsReg(x86.EDX) && ins[0].Src.IsReg(x86.EDX) &&
		div.Op == x86.DIV:
		reset(KindUDivMod)
	case ins[0].Op == x86.CDQ && div.Op == x86.IDIV:
		reset(KindSDivMod)
	}
}

func (e *evaluator) classifyEval(g *Gadget) bool {
	e.reset()
	for i := 0; i < len(g.Insts)-1; i++ {
		if !e.step(&g.Insts[i]) {
			return false
		}
	}
	ret := g.Insts[len(g.Insts)-1]
	g.FarRet = ret.Op == x86.RETF
	g.RetImm = uint16(ret.Imm)
	g.StackWrites = e.minEsp < 0

	// Stack accounting.
	if e.espSym != nil {
		// esp was replaced: AddEsp / PopEsp patterns.
		g.StackPops = 0
		s := e.espSym
		switch {
		case s.kind == symBin && s.op == x86.ADD && s.a.isInit(x86.ESP) &&
			s.b.kind == symInit && !e.stackBad:
			g.Kind = KindAddEsp
			g.Src = s.b.reg
			g.Clobbers = e.clobbers(x86.NumRegs)
			g.MemReads = e.memReads
			g.MemWrites = e.memWrites || len(e.writes) > 0
			return true
		case s.kind == symStack && s.idx >= 0 && !e.stackBad:
			g.Kind = KindPopEsp
			g.PopSlot = s.idx
			g.Clobbers = e.clobbers(x86.NumRegs)
			g.MemReads = e.memReads
			g.MemWrites = e.memWrites || len(e.writes) > 0
			return true
		default:
			g.Kind = KindOther
			g.MemReads = e.memReads
			g.MemWrites = true // unknown stack: never chain-usable
			return true
		}
	}
	if e.slot(e.espOff) != nil {
		// The gadget wrote the slot its own return will pop: control
		// goes to a gadget-controlled value, not the next chain word.
		e.stackBad = true
	}
	if e.espOff < 0 || e.stackBad {
		// Net push or untracked esp: keep as untyped gadget.
		g.Kind = KindOther
		g.MemReads = e.memReads
		g.MemWrites = true
		return true
	}
	g.StackPops = e.espOff

	g.MemReads = e.memReads
	g.MemWrites = e.memWrites

	// Identify semantic writes first: exactly one well-formed store.
	var store *memWrite
	cleanWrites := true
	for i := range e.writes {
		w := &e.writes[i]
		if w.wide && w.addr.kind == symInit && w.addr.reg != x86.ESP && store == nil {
			store = w
		} else {
			cleanWrites = false
		}
	}
	if !cleanWrites {
		g.MemWrites = true
		store = nil
	}

	// Collect changed registers.
	type change struct {
		reg x86.Reg
		s   *sym
	}
	var buf [x86.NumRegs]change
	changes := buf[:0]
	for r := x86.Reg(0); r < x86.NumRegs; r++ {
		if r == x86.ESP {
			continue
		}
		if !e.regs[r].isInit(r) {
			changes = append(changes, change{r, e.regs[r]})
		}
	}

	// Try to find a primary effect among the changed registers.
	// ESP is never a legal data source: its runtime value is the chain
	// pointer, which no register pattern models.
	match := func(r x86.Reg, s *sym) (Kind, x86.Reg, uint8, int, bool) {
		switch {
		case s.kind == symStack && s.idx >= 0:
			return KindPopReg, 0, 0, s.idx, true
		case s.kind == symInit && s.reg != x86.ESP:
			return KindMovReg, s.reg, 0, 0, true
		case s.kind == symNeg && s.a.isInit(r):
			return KindNegReg, 0, 0, 0, true
		case s.kind == symNot && s.a.isInit(r):
			return KindNotReg, 0, 0, 0, true
		case s.kind == symLoad && s.a.kind == symInit && s.a.reg != x86.ESP:
			return KindLoad, s.a.reg, 0, 0, true
		case s.kind == symBin && s.a.isInit(r) && s.b.kind == symInit && s.b.reg != x86.ESP:
			switch s.op {
			case x86.ADD:
				return KindAddReg, s.b.reg, 0, 0, true
			case x86.SUB:
				return KindSubReg, s.b.reg, 0, 0, true
			case x86.AND:
				return KindAndReg, s.b.reg, 0, 0, true
			case x86.OR:
				return KindOrReg, s.b.reg, 0, 0, true
			case x86.XOR:
				return KindXorReg, s.b.reg, 0, 0, true
			case x86.IMUL:
				return KindMulReg, s.b.reg, 0, 0, true
			case x86.SHL:
				// Shift count comes from the CL encoding; Src records
				// the register whose value reached CL.
				return KindShlCL, s.b.reg, 0, 0, true
			case x86.SHR:
				return KindShrCL, s.b.reg, 0, 0, true
			case x86.SAR:
				return KindSarCL, s.b.reg, 0, 0, true
			}
		case s.kind == symBin && s.a.isInit(r) && s.b.kind == symConst &&
			(s.op == x86.SHR || s.op == x86.SHL || s.op == x86.SAR):
			k := uint8(s.b.c & 31)
			switch s.op {
			case x86.SHR:
				return KindShrImm, 0, k, 0, true
			case x86.SHL:
				return KindShlImm, 0, k, 0, true
			default:
				return KindSarImm, 0, k, 0, true
			}
		}
		return KindOther, 0, 0, 0, false
	}

	// A clean store gadget: one store, and any register changes are
	// clobbers.
	if store != nil && !g.MemWrites {
		if store.value.kind == symInit && store.value.reg != x86.ESP {
			g.Kind = KindStore
			g.Dst = store.addr.reg
			g.Src = store.value.reg
			g.Clobbers = e.clobbers(x86.NumRegs)
			return true
		}
		// Anything else written to memory is an unmodeled side effect.
		g.MemWrites = true
	}

	var best *change
	var bestKind Kind
	var bestSrc x86.Reg
	var bestShift uint8
	var bestSlot int
	for i := range changes {
		k, src, shift, slot, ok := match(changes[i].reg, changes[i].s)
		if !ok {
			continue
		}
		// Prefer the first match; pops beat moves beat arithmetic only
		// in pathological multi-effect gadgets, where any consistent
		// choice is fine because the rest becomes clobbers.
		if best == nil {
			best = &changes[i]
			bestKind, bestSrc, bestShift, bestSlot = k, src, shift, slot
		}
	}

	if best == nil {
		if len(changes) == 0 && len(e.writes) == 0 {
			g.Kind = KindRet
			return true
		}
		g.Kind = KindOther
		return true
	}

	g.Kind = bestKind
	g.Dst = best.reg
	g.Src = bestSrc
	g.ShiftK = bestShift
	g.PopSlot = bestSlot
	g.Clobbers = e.clobbers(best.reg)
	// A typed gadget that also has stray stores is unusable; record the
	// type anyway for inventory purposes.
	if len(e.writes) > 0 && g.Kind != KindStore {
		g.MemWrites = true
	}
	// Loads that are not the classified effect are incidental: every
	// load of a non-load kind, and any second load of a load gadget
	// (readOp flags only unknown addresses, so a read through an
	// entry-register address would otherwise go unseen).
	if e.loads > 1 || (g.Kind != KindLoad && e.loads > 0) {
		g.MemReads = true
	}
	return true
}

// clobbers returns the set of changed registers other than primary and
// ESP.
func (e *evaluator) clobbers(primary x86.Reg) RegSet {
	var s RegSet
	for r := x86.Reg(0); r < x86.NumRegs; r++ {
		if r == x86.ESP || r == primary {
			continue
		}
		if !e.regs[r].isInit(r) {
			s.Add(r)
		}
	}
	return s
}
