package tb

import (
	"parallax/internal/emu"
	"parallax/internal/x86"
)

// opKind selects the micro-op executor. The specialized kinds cover
// the 32-bit operations that dominate generated workloads and tamper
// campaigns (data movement, group-80 ALU, stack traffic, immediate
// shifts, and all control flow); everything else becomes opFallback
// and runs through the interpreter core.
type opKind uint8

const (
	// opFallback re-executes the original decoded instruction through
	// CPU.ExecInst after materializing flags. opFallbackTerm is the
	// same for instructions that end the block (INT, HLT, RETF, ...):
	// control continues wherever the interpreter left EIP.
	opFallback opKind = iota
	opFallbackTerm

	opNop // 32-bit shift with a statically-zero count: no write, no flags

	opMovRR // r1 = r2
	opMovRI // r1 = imm
	opMovRM // r1 = [ea]
	opMovMR // [ea] = r2
	opMovMI // [ea] = imm

	opAluRR // r1 op= r2 (alu selects ADD/OR/AND/SUB/XOR/CMP/TEST)
	opAluRI // r1 op= imm
	opAluRM // r1 op= [ea]
	opAluMR // [ea] op= r2
	opAluMI // [ea] op= imm

	opIncR
	opDecR
	opNotR
	opNegR

	opPushR
	opPushI
	opPushM // push dword [ea]
	opPopR
	opLea
	opExt     // movzx/movsx r32, r8/r16 (alu = extSigned for movsx; w = source width)
	opExtM    // movzx/movsx r32, [m8/m16] (alu/w as opExt)
	opShiftRI // shl/shr/sar r32, imm (alu selects; imm = masked count 1..31)
	opShiftRC // shl/shr/sar r32, cl (alu selects; count read at run time)
	opXchgRR
	opSetccR // setcc r8 (alu = x86.Cond)
	opMovMR8 // mov [ea], r8 (byte store; r2 in ModRM 8-bit numbering)
	opImulRR // imul r32, r2 [, imm] (alu = imulImm when imm multiplies)
	opImulRM // imul r32, [ea] [, imm]
	opLeave  // mov esp, ebp; pop ebp

	// Terminal control flow.
	opJmp      // direct: chains via succ[0]
	opJcc      // alu = x86.Cond; taken chains succ[1], fallthrough succ[0]
	opCallD    // direct call: push imm (return address), chain succ[0]
	opJmpIndR  // jmp r
	opJmpIndM  // jmp [ea]
	opCallIndR // call r
	opCallIndM // call [ea]
	opRet      // ret / ret imm16 (imm = stack adjustment)
)

// Shift subop selectors for opShiftRI.
const (
	shiftShl uint8 = iota
	shiftShr
	shiftSar
)

// extSigned in uop.alu marks opExt/opExtM as MOVSX.
const extSigned uint8 = 1

// imulImm in uop.alu marks opImulRR/opImulRM as the three-operand
// form: the second multiplicand is uop.imm instead of the destination
// register's prior value.
const imulImm uint8 = 1

// Memory-operand presence bits in uop.memFlags. memStack marks
// ESP/EBP-based addressing: the executor's fast path then consults the
// stack-segment cache instead of the data-segment cache, so frame and
// spill traffic does not thrash the latter.
const (
	memHasBase uint8 = 1 << iota
	memHasIndex
	memStack
)

// uop is one translated micro-op: the original instruction flattened
// into a flat struct the executor switches on, with no per-op decode,
// operand-kind dispatch, or interface calls.
type uop struct {
	kind     opKind
	alu      uint8 // subop: x86.Op for ALU, x86.Cond for jcc/setcc, shift/ext selector
	w        uint8 // opExt: source width (8 or 16)
	memFlags uint8
	r1       x86.Reg // primary register (dst)
	r2       x86.Reg // secondary register (src)
	base     x86.Reg
	idx      x86.Reg
	scale    uint8
	cost     uint16 // deterministic cycle cost (emu.InstCost)
	pc       uint32 // address of the instruction
	imm      uint32 // immediate / return address (calls) / ESP adjust (ret)
	disp     uint32
	target   uint32    // direct branch target
	inst     *x86.Inst // opFallback*: the decoded instruction to replay
}

// setMem flattens a KMem operand into the uop.
func (u *uop) setMem(o *x86.Operand) {
	u.base, u.idx, u.scale, u.disp = o.Base, o.Index, o.Scale, uint32(o.Disp)
	if o.HasBase {
		u.memFlags |= memHasBase
		if o.Base == x86.ESP || o.Base == x86.EBP {
			u.memFlags |= memStack
		}
	}
	if o.HasIndex {
		u.memFlags |= memHasIndex
	}
}

// terminal reports whether op ends a basic block.
func terminal(op x86.Op) bool {
	switch op {
	case x86.CALL, x86.JMP, x86.JCC, x86.RET, x86.RETF, x86.HLT, x86.INT, x86.INT3:
		return true
	}
	return false
}

// maxBlockOps caps translation lookahead so a long straight-line run
// still yields bounded blocks (and bounded invalidation ranges).
const maxBlockOps = 128

// translate decodes the basic block starting at entry and installs its
// translation. A decode fault on the first instruction is the caller's
// fault to report; a fault further in just ends the block early — the
// fault surfaces, uncounted, when execution actually reaches it.
//
// With a shared catalog attached, translate first tries to adopt
// another engine's translation of the same bytes (verified against
// this CPU's memory byte for byte), and publishes its own result on a
// miss. Both directions are skipped while the fetch overlay is armed:
// memory bytes then do not describe fetched bytes, so the catalog
// cannot be consulted or fed without risking an incoherent adoption.
func (e *Engine) translate(entry uint32) (*block, error) {
	c := e.cpu
	shared := e.cat != nil && !c.OverlayActive()
	if shared {
		if ops, end := e.cat.adopt(c.Mem, entry); ops != nil {
			e.mCatHits.Inc()
			b := &block{end: end, lo: entry, hi: end, ops: ops}
			e.blocks[entry] = b
			return b, nil
		}
		e.mCatMisses.Inc()
	}
	b := &block{}
	pc := entry
	for len(b.ops) < maxBlockOps {
		inst, err := c.DecodeAt(pc)
		if err != nil {
			if len(b.ops) == 0 {
				return nil, err
			}
			break
		}
		b.ops = append(b.ops, compile(pc, &inst))
		pc += uint32(inst.Len)
		if terminal(inst.Op) {
			break
		}
	}
	b.end = pc
	b.lo, b.hi = entry, pc
	e.blocks[entry] = b
	e.mTranslations.Inc()
	e.mBlockLen.Record(uint64(len(b.ops)))
	if shared {
		// Peek can fail only if the decoded range became unmapped
		// mid-walk, which cannot happen (segments are never unmapped);
		// a failure just skips publication.
		if code, err := c.Mem.Peek(entry, pc-entry); err == nil && e.cat.install(entry, code, b.ops) {
			e.mCatInstalls.Inc()
		}
	}
	return b, nil
}

// compile lowers one decoded instruction to a micro-op. Only 32-bit
// operand forms are specialized; anything else (8/16-bit ALU, ADC/SBB,
// rotates, string ops, mul/div, flag twiddles, ...) falls back to the
// interpreter core, which is correct by construction.
func compile(pc uint32, inst *x86.Inst) uop {
	u := uop{pc: pc, cost: uint16(emu.InstCost(inst))}

	switch inst.Op {
	case x86.MOV:
		if inst.W == 8 && inst.Dst.Kind == x86.KMem && inst.Src.Kind == x86.KReg {
			// Byte store (string/flag writes in generated code). The
			// executor routes it through Memory.Store8 outside the cached
			// segments, so stores into code still fire invalidation.
			u.kind, u.r2 = opMovMR8, inst.Src.Reg
			u.setMem(&inst.Dst)
			return u
		}
		if inst.W != 32 {
			break
		}
		switch {
		case inst.Dst.Kind == x86.KReg && inst.Src.Kind == x86.KReg:
			u.kind, u.r1, u.r2 = opMovRR, inst.Dst.Reg, inst.Src.Reg
			return u
		case inst.Dst.Kind == x86.KReg && inst.Src.Kind == x86.KImm:
			u.kind, u.r1, u.imm = opMovRI, inst.Dst.Reg, uint32(inst.Src.Imm)
			return u
		case inst.Dst.Kind == x86.KReg && inst.Src.Kind == x86.KMem:
			u.kind, u.r1 = opMovRM, inst.Dst.Reg
			u.setMem(&inst.Src)
			return u
		case inst.Dst.Kind == x86.KMem && inst.Src.Kind == x86.KReg:
			u.kind, u.r2 = opMovMR, inst.Src.Reg
			u.setMem(&inst.Dst)
			return u
		case inst.Dst.Kind == x86.KMem && inst.Src.Kind == x86.KImm:
			u.kind, u.imm = opMovMI, uint32(inst.Src.Imm)
			u.setMem(&inst.Dst)
			return u
		}

	case x86.ADD, x86.OR, x86.AND, x86.SUB, x86.XOR, x86.CMP, x86.TEST:
		if inst.W != 32 {
			break
		}
		u.alu = uint8(inst.Op)
		switch {
		case inst.Dst.Kind == x86.KReg && inst.Src.Kind == x86.KReg:
			u.kind, u.r1, u.r2 = opAluRR, inst.Dst.Reg, inst.Src.Reg
			return u
		case inst.Dst.Kind == x86.KReg && inst.Src.Kind == x86.KImm:
			u.kind, u.r1, u.imm = opAluRI, inst.Dst.Reg, uint32(inst.Src.Imm)
			return u
		case inst.Dst.Kind == x86.KReg && inst.Src.Kind == x86.KMem:
			u.kind, u.r1 = opAluRM, inst.Dst.Reg
			u.setMem(&inst.Src)
			return u
		case inst.Dst.Kind == x86.KMem && inst.Src.Kind == x86.KReg:
			u.kind, u.r2 = opAluMR, inst.Src.Reg
			u.setMem(&inst.Dst)
			return u
		case inst.Dst.Kind == x86.KMem && inst.Src.Kind == x86.KImm:
			u.kind, u.imm = opAluMI, uint32(inst.Src.Imm)
			u.setMem(&inst.Dst)
			return u
		}

	case x86.INC:
		if inst.W == 32 && inst.Dst.Kind == x86.KReg {
			u.kind, u.r1 = opIncR, inst.Dst.Reg
			return u
		}
	case x86.DEC:
		if inst.W == 32 && inst.Dst.Kind == x86.KReg {
			u.kind, u.r1 = opDecR, inst.Dst.Reg
			return u
		}
	case x86.NOT:
		if inst.W == 32 && inst.Dst.Kind == x86.KReg {
			u.kind, u.r1 = opNotR, inst.Dst.Reg
			return u
		}
	case x86.NEG:
		if inst.W == 32 && inst.Dst.Kind == x86.KReg {
			u.kind, u.r1 = opNegR, inst.Dst.Reg
			return u
		}

	case x86.PUSH:
		switch inst.Dst.Kind {
		case x86.KReg:
			u.kind, u.r1 = opPushR, inst.Dst.Reg
			return u
		case x86.KImm:
			u.kind, u.imm = opPushI, uint32(inst.Dst.Imm)
			return u
		case x86.KMem:
			u.kind = opPushM
			u.setMem(&inst.Dst)
			return u
		}
	case x86.POP:
		if inst.Dst.Kind == x86.KReg {
			u.kind, u.r1 = opPopR, inst.Dst.Reg
			return u
		}

	case x86.LEA:
		if inst.Dst.Kind == x86.KReg && inst.Src.Kind == x86.KMem {
			u.kind, u.r1 = opLea, inst.Dst.Reg
			u.setMem(&inst.Src)
			return u
		}

	case x86.MOVZX, x86.MOVSX:
		if inst.Dst.Kind == x86.KReg && inst.Src.Kind == x86.KReg {
			u.kind, u.r1, u.r2, u.w = opExt, inst.Dst.Reg, inst.Src.Reg, inst.W
			if inst.Op == x86.MOVSX {
				u.alu = extSigned
			}
			return u
		}
		if inst.Dst.Kind == x86.KReg && inst.Src.Kind == x86.KMem {
			u.kind, u.r1, u.w = opExtM, inst.Dst.Reg, inst.W
			if inst.Op == x86.MOVSX {
				u.alu = extSigned
			}
			u.setMem(&inst.Src)
			return u
		}

	case x86.IMUL:
		// Two- and three-operand forms only: truncated signed multiply
		// into a register, CF=OF=overflow, SZP from the low result, AF
		// untouched. The one-operand EDX:EAX forms stay on the fallback.
		if inst.W == 32 && inst.Dst.Kind == x86.KReg {
			if inst.HasImm {
				u.alu, u.imm = imulImm, uint32(inst.Imm)
			}
			switch inst.Src.Kind {
			case x86.KReg:
				u.kind, u.r1, u.r2 = opImulRR, inst.Dst.Reg, inst.Src.Reg
				return u
			case x86.KMem:
				u.kind, u.r1 = opImulRM, inst.Dst.Reg
				u.setMem(&inst.Src)
				return u
			}
			u.alu, u.imm = 0, 0
		}

	case x86.SHL, x86.SAL, x86.SHR, x86.SAR:
		if inst.W != 32 || inst.Dst.Kind != x86.KReg {
			break
		}
		var sel uint8
		switch inst.Op {
		case x86.SHR:
			sel = shiftShr
		case x86.SAR:
			sel = shiftSar
		default:
			sel = shiftShl
		}
		switch {
		case inst.Src.Kind == x86.KImm:
			count := uint32(inst.Src.Imm) & 31
			if count == 0 {
				// Zero count: the interpreter skips the write and leaves
				// every flag (including AF) untouched.
				u.kind = opNop
				return u
			}
			u.kind, u.alu, u.r1, u.imm = opShiftRI, sel, inst.Dst.Reg, count
			return u
		case inst.Src.Kind == x86.KReg && inst.Src.Reg == x86.ECX:
			// Shift by CL: the count is dynamic, so the zero-count
			// flags-untouched case is handled by the executor.
			u.kind, u.alu, u.r1 = opShiftRC, sel, inst.Dst.Reg
			return u
		}

	case x86.XCHG:
		if inst.W == 32 && inst.Dst.Kind == x86.KReg && inst.Src.Kind == x86.KReg {
			u.kind, u.r1, u.r2 = opXchgRR, inst.Dst.Reg, inst.Src.Reg
			return u
		}

	case x86.SETCC:
		if inst.Dst.Kind == x86.KReg {
			u.kind, u.r1, u.alu = opSetccR, inst.Dst.Reg, uint8(inst.Cond)
			return u
		}

	case x86.LEAVE:
		u.kind = opLeave
		return u

	case x86.JMP:
		switch {
		case inst.Rel:
			u.kind, u.target = opJmp, inst.Target
			return u
		case inst.Dst.Kind == x86.KReg:
			u.kind, u.r1 = opJmpIndR, inst.Dst.Reg
			return u
		case inst.Dst.Kind == x86.KMem:
			u.kind = opJmpIndM
			u.setMem(&inst.Dst)
			return u
		}

	case x86.CALL:
		u.imm = pc + uint32(inst.Len) // return address
		switch {
		case inst.Rel:
			u.kind, u.target = opCallD, inst.Target
			return u
		case inst.Dst.Kind == x86.KReg:
			u.kind, u.r1 = opCallIndR, inst.Dst.Reg
			return u
		case inst.Dst.Kind == x86.KMem:
			u.kind = opCallIndM
			u.setMem(&inst.Dst)
			return u
		}
		u.imm = 0

	case x86.JCC:
		u.kind, u.alu, u.target = opJcc, uint8(inst.Cond), inst.Target
		return u

	case x86.RET:
		u.kind, u.imm = opRet, uint32(uint16(inst.Imm))
		return u
	}

	// Fallback: replay the decoded instruction through the interpreter.
	// Cost drops to zero — the interpreter core accounts its own cycles,
	// and the executor adds op.cost unconditionally.
	ic := *inst
	u.inst = &ic
	u.cost = 0
	if terminal(inst.Op) {
		u.kind = opFallbackTerm
	} else {
		u.kind = opFallback
	}
	return u
}
