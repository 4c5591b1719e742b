package x86

import (
	"errors"
	"fmt"
)

// Encoding errors.
var (
	// ErrNoEncoding means the Inst has an operand combination with no
	// machine encoding (e.g. memory-to-memory mov).
	ErrNoEncoding = errors.New("x86: no encoding for operand combination")
	// ErrBadOperand means an operand is malformed (e.g. ESP used as an
	// index register, or a scale that is not 1/2/4/8).
	ErrBadOperand = errors.New("x86: malformed operand")
)

type encoder struct {
	out   []byte
	start int // len(out) before this instruction
	addr  uint32
}

// Encode encodes inst at virtual address addr (needed to resolve
// relative branch displacements from inst.Target). The returned slice is
// freshly allocated.
func Encode(inst Inst, addr uint32) ([]byte, error) {
	b, err := AppendEncode(make([]byte, 0, 8), inst, addr)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendEncode appends the encoding of inst at virtual address addr to
// dst and returns the extended slice. On error it returns dst
// unextended.
func AppendEncode(dst []byte, inst Inst, addr uint32) ([]byte, error) {
	e := encoder{out: dst, start: len(dst), addr: addr}
	if err := e.encode(inst); err != nil {
		return dst, err
	}
	return e.out, nil
}

func (e *encoder) b(v ...byte) { e.out = append(e.out, v...) }

func (e *encoder) imm(v int32, width int) {
	switch width {
	case 8:
		e.b(byte(v))
	case 16:
		e.b(byte(v), byte(v>>8))
	default:
		e.b(byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// prefix66 emits the operand-size prefix when the instruction operates
// on 16-bit operands.
func (e *encoder) prefix66(w uint8) {
	if w == 16 {
		e.b(0x66)
	}
}

func fitsInt8(v int32) bool { return v >= -128 && v <= 127 }

// modrm emits a ModRM byte (plus SIB/displacement) addressing rm with
// the given /reg field value.
func (e *encoder) modrm(reg byte, rm Operand) error {
	switch rm.Kind {
	case KReg:
		e.b(0xC0 | reg<<3 | byte(rm.Reg))
		return nil
	case KMem:
		return e.modrmMem(reg, rm)
	default:
		return ErrNoEncoding
	}
}

func (e *encoder) modrmMem(reg byte, m Operand) error {
	if m.HasIndex {
		if m.Index == ESP {
			return fmt.Errorf("%w: esp cannot be an index register", ErrBadOperand)
		}
		switch m.Scale {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("%w: scale %d", ErrBadOperand, m.Scale)
		}
	}

	scaleBits := func() byte {
		switch m.Scale {
		case 2:
			return 1
		case 4:
			return 2
		case 8:
			return 3
		default:
			return 0
		}
	}

	// Absolute or index-only: ModRM mod=00 with rm=101 (disp32) or a
	// SIB with base=101.
	if !m.HasBase {
		if !m.HasIndex {
			e.b(reg<<3 | 5)
			e.imm(m.Disp, 32)
			return nil
		}
		e.b(reg<<3|4, scaleBits()<<6|byte(m.Index)<<3|5)
		e.imm(m.Disp, 32)
		return nil
	}

	needSIB := m.HasIndex || m.Base == ESP
	var mod byte
	switch {
	case m.Disp == 0 && m.Base != EBP:
		mod = 0
	case fitsInt8(m.Disp):
		mod = 1
	default:
		mod = 2
	}
	if needSIB {
		e.b(mod<<6|reg<<3|4, encodeSIB(m, scaleBits()))
	} else {
		e.b(mod<<6 | reg<<3 | byte(m.Base))
	}
	switch mod {
	case 1:
		e.imm(m.Disp, 8)
	case 2:
		e.imm(m.Disp, 32)
	}
	return nil
}

func encodeSIB(m Operand, scaleBits byte) byte {
	index := byte(4) // none
	if m.HasIndex {
		index = byte(m.Index)
	}
	return scaleBits<<6 | index<<3 | byte(m.Base)
}

func (e *encoder) encode(inst Inst) error {
	switch inst.Op {
	case ADD, OR, ADC, SBB, AND, SUB, XOR, CMP:
		return e.encodeALU(inst)
	case MOV:
		return e.encodeMov(inst)
	case TEST:
		return e.encodeTest(inst)
	case XCHG:
		return e.encodeXchg(inst)
	case LEA:
		if inst.Dst.Kind != KReg || inst.Src.Kind != KMem {
			return ErrNoEncoding
		}
		e.b(0x8D)
		return e.modrm(byte(inst.Dst.Reg), inst.Src)
	case PUSH:
		return e.encodePush(inst)
	case POP:
		return e.encodePop(inst)
	case INC, DEC:
		return e.encodeIncDec(inst)
	case NOT, NEG, MUL, DIV, IDIV:
		return e.encodeGroup3(inst)
	case IMUL:
		return e.encodeImul(inst)
	case ROL, ROR, RCL, RCR, SHL, SAL, SHR, SAR:
		return e.encodeShift(inst)
	case MOVZX, MOVSX:
		return e.encodeMovx(inst)
	case CALL, JMP:
		return e.encodeCallJmp(inst)
	case JCC:
		if !inst.Rel {
			return ErrNoEncoding
		}
		e.b(0x0F, 0x80+byte(inst.Cond))
		e.imm(e.rel(inst.Target, 4), 32)
		return nil
	case SETCC:
		e.b(0x0F, 0x90+byte(inst.Cond))
		return e.modrm(0, inst.Dst)
	case RET:
		if inst.Imm != 0 {
			e.b(0xC2)
			e.imm(inst.Imm, 16)
		} else {
			e.b(0xC3)
		}
		return nil
	case RETF:
		if inst.Imm != 0 {
			e.b(0xCA)
			e.imm(inst.Imm, 16)
		} else {
			e.b(0xCB)
		}
		return nil
	case LEAVE:
		e.b(0xC9)
		return nil
	case NOP:
		e.b(0x90)
		return nil
	case HLT:
		e.b(0xF4)
		return nil
	case INT:
		e.b(0xCD, byte(inst.Imm))
		return nil
	case INT3:
		e.b(0xCC)
		return nil
	case PUSHAD:
		e.b(0x60)
		return nil
	case POPAD:
		e.b(0x61)
		return nil
	case PUSHFD:
		e.b(0x9C)
		return nil
	case POPFD:
		e.b(0x9D)
		return nil
	case LAHF:
		e.b(0x9F)
		return nil
	case SAHF:
		e.b(0x9E)
		return nil
	case CDQ:
		e.prefix66(inst.W)
		e.b(0x99)
		return nil
	case CWDE:
		e.prefix66(inst.W)
		e.b(0x98)
		return nil
	case CLC:
		e.b(0xF8)
		return nil
	case STC:
		e.b(0xF9)
		return nil
	case CMC:
		e.b(0xF5)
		return nil
	case CLD:
		e.b(0xFC)
		return nil
	case STD:
		e.b(0xFD)
		return nil
	case MOVS, STOS, LODS, SCAS, CMPS:
		return e.encodeString(inst)
	default:
		return fmt.Errorf("%w: %v", ErrNoEncoding, inst.Op)
	}
}

// rel computes a relative displacement to target from the end of the
// instruction, given the number of displacement+trailing bytes still to
// be emitted.
func (e *encoder) rel(target uint32, trailing int) int32 {
	end := e.addr + uint32(len(e.out)-e.start) + uint32(trailing)
	return int32(target - end)
}

// aluIndex returns the 0..7 group index of an ALU op.
func aluIndex(op Op) byte { return byte(op - ADD) }

func (e *encoder) encodeALU(inst Inst) error {
	idx := aluIndex(inst.Op)
	w := inst.W
	e.prefix66(w)
	switch {
	case inst.Src.Kind == KImm:
		switch {
		case w == 8:
			e.b(0x80)
		case fitsInt8(inst.Src.Imm):
			e.b(0x83)
		default:
			e.b(0x81)
		}
		if err := e.modrm(idx, inst.Dst); err != nil {
			return err
		}
		immW := int(w)
		if w != 8 && fitsInt8(inst.Src.Imm) {
			immW = 8
		}
		e.imm(inst.Src.Imm, immW)
		return nil
	case inst.Src.Kind == KReg && inst.Dst.Kind != KImm:
		op := idx*8 + 1
		if w == 8 {
			op = idx * 8
		}
		e.b(op)
		return e.modrm(byte(inst.Src.Reg), inst.Dst)
	case inst.Dst.Kind == KReg && inst.Src.Kind == KMem:
		op := idx*8 + 3
		if w == 8 {
			op = idx*8 + 2
		}
		e.b(op)
		return e.modrm(byte(inst.Dst.Reg), inst.Src)
	default:
		return ErrNoEncoding
	}
}

func (e *encoder) encodeMov(inst Inst) error {
	w := inst.W
	e.prefix66(w)
	switch {
	case inst.Src.Kind == KImm && inst.Dst.Kind == KReg:
		if w == 8 {
			e.b(0xB0 + byte(inst.Dst.Reg))
			e.imm(inst.Src.Imm, 8)
		} else {
			e.b(0xB8 + byte(inst.Dst.Reg))
			e.imm(inst.Src.Imm, int(w))
		}
		return nil
	case inst.Src.Kind == KImm && inst.Dst.Kind == KMem:
		if w == 8 {
			e.b(0xC6)
		} else {
			e.b(0xC7)
		}
		if err := e.modrm(0, inst.Dst); err != nil {
			return err
		}
		e.imm(inst.Src.Imm, int(w))
		return nil
	case inst.Src.Kind == KReg:
		if w == 8 {
			e.b(0x88)
		} else {
			e.b(0x89)
		}
		return e.modrm(byte(inst.Src.Reg), inst.Dst)
	case inst.Dst.Kind == KReg && inst.Src.Kind == KMem:
		if w == 8 {
			e.b(0x8A)
		} else {
			e.b(0x8B)
		}
		return e.modrm(byte(inst.Dst.Reg), inst.Src)
	default:
		return ErrNoEncoding
	}
}

func (e *encoder) encodeTest(inst Inst) error {
	w := inst.W
	e.prefix66(w)
	switch {
	case inst.Src.Kind == KImm:
		if w == 8 {
			e.b(0xF6)
		} else {
			e.b(0xF7)
		}
		if err := e.modrm(0, inst.Dst); err != nil {
			return err
		}
		e.imm(inst.Src.Imm, int(w))
		return nil
	case inst.Src.Kind == KReg:
		if w == 8 {
			e.b(0x84)
		} else {
			e.b(0x85)
		}
		return e.modrm(byte(inst.Src.Reg), inst.Dst)
	default:
		return ErrNoEncoding
	}
}

func (e *encoder) encodeXchg(inst Inst) error {
	w := inst.W
	e.prefix66(w)
	if inst.Src.Kind != KReg && inst.Dst.Kind != KReg {
		return ErrNoEncoding
	}
	// Normalize so the plain register is the /reg field.
	regOp, rmOp := inst.Src, inst.Dst
	if regOp.Kind != KReg {
		regOp, rmOp = rmOp, regOp
	}
	if w == 8 {
		e.b(0x86)
	} else {
		e.b(0x87)
	}
	return e.modrm(byte(regOp.Reg), rmOp)
}

func (e *encoder) encodePush(inst Inst) error {
	switch inst.Dst.Kind {
	case KReg:
		e.b(0x50 + byte(inst.Dst.Reg))
		return nil
	case KImm:
		if fitsInt8(inst.Dst.Imm) {
			e.b(0x6A)
			e.imm(inst.Dst.Imm, 8)
		} else {
			e.b(0x68)
			e.imm(inst.Dst.Imm, 32)
		}
		return nil
	case KMem:
		e.b(0xFF)
		return e.modrm(6, inst.Dst)
	default:
		return ErrNoEncoding
	}
}

func (e *encoder) encodePop(inst Inst) error {
	switch inst.Dst.Kind {
	case KReg:
		e.b(0x58 + byte(inst.Dst.Reg))
		return nil
	case KMem:
		e.b(0x8F)
		return e.modrm(0, inst.Dst)
	default:
		return ErrNoEncoding
	}
}

func (e *encoder) encodeIncDec(inst Inst) error {
	reg := byte(0)
	if inst.Op == DEC {
		reg = 1
	}
	if inst.W == 8 {
		e.b(0xFE)
	} else {
		e.prefix66(inst.W)
		e.b(0xFF)
	}
	return e.modrm(reg, inst.Dst)
}

func (e *encoder) encodeGroup3(inst Inst) error {
	var reg byte
	switch inst.Op {
	case NOT:
		reg = 2
	case NEG:
		reg = 3
	case MUL:
		reg = 4
	case DIV:
		reg = 6
	case IDIV:
		reg = 7
	}
	e.prefix66(inst.W)
	if inst.W == 8 {
		e.b(0xF6)
	} else {
		e.b(0xF7)
	}
	return e.modrm(reg, inst.Dst)
}

func (e *encoder) encodeImul(inst Inst) error {
	e.prefix66(inst.W)
	switch {
	case inst.HasImm:
		if inst.Dst.Kind != KReg {
			return ErrNoEncoding
		}
		if fitsInt8(inst.Imm) {
			e.b(0x6B)
		} else {
			e.b(0x69)
		}
		if err := e.modrm(byte(inst.Dst.Reg), inst.Src); err != nil {
			return err
		}
		if fitsInt8(inst.Imm) {
			e.imm(inst.Imm, 8)
		} else {
			e.imm(inst.Imm, int(inst.W))
		}
		return nil
	case inst.Src.Kind != KNone:
		if inst.Dst.Kind != KReg {
			return ErrNoEncoding
		}
		e.b(0x0F, 0xAF)
		return e.modrm(byte(inst.Dst.Reg), inst.Src)
	default:
		// One-operand form via group 3.
		if inst.W == 8 {
			e.b(0xF6)
		} else {
			e.b(0xF7)
		}
		return e.modrm(5, inst.Dst)
	}
}

func (e *encoder) encodeShift(inst Inst) error {
	var reg byte
	switch inst.Op {
	case ROL:
		reg = 0
	case ROR:
		reg = 1
	case RCL:
		reg = 2
	case RCR:
		reg = 3
	case SHL, SAL:
		reg = 4
	case SHR:
		reg = 5
	case SAR:
		reg = 7
	}
	e.prefix66(inst.W)
	switch {
	case inst.Src.Kind == KImm:
		if inst.W == 8 {
			e.b(0xC0)
		} else {
			e.b(0xC1)
		}
		if err := e.modrm(reg, inst.Dst); err != nil {
			return err
		}
		e.imm(inst.Src.Imm, 8)
		return nil
	case inst.Src.IsReg(ECX):
		if inst.W == 8 {
			e.b(0xD2)
		} else {
			e.b(0xD3)
		}
		return e.modrm(reg, inst.Dst)
	default:
		return ErrNoEncoding
	}
}

func (e *encoder) encodeMovx(inst Inst) error {
	if inst.Dst.Kind != KReg {
		return ErrNoEncoding
	}
	var op byte
	switch {
	case inst.Op == MOVZX && inst.W == 8:
		op = 0xB6
	case inst.Op == MOVZX && inst.W == 16:
		op = 0xB7
	case inst.Op == MOVSX && inst.W == 8:
		op = 0xBE
	case inst.Op == MOVSX && inst.W == 16:
		op = 0xBF
	default:
		return ErrNoEncoding
	}
	e.b(0x0F, op)
	return e.modrm(byte(inst.Dst.Reg), inst.Src)
}

func (e *encoder) encodeCallJmp(inst Inst) error {
	if inst.Rel {
		if inst.Op == CALL {
			e.b(0xE8)
		} else {
			e.b(0xE9)
		}
		e.imm(e.rel(inst.Target, 4), 32)
		return nil
	}
	e.b(0xFF)
	if inst.Op == CALL {
		return e.modrm(2, inst.Dst)
	}
	return e.modrm(4, inst.Dst)
}

func (e *encoder) encodeString(inst Inst) error {
	if inst.Rep {
		e.b(0xF3)
	}
	if inst.RepNE {
		e.b(0xF2)
	}
	e.prefix66(inst.W)
	wide := byte(0)
	if inst.W != 8 {
		wide = 1
	}
	switch inst.Op {
	case MOVS:
		e.b(0xA4 + wide)
	case CMPS:
		e.b(0xA6 + wide)
	case STOS:
		e.b(0xAA + wide)
	case LODS:
		e.b(0xAC + wide)
	case SCAS:
		e.b(0xAE + wide)
	}
	return nil
}
