package x86

import (
	"errors"
	"fmt"
)

// Decoding errors. Gadget scanning decodes at arbitrary offsets, so these
// are expected outcomes, not exceptional conditions.
var (
	// ErrTruncated means the byte buffer ended mid-instruction.
	ErrTruncated = errors.New("x86: truncated instruction")
	// ErrTooLong means prefixes pushed the instruction past the 15-byte
	// architectural limit.
	ErrTooLong = errors.New("x86: instruction exceeds 15 bytes")
)

// UnsupportedError reports a byte sequence that is not in the supported
// instruction subset (or not a valid instruction at all).
type UnsupportedError struct {
	Opcode   byte
	TwoByte  bool
	Position uint32
}

func (e *UnsupportedError) Error() string {
	prefix := ""
	if e.TwoByte {
		prefix = "0f "
	}
	return fmt.Sprintf("x86: unsupported opcode %s%02x at 0x%x", prefix, e.Opcode, e.Position)
}

// MaxInstLen is the architectural x86 instruction length limit. A
// decode's outcome, its length or its failure, depends on no byte past
// the first MaxInstLen.
const MaxInstLen = 15

// errUnsupported is the decoder's internal failure for an opcode
// outside the subset. It carries nothing: the decoder records the
// opcode, and only Decode builds the *UnsupportedError.
var errUnsupported = errors.New("x86: unsupported opcode")

type decoder struct {
	b    []byte
	pos  int
	addr uint32

	opsize16 bool
	rep      bool
	repne    bool

	// The opcode of an errUnsupported failure.
	badOp      byte
	badTwoByte bool
}

// Decode decodes a single instruction from the start of b. addr is the
// virtual address of the first byte and is used to resolve relative
// branch targets. The decoded instruction's Len gives the byte length.
func Decode(b []byte, addr uint32) (Inst, error) {
	d := decoder{b: b, addr: addr}
	inst, err := d.run()
	if err == errUnsupported {
		return Inst{}, &UnsupportedError{Opcode: d.badOp, TwoByte: d.badTwoByte, Position: addr}
	}
	return inst, err
}

// TryDecode is Decode for callers that only need to know whether the
// bytes decode, such as the gadget scanner at every byte offset: it
// reports failure without building an error.
func TryDecode(b []byte, addr uint32) (Inst, bool) {
	d := decoder{b: b, addr: addr}
	inst, err := d.run()
	return inst, err == nil
}

// run decodes one instruction and sets its length.
func (d *decoder) run() (Inst, error) {
	inst, err := d.decode()
	if err != nil {
		return Inst{}, err
	}
	inst.Len = d.pos
	return inst, nil
}

func (d *decoder) u8() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, ErrTruncated
	}
	if d.pos >= MaxInstLen {
		return 0, ErrTooLong
	}
	v := d.b[d.pos]
	d.pos++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	lo, err := d.u8()
	if err != nil {
		return 0, err
	}
	hi, err := d.u8()
	if err != nil {
		return 0, err
	}
	return uint16(lo) | uint16(hi)<<8, nil
}

func (d *decoder) u32() (uint32, error) {
	lo, err := d.u16()
	if err != nil {
		return 0, err
	}
	hi, err := d.u16()
	if err != nil {
		return 0, err
	}
	return uint32(lo) | uint32(hi)<<16, nil
}

// imm reads an immediate of the given width in bits, sign-extending to
// int32.
func (d *decoder) imm(width int) (int32, error) {
	switch width {
	case 8:
		v, err := d.u8()
		return int32(int8(v)), err
	case 16:
		v, err := d.u16()
		return int32(int16(v)), err
	default:
		v, err := d.u32()
		return int32(v), err
	}
}

// width returns the current non-byte operand width (16 with an operand
// size prefix, else 32).
func (d *decoder) width() uint8 {
	if d.opsize16 {
		return 16
	}
	return 32
}

func (d *decoder) unsupported(op byte, twoByte bool) error {
	d.badOp, d.badTwoByte = op, twoByte
	return errUnsupported
}

// modrm reads a ModRM byte and returns its fields.
func (d *decoder) modrm() (mod, reg, rm byte, err error) {
	v, err := d.u8()
	if err != nil {
		return 0, 0, 0, err
	}
	return v >> 6, (v >> 3) & 7, v & 7, nil
}

// rmOperand materializes the r/m operand for the given mod and rm fields,
// consuming SIB and displacement bytes as needed.
func (d *decoder) rmOperand(mod, rm byte) (Operand, error) {
	if mod == 3 {
		return RegOp(Reg(rm)), nil
	}
	var op Operand
	op.Kind = KMem
	op.Scale = 1
	if rm == 4 {
		sib, err := d.u8()
		if err != nil {
			return Operand{}, err
		}
		scale := sib >> 6
		index := (sib >> 3) & 7
		base := sib & 7
		if index != 4 { // ESP cannot be an index
			op.HasIndex = true
			op.Index = Reg(index)
			op.Scale = 1 << scale
		}
		if base == 5 && mod == 0 {
			// [index*scale + disp32], no base.
			disp, err := d.u32()
			if err != nil {
				return Operand{}, err
			}
			op.Disp = int32(disp)
			return op, nil
		}
		op.HasBase = true
		op.Base = Reg(base)
	} else if rm == 5 && mod == 0 {
		disp, err := d.u32()
		if err != nil {
			return Operand{}, err
		}
		op.Disp = int32(disp)
		return op, nil
	} else {
		op.HasBase = true
		op.Base = Reg(rm)
	}
	switch mod {
	case 1:
		disp, err := d.imm(8)
		if err != nil {
			return Operand{}, err
		}
		op.Disp = disp
	case 2:
		disp, err := d.imm(32)
		if err != nil {
			return Operand{}, err
		}
		op.Disp = disp
	}
	return op, nil
}

// aluOps maps the /reg group field (and the 0x00-0x3F opcode block index)
// to ALU mnemonics.
var aluOps = [8]Op{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}

// shiftOps maps the shift-group /reg field to mnemonics.
var shiftOps = [8]Op{ROL, ROR, RCL, RCR, SHL, SHR, SHL, SAR}

func (d *decoder) decode() (Inst, error) {
	// Consume prefixes. Segment overrides are accepted and ignored (we
	// model a flat address space).
	for {
		if d.pos >= len(d.b) {
			return Inst{}, ErrTruncated
		}
		switch d.b[d.pos] {
		case 0x66:
			d.opsize16 = true
		case 0xF3:
			d.rep = true
		case 0xF2:
			d.repne = true
		case 0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65:
			// segment override, ignored
		case 0x67:
			// 16-bit addressing is outside the supported subset
			return Inst{}, d.unsupported(0x67, false)
		default:
			goto prefixesDone
		}
		d.pos++
		if d.pos > MaxInstLen {
			return Inst{}, ErrTooLong
		}
	}
prefixesDone:

	b0, err := d.u8()
	if err != nil {
		return Inst{}, err
	}

	if b0 == 0x0F {
		return d.decodeTwoByte()
	}

	// The 0x00-0x3F ALU block: op = b0>>3, form = b0&7 (0..5).
	// Forms 6 and 7 in this range are prefixes or BCD instructions and
	// were handled above or fall through to the main switch.
	if b0 < 0x40 && b0&7 < 6 {
		op := aluOps[b0>>3]
		return d.decodeALUForm(op, b0&7)
	}

	switch {
	case b0 >= 0x40 && b0 <= 0x47:
		return Inst{Op: INC, W: d.width(), Dst: RegOp(Reg(b0 - 0x40))}, nil
	case b0 >= 0x48 && b0 <= 0x4F:
		return Inst{Op: DEC, W: d.width(), Dst: RegOp(Reg(b0 - 0x48))}, nil
	case b0 >= 0x50 && b0 <= 0x57:
		return Inst{Op: PUSH, W: 32, Dst: RegOp(Reg(b0 - 0x50))}, nil
	case b0 >= 0x58 && b0 <= 0x5F:
		return Inst{Op: POP, W: 32, Dst: RegOp(Reg(b0 - 0x58))}, nil
	case b0 >= 0x70 && b0 <= 0x7F:
		rel, err := d.imm(8)
		if err != nil {
			return Inst{}, err
		}
		return d.branch(JCC, Cond(b0-0x70), rel), nil
	case b0 >= 0x91 && b0 <= 0x97:
		return Inst{Op: XCHG, W: d.width(), Dst: RegOp(EAX), Src: RegOp(Reg(b0 - 0x90))}, nil
	case b0 >= 0xB0 && b0 <= 0xB7:
		imm, err := d.imm(8)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOV, W: 8, Dst: RegOp(Reg(b0 - 0xB0)), Src: ImmOp(imm)}, nil
	case b0 >= 0xB8 && b0 <= 0xBF:
		w := d.width()
		imm, err := d.imm(int(w))
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOV, W: w, Dst: RegOp(Reg(b0 - 0xB8)), Src: ImmOp(imm)}, nil
	}

	switch b0 {
	case 0x60:
		return Inst{Op: PUSHAD, W: 32}, nil
	case 0x61:
		return Inst{Op: POPAD, W: 32}, nil
	case 0x68:
		imm, err := d.imm(32)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: PUSH, W: 32, Dst: ImmOp(imm)}, nil
	case 0x6A:
		imm, err := d.imm(8)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: PUSH, W: 32, Dst: ImmOp(imm)}, nil
	case 0x69, 0x6B:
		mod, reg, rm, err := d.modrm()
		if err != nil {
			return Inst{}, err
		}
		src, err := d.rmOperand(mod, rm)
		if err != nil {
			return Inst{}, err
		}
		immW := 8
		if b0 == 0x69 {
			immW = int(d.width())
		}
		imm, err := d.imm(immW)
		if err != nil {
			return Inst{}, err
		}
		return Inst{
			Op: IMUL, W: d.width(),
			Dst: RegOp(Reg(reg)), Src: src, Imm: imm, HasImm: true,
		}, nil
	case 0x80, 0x82:
		return d.decodeALUGroup(8, 8)
	case 0x81:
		w := int(d.width())
		return d.decodeALUGroup(w, w)
	case 0x83:
		return d.decodeALUGroup(int(d.width()), 8)
	case 0x84, 0x85:
		return d.decodeMR(TEST, b0 == 0x85)
	case 0x86, 0x87:
		return d.decodeMR(XCHG, b0 == 0x87)
	case 0x88, 0x89:
		return d.decodeMR(MOV, b0 == 0x89)
	case 0x8A, 0x8B:
		inst, err := d.decodeMR(MOV, b0 == 0x8B)
		if err != nil {
			return Inst{}, err
		}
		inst.Dst, inst.Src = inst.Src, inst.Dst
		return inst, nil
	case 0x8D:
		mod, reg, rm, err := d.modrm()
		if err != nil {
			return Inst{}, err
		}
		if mod == 3 {
			return Inst{}, d.unsupported(b0, false)
		}
		src, err := d.rmOperand(mod, rm)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: LEA, W: 32, Dst: RegOp(Reg(reg)), Src: src}, nil
	case 0x8F:
		mod, reg, rm, err := d.modrm()
		if err != nil {
			return Inst{}, err
		}
		if reg != 0 {
			return Inst{}, d.unsupported(b0, false)
		}
		dst, err := d.rmOperand(mod, rm)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: POP, W: 32, Dst: dst}, nil
	case 0x90:
		if d.rep {
			// F3 90 is PAUSE; decode as NOP.
			return Inst{Op: NOP, W: 32, Rep: false}, nil
		}
		return Inst{Op: NOP, W: 32}, nil
	case 0x98:
		// With an operand-size prefix this is CBW (AX <- sext AL);
		// the width field distinguishes the two forms.
		return Inst{Op: CWDE, W: d.width()}, nil
	case 0x99:
		// With an operand-size prefix this is CWD (DX:AX <- sext AX).
		return Inst{Op: CDQ, W: d.width()}, nil
	case 0x9C:
		return Inst{Op: PUSHFD, W: 32}, nil
	case 0x9D:
		return Inst{Op: POPFD, W: 32}, nil
	case 0x9E:
		return Inst{Op: SAHF, W: 8}, nil
	case 0x9F:
		return Inst{Op: LAHF, W: 8}, nil
	case 0xA0, 0xA1, 0xA2, 0xA3:
		addr, err := d.u32()
		if err != nil {
			return Inst{}, err
		}
		w := d.width()
		if b0 == 0xA0 || b0 == 0xA2 {
			w = 8
		}
		mem := MemAbs(addr)
		if b0 <= 0xA1 {
			return Inst{Op: MOV, W: w, Dst: RegOp(EAX), Src: mem}, nil
		}
		return Inst{Op: MOV, W: w, Dst: mem, Src: RegOp(EAX)}, nil
	case 0xA4, 0xA5:
		return d.stringOp(MOVS, b0 == 0xA5), nil
	case 0xA6, 0xA7:
		return d.stringOp(CMPS, b0 == 0xA7), nil
	case 0xA8, 0xA9:
		w := 8
		if b0 == 0xA9 {
			w = int(d.width())
		}
		imm, err := d.imm(w)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: TEST, W: uint8(w), Dst: RegOp(EAX), Src: ImmOp(imm)}, nil
	case 0xAA, 0xAB:
		return d.stringOp(STOS, b0 == 0xAB), nil
	case 0xAC, 0xAD:
		return d.stringOp(LODS, b0 == 0xAD), nil
	case 0xAE, 0xAF:
		return d.stringOp(SCAS, b0 == 0xAF), nil
	case 0xC0, 0xC1:
		w := 8
		if b0 == 0xC1 {
			w = int(d.width())
		}
		return d.decodeShiftGroup(w, shiftSrcImm8)
	case 0xC2:
		imm, err := d.u16()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: RET, W: 32, Imm: int32(imm)}, nil
	case 0xC3:
		return Inst{Op: RET, W: 32}, nil
	case 0xC6, 0xC7:
		w := 8
		if b0 == 0xC7 {
			w = int(d.width())
		}
		mod, reg, rm, err := d.modrm()
		if err != nil {
			return Inst{}, err
		}
		if reg != 0 {
			return Inst{}, d.unsupported(b0, false)
		}
		dst, err := d.rmOperand(mod, rm)
		if err != nil {
			return Inst{}, err
		}
		imm, err := d.imm(w)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOV, W: uint8(w), Dst: dst, Src: ImmOp(imm)}, nil
	case 0xC9:
		return Inst{Op: LEAVE, W: 32}, nil
	case 0xCA:
		imm, err := d.u16()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: RETF, W: 32, Imm: int32(imm)}, nil
	case 0xCB:
		return Inst{Op: RETF, W: 32}, nil
	case 0xCC:
		return Inst{Op: INT3, W: 32}, nil
	case 0xCD:
		v, err := d.u8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: INT, W: 32, Imm: int32(v)}, nil
	case 0xD0, 0xD1:
		w := 8
		if b0 == 0xD1 {
			w = int(d.width())
		}
		return d.decodeShiftGroup(w, shiftSrcOne)
	case 0xD2, 0xD3:
		w := 8
		if b0 == 0xD3 {
			w = int(d.width())
		}
		return d.decodeShiftGroup(w, shiftSrcCL)
	case 0xE8:
		rel, err := d.imm(32)
		if err != nil {
			return Inst{}, err
		}
		return d.branch(CALL, 0, rel), nil
	case 0xE9:
		rel, err := d.imm(32)
		if err != nil {
			return Inst{}, err
		}
		return d.branch(JMP, 0, rel), nil
	case 0xEB:
		rel, err := d.imm(8)
		if err != nil {
			return Inst{}, err
		}
		return d.branch(JMP, 0, rel), nil
	case 0xF4:
		return Inst{Op: HLT, W: 32}, nil
	case 0xF5:
		return Inst{Op: CMC, W: 32}, nil
	case 0xF6, 0xF7:
		w := 8
		if b0 == 0xF7 {
			w = int(d.width())
		}
		return d.decodeGroup3(w)
	case 0xF8:
		return Inst{Op: CLC, W: 32}, nil
	case 0xF9:
		return Inst{Op: STC, W: 32}, nil
	case 0xFC:
		return Inst{Op: CLD, W: 32}, nil
	case 0xFD:
		return Inst{Op: STD, W: 32}, nil
	case 0xFE:
		mod, reg, rm, err := d.modrm()
		if err != nil {
			return Inst{}, err
		}
		dst, err := d.rmOperand(mod, rm)
		if err != nil {
			return Inst{}, err
		}
		switch reg {
		case 0:
			return Inst{Op: INC, W: 8, Dst: dst}, nil
		case 1:
			return Inst{Op: DEC, W: 8, Dst: dst}, nil
		}
		return Inst{}, d.unsupported(b0, false)
	case 0xFF:
		mod, reg, rm, err := d.modrm()
		if err != nil {
			return Inst{}, err
		}
		dst, err := d.rmOperand(mod, rm)
		if err != nil {
			return Inst{}, err
		}
		switch reg {
		case 0:
			return Inst{Op: INC, W: d.width(), Dst: dst}, nil
		case 1:
			return Inst{Op: DEC, W: d.width(), Dst: dst}, nil
		case 2:
			return Inst{Op: CALL, W: 32, Dst: dst}, nil
		case 4:
			return Inst{Op: JMP, W: 32, Dst: dst}, nil
		case 6:
			return Inst{Op: PUSH, W: 32, Dst: dst}, nil
		}
		return Inst{}, d.unsupported(b0, false)
	}
	return Inst{}, d.unsupported(b0, false)
}

func (d *decoder) decodeTwoByte() (Inst, error) {
	b1, err := d.u8()
	if err != nil {
		return Inst{}, err
	}
	switch {
	case b1 >= 0x80 && b1 <= 0x8F:
		rel, err := d.imm(32)
		if err != nil {
			return Inst{}, err
		}
		return d.branch(JCC, Cond(b1-0x80), rel), nil
	case b1 >= 0x90 && b1 <= 0x9F:
		mod, _, rm, err := d.modrm()
		if err != nil {
			return Inst{}, err
		}
		dst, err := d.rmOperand(mod, rm)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: SETCC, W: 8, Cond: Cond(b1 - 0x90), Dst: dst}, nil
	}
	switch b1 {
	case 0x1F:
		// Multi-byte NOP: 0F 1F /0 with any r/m form.
		mod, _, rm, err := d.modrm()
		if err != nil {
			return Inst{}, err
		}
		if _, err := d.rmOperand(mod, rm); err != nil {
			return Inst{}, err
		}
		return Inst{Op: NOP, W: 32}, nil
	case 0xAF:
		mod, reg, rm, err := d.modrm()
		if err != nil {
			return Inst{}, err
		}
		src, err := d.rmOperand(mod, rm)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: IMUL, W: d.width(), Dst: RegOp(Reg(reg)), Src: src}, nil
	case 0xB6, 0xB7, 0xBE, 0xBF:
		mod, reg, rm, err := d.modrm()
		if err != nil {
			return Inst{}, err
		}
		src, err := d.rmOperand(mod, rm)
		if err != nil {
			return Inst{}, err
		}
		op := MOVZX
		if b1 >= 0xBE {
			op = MOVSX
		}
		w := uint8(8)
		if b1 == 0xB7 || b1 == 0xBF {
			w = 16
		}
		return Inst{Op: op, W: w, Dst: RegOp(Reg(reg)), Src: src}, nil
	}
	return Inst{}, d.unsupported(b1, true)
}

// decodeALUForm decodes one of the six regular ALU opcode forms.
func (d *decoder) decodeALUForm(op Op, form byte) (Inst, error) {
	switch form {
	case 0, 1: // r/m, r
		return d.decodeMR(op, form == 1)
	case 2, 3: // r, r/m
		inst, err := d.decodeMR(op, form == 3)
		if err != nil {
			return Inst{}, err
		}
		inst.Dst, inst.Src = inst.Src, inst.Dst
		return inst, nil
	case 4: // al, imm8
		imm, err := d.imm(8)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, W: 8, Dst: RegOp(EAX), Src: ImmOp(imm)}, nil
	default: // 5: eax, imm32
		w := int(d.width())
		imm, err := d.imm(w)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, W: uint8(w), Dst: RegOp(EAX), Src: ImmOp(imm)}, nil
	}
}

// decodeMR decodes a ModRM-based two-operand form with the r/m as
// destination and the /reg register as source.
func (d *decoder) decodeMR(op Op, wide bool) (Inst, error) {
	w := uint8(8)
	if wide {
		w = d.width()
	}
	mod, reg, rm, err := d.modrm()
	if err != nil {
		return Inst{}, err
	}
	dst, err := d.rmOperand(mod, rm)
	if err != nil {
		return Inst{}, err
	}
	return Inst{Op: op, W: w, Dst: dst, Src: RegOp(Reg(reg))}, nil
}

// decodeALUGroup decodes the 0x80/0x81/0x83 immediate-operand group.
// opW is the operand width, immW the encoded immediate width.
func (d *decoder) decodeALUGroup(opW, immW int) (Inst, error) {
	mod, reg, rm, err := d.modrm()
	if err != nil {
		return Inst{}, err
	}
	dst, err := d.rmOperand(mod, rm)
	if err != nil {
		return Inst{}, err
	}
	imm, err := d.imm(immW)
	if err != nil {
		return Inst{}, err
	}
	return Inst{Op: aluOps[reg], W: uint8(opW), Dst: dst, Src: ImmOp(imm)}, nil
}

type shiftSrc int

const (
	shiftSrcImm8 shiftSrc = iota
	shiftSrcOne
	shiftSrcCL
)

func (d *decoder) decodeShiftGroup(w int, src shiftSrc) (Inst, error) {
	mod, reg, rm, err := d.modrm()
	if err != nil {
		return Inst{}, err
	}
	dst, err := d.rmOperand(mod, rm)
	if err != nil {
		return Inst{}, err
	}
	inst := Inst{Op: shiftOps[reg], W: uint8(w), Dst: dst}
	switch src {
	case shiftSrcImm8:
		imm, err := d.imm(8)
		if err != nil {
			return Inst{}, err
		}
		inst.Src = ImmOp(imm)
	case shiftSrcOne:
		inst.Src = ImmOp(1)
	case shiftSrcCL:
		inst.Src = RegOp(ECX)
	}
	return inst, nil
}

// decodeGroup3 decodes the 0xF6/0xF7 unary group.
func (d *decoder) decodeGroup3(w int) (Inst, error) {
	mod, reg, rm, err := d.modrm()
	if err != nil {
		return Inst{}, err
	}
	dst, err := d.rmOperand(mod, rm)
	if err != nil {
		return Inst{}, err
	}
	switch reg {
	case 0, 1: // TEST r/m, imm
		imm, err := d.imm(w)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: TEST, W: uint8(w), Dst: dst, Src: ImmOp(imm)}, nil
	case 2:
		return Inst{Op: NOT, W: uint8(w), Dst: dst}, nil
	case 3:
		return Inst{Op: NEG, W: uint8(w), Dst: dst}, nil
	case 4:
		return Inst{Op: MUL, W: uint8(w), Dst: dst}, nil
	case 5:
		return Inst{Op: IMUL, W: uint8(w), Dst: dst}, nil
	case 6:
		return Inst{Op: DIV, W: uint8(w), Dst: dst}, nil
	default:
		return Inst{Op: IDIV, W: uint8(w), Dst: dst}, nil
	}
}

func (d *decoder) stringOp(op Op, wide bool) Inst {
	w := uint8(8)
	if wide {
		w = d.width()
	}
	return Inst{Op: op, W: w, Rep: d.rep, RepNE: d.repne}
}

// branch builds a relative control transfer. The target is resolved
// against the end of the instruction, which is the current decode
// position.
func (d *decoder) branch(op Op, cond Cond, rel int32) Inst {
	return Inst{
		Op: op, W: 32, Cond: cond, Rel: true,
		Target: d.addr + uint32(d.pos) + uint32(rel),
	}
}
