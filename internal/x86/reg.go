// Package x86 implements a 32-bit x86 instruction decoder, encoder and
// assembler covering the subset of the ISA generated by this repository's
// code generator and encountered by the gadget scanner.
//
// The decoder is deliberately tolerant: gadget scanning decodes at every
// byte offset of a text section, so arbitrary byte soup must either decode
// into a well-defined instruction or fail with a clean error, never panic.
package x86

import "fmt"

// Reg identifies a 32-bit general-purpose register. The numeric values
// match the x86 ModRM register encoding.
type Reg uint8

// General-purpose 32-bit registers in ModRM encoding order.
const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
)

// NumRegs is the number of general-purpose registers.
const NumRegs = 8

// 8-bit register names in ModRM encoding order. These alias the
// 32-bit constants: an 8-bit operand with Reg value 0..3 is the low
// byte of EAX..EBX, and 4..7 is the second byte (AH, CH, DH, BH).
const (
	AL Reg = iota
	CL
	DL
	BL
	AH
	CH
	DH
	BH
)

var regNames = [NumRegs]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}
var reg16Names = [NumRegs]string{"ax", "cx", "dx", "bx", "sp", "bp", "si", "di"}
var reg8Names = [NumRegs]string{"al", "cl", "dl", "bl", "ah", "ch", "dh", "bh"}

// String returns the 32-bit name of r (e.g. "eax").
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// Name returns the register name at the given operand width in bits
// (8, 16 or 32).
func (r Reg) Name(width int) string {
	if int(r) >= NumRegs {
		return fmt.Sprintf("reg(%d)", uint8(r))
	}
	switch width {
	case 8:
		return reg8Names[r]
	case 16:
		return reg16Names[r]
	default:
		return regNames[r]
	}
}

// Cond is an x86 condition code, in the encoding used by Jcc/SETcc
// opcodes (the low nibble of the opcode byte).
type Cond uint8

// Condition codes in x86 opcode encoding order.
const (
	CondO  Cond = iota // overflow
	CondNO             // not overflow
	CondB              // below (unsigned <), aka C
	CondAE             // above or equal (unsigned >=), aka NC
	CondE              // equal, aka Z
	CondNE             // not equal, aka NZ
	CondBE             // below or equal (unsigned <=)
	CondA              // above (unsigned >)
	CondS              // sign
	CondNS             // not sign
	CondP              // parity
	CondNP             // not parity
	CondL              // less (signed <)
	CondGE             // greater or equal (signed >=)
	CondLE             // less or equal (signed <=)
	CondG              // greater (signed >)
)

var condNames = [16]string{
	"o", "no", "b", "ae", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

// String returns the condition suffix (e.g. "ne" for CondNE).
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}
