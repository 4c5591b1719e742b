package x86

import "fmt"

// Builder assembles a sequence of instructions at a fixed base address,
// with forward-referencing labels. The zero value is not usable; create
// one with NewBuilder.
//
// Errors are sticky: the first failure is remembered and reported by
// Finish, so call sites can chain emission without per-call checks.
type Builder struct {
	base   uint32
	out    []byte
	labels map[string]uint32
	fixups []fixup
	err    error
}

type fixupKind uint8

const (
	fixRel32 fixupKind = iota // patch rel32 at pos, relative to pos+4
	fixAbs32                  // patch absolute address at pos
)

type fixup struct {
	pos   int // offset into out of the 4-byte patch site
	label string
	kind  fixupKind
	add   int32 // addend applied to the label address
}

// NewBuilder returns a Builder assembling at the given base virtual
// address.
func NewBuilder(base uint32) *Builder {
	return &Builder{base: base, labels: make(map[string]uint32)}
}

// Here returns the virtual address of the next emitted byte.
func (b *Builder) Here() uint32 { return b.base + uint32(len(b.out)) }

// Len returns the number of bytes emitted so far.
func (b *Builder) Len() int { return len(b.out) }

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Label defines a label at the current position. Redefinition is an
// error.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail(fmt.Errorf("x86: label %q redefined", name))
		return
	}
	b.labels[name] = b.Here()
}

// LabelAddr returns the address of a defined label.
func (b *Builder) LabelAddr(name string) (uint32, bool) {
	a, ok := b.labels[name]
	return a, ok
}

// Raw emits literal bytes.
func (b *Builder) Raw(bytes ...byte) {
	b.out = append(b.out, bytes...)
}

// I encodes and emits one instruction. Relative branches must carry an
// absolute Target; for label targets use JmpL/JccL/CallL instead.
func (b *Builder) I(inst Inst) {
	enc, err := Encode(inst, b.Here())
	if err != nil {
		b.fail(fmt.Errorf("x86: encoding %v: %w", inst, err))
		return
	}
	b.out = append(b.out, enc...)
}

// JmpL emits a jmp rel32 to a label.
func (b *Builder) JmpL(label string) {
	b.Raw(0xE9)
	b.emitFixup32(label, fixRel32, 0)
}

// JccL emits a conditional jump (rel32 form) to a label.
func (b *Builder) JccL(cond Cond, label string) {
	b.Raw(0x0F, 0x80+byte(cond))
	b.emitFixup32(label, fixRel32, 0)
}

// CallL emits a call rel32 to a label.
func (b *Builder) CallL(label string) {
	b.Raw(0xE8)
	b.emitFixup32(label, fixRel32, 0)
}

// PushLabel emits push imm32 where the immediate is the address of the
// label (plus addend).
func (b *Builder) PushLabel(label string, add int32) {
	b.Raw(0x68)
	b.emitFixup32(label, fixAbs32, add)
}

// MovRegLabel emits mov r32, imm32 with the label address (plus addend)
// as the immediate.
func (b *Builder) MovRegLabel(r Reg, label string, add int32) {
	b.Raw(0xB8 + byte(r))
	b.emitFixup32(label, fixAbs32, add)
}

func (b *Builder) emitFixup32(label string, kind fixupKind, add int32) {
	b.fixups = append(b.fixups, fixup{pos: len(b.out), label: label, kind: kind, add: add})
	b.Raw(0, 0, 0, 0)
}

// Align pads with the fill byte until the current address is a multiple
// of n (which must be a power of two).
func (b *Builder) Align(n uint32, fill byte) {
	if n == 0 || n&(n-1) != 0 {
		b.fail(fmt.Errorf("x86: alignment %d is not a power of two", n))
		return
	}
	for b.Here()%n != 0 {
		b.Raw(fill)
	}
}

// Finish resolves all fixups and returns the assembled bytes.
func (b *Builder) Finish() ([]byte, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("x86: undefined label %q", f.label)
		}
		var v uint32
		switch f.kind {
		case fixRel32:
			siteEnd := b.base + uint32(f.pos) + 4
			v = target + uint32(f.add) - siteEnd
		case fixAbs32:
			v = target + uint32(f.add)
		}
		putU32(b.out[f.pos:], v)
	}
	return b.out, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// Disassemble performs a linear-sweep disassembly of code at the given
// base address. Undecodable bytes are represented as one-byte BAD
// instructions so the sweep always makes progress.
func Disassemble(code []byte, base uint32) []Inst {
	insts := make([]Inst, 0, len(code)/3)
	off := 0
	for off < len(code) {
		inst, err := Decode(code[off:], base+uint32(off))
		if err != nil {
			inst = Inst{Op: BAD, Len: 1}
		}
		insts = append(insts, inst)
		off += inst.Len
	}
	return insts
}
