package image

import (
	"fmt"

	"parallax/internal/x86"
)

// RefSlot says which field of an instruction a symbolic reference
// patches.
type RefSlot uint8

// Reference slots.
const (
	RefNone RefSlot = iota
	// RefTarget: the instruction is a relative call/jmp/jcc whose
	// target is the symbol (encoded as rel32).
	RefTarget
	// RefImm: the trailing 32-bit immediate is the absolute address of
	// the symbol (mov reg, $sym; push $sym; ...).
	RefImm
	// RefDisp: the 32-bit displacement of the memory operand is the
	// absolute address of the symbol (mov [sym], reg; ...).
	RefDisp
)

// Ref is a symbolic reference from an instruction to a symbol.
type Ref struct {
	Slot RefSlot
	Sym  string
	Add  int32
}

// Item is one element of a function body: either an instruction
// (optionally carrying a symbolic reference) or raw literal bytes.
// A label, if set, names the item's address with function-local scope.
type Item struct {
	Label string
	Inst  x86.Inst
	Raw   []byte // when non-nil, emitted literally and Inst is ignored
	Ref   Ref
}

// RawItem returns an Item emitting literal bytes.
func RawItem(b ...byte) Item { return Item{Raw: b} }

// InstItem returns an Item for a plain instruction.
func InstItem(inst x86.Inst) Item { return Item{Inst: inst} }

// Func is a relocatable function: a named sequence of items.
type Func struct {
	Name  string
	Align uint32 // start alignment; 0 means the linker default (16)
	Pad   uint32 // extra bytes of padding inserted before the function
	Items []Item
}

// DataSym is a relocatable data object.
type DataSym struct {
	Name     string
	Bytes    []byte // initialized contents; may be shorter than Size
	Size     uint32 // total size; 0 means len(Bytes)
	Align    uint32 // 0 means 4
	ReadOnly bool
	// Words are pointer slots inside the object that the linker fills
	// with symbol addresses.
	Words []WordRef
}

// WordRef is a pointer-sized slot within a data object referencing a
// symbol.
type WordRef struct {
	Off uint32
	Sym string
	Add int32
}

// Object is a relocatable program: the code generator's output and the
// linker's input.
type Object struct {
	Funcs []*Func
	Data  []*DataSym
	Entry string // name of the entry function
}

// Func returns the function with the given name, or nil.
func (o *Object) Func(name string) *Func {
	for _, f := range o.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// DataSym returns the data object with the given name, or nil.
func (o *Object) DataSym(name string) *DataSym {
	for _, d := range o.Data {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// AddFunc appends a function, rejecting duplicate names.
func (o *Object) AddFunc(f *Func) error {
	if o.Func(f.Name) != nil {
		return fmt.Errorf("image: duplicate function %q", f.Name)
	}
	o.Funcs = append(o.Funcs, f)
	return nil
}

// AddData appends a data object, rejecting duplicate names.
func (o *Object) AddData(d *DataSym) error {
	if o.DataSym(d.Name) != nil {
		return fmt.Errorf("image: duplicate data symbol %q", d.Name)
	}
	o.Data = append(o.Data, d)
	return nil
}
