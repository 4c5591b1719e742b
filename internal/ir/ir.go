// Package ir defines the small typed intermediate representation that
// every program in this repository is written in.
//
// One IR, two backends: internal/codegen compiles IR to x86 machine
// code (producing the binaries Parallax protects), and internal/ropc
// compiles IR functions to ROP chains (producing the paper's
// "verification code"). Because both backends consume the same IR, a
// function translated to a chain is by construction a faithful
// re-implementation of original program code — exactly the paper's §V
// translation step — and the IR interpreter in this package provides
// reference semantics for differential testing.
//
// The machine model is 32-bit: all values are uint32 words; signedness
// is a property of the operation, not the value.
package ir

import "fmt"

// BinKind enumerates two-operand arithmetic operations.
type BinKind uint8

// Binary operations.
const (
	Add BinKind = iota
	Sub
	Mul
	And
	Or
	Xor
	Shl
	Shr  // logical shift right
	Sar  // arithmetic shift right
	UDiv // unsigned division; divide-by-zero traps
	URem
	SDiv // signed division
	SRem
)

var binNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", Shr: "shr", Sar: "sar", UDiv: "udiv", URem: "urem",
	SDiv: "sdiv", SRem: "srem",
}

func (k BinKind) String() string {
	if int(k) < len(binNames) {
		return binNames[k]
	}
	return fmt.Sprintf("bin(%d)", uint8(k))
}

// Pred enumerates comparison predicates.
type Pred uint8

// Comparison predicates. Signedness matters: Lt/Le/Gt/Ge are signed,
// the U-prefixed forms unsigned.
const (
	Eq Pred = iota
	Ne
	Lt
	Le
	Gt
	Ge
	ULt
	ULe
	UGt
	UGe
)

var predNames = [...]string{
	Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
	ULt: "ult", ULe: "ule", UGt: "ugt", UGe: "uge",
}

func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("pred(%d)", uint8(p))
}

// Value is a virtual register index within a function.
type Value int

func (v Value) String() string { return fmt.Sprintf("v%d", int(v)) }

// InstKind discriminates Inst.
type InstKind uint8

// Instruction kinds.
const (
	// OpConst: Dst = Imm.
	OpConst InstKind = iota
	// OpBin: Dst = A <Bin> B.
	OpBin
	// OpNot: Dst = ^A.
	OpNot
	// OpNeg: Dst = -A.
	OpNeg
	// OpCmp: Dst = (A <Pred> B) ? 1 : 0.
	OpCmp
	// OpLoad: Dst = mem32[A].
	OpLoad
	// OpLoad8: Dst = zext(mem8[A]).
	OpLoad8
	// OpStore: mem32[A] = B.
	OpStore
	// OpStore8: mem8[A] = low8(B).
	OpStore8
	// OpAddr: Dst = &Global + Imm.
	OpAddr
	// OpCall: Dst = Callee(Args...).
	OpCall
	// OpSyscall: Dst = syscall(Imm; Args...) with the Linux i386 ABI.
	OpSyscall
	// OpCopy: Dst = A.
	OpCopy
)

// Inst is one non-terminator IR instruction.
type Inst struct {
	Kind   InstKind
	Dst    Value
	A, B   Value
	Imm    int32
	Bin    BinKind
	Pred   Pred
	Global string  // OpAddr
	Callee string  // OpCall
	Args   []Value // OpCall, OpSyscall
}

func (i Inst) String() string {
	switch i.Kind {
	case OpConst:
		return fmt.Sprintf("%v = const %d", i.Dst, i.Imm)
	case OpBin:
		return fmt.Sprintf("%v = %v %v, %v", i.Dst, i.Bin, i.A, i.B)
	case OpNot:
		return fmt.Sprintf("%v = not %v", i.Dst, i.A)
	case OpNeg:
		return fmt.Sprintf("%v = neg %v", i.Dst, i.A)
	case OpCmp:
		return fmt.Sprintf("%v = cmp %v %v, %v", i.Dst, i.Pred, i.A, i.B)
	case OpLoad:
		return fmt.Sprintf("%v = load [%v]", i.Dst, i.A)
	case OpLoad8:
		return fmt.Sprintf("%v = load8 [%v]", i.Dst, i.A)
	case OpStore:
		return fmt.Sprintf("store [%v], %v", i.A, i.B)
	case OpStore8:
		return fmt.Sprintf("store8 [%v], %v", i.A, i.B)
	case OpAddr:
		return fmt.Sprintf("%v = addr %s+%d", i.Dst, i.Global, i.Imm)
	case OpCall:
		return fmt.Sprintf("%v = call %s%v", i.Dst, i.Callee, i.Args)
	case OpSyscall:
		return fmt.Sprintf("%v = syscall %d%v", i.Dst, i.Imm, i.Args)
	case OpCopy:
		return fmt.Sprintf("%v = %v", i.Dst, i.A)
	default:
		return fmt.Sprintf("inst(%d)", i.Kind)
	}
}

// TermKind discriminates block terminators.
type TermKind uint8

// Terminator kinds.
const (
	// TermRet returns Val (or 0 when HasVal is false).
	TermRet TermKind = iota
	// TermJmp jumps unconditionally to Then.
	TermJmp
	// TermBr branches to Then when Val != 0, else to Else.
	TermBr
)

// Term is a basic-block terminator.
type Term struct {
	Kind   TermKind
	Val    Value
	HasVal bool
	Then   string
	Else   string
}

func (t Term) String() string {
	switch t.Kind {
	case TermRet:
		if t.HasVal {
			return fmt.Sprintf("ret %v", t.Val)
		}
		return "ret"
	case TermJmp:
		return fmt.Sprintf("jmp %s", t.Then)
	case TermBr:
		return fmt.Sprintf("br %v, %s, %s", t.Val, t.Then, t.Else)
	default:
		return fmt.Sprintf("term(%d)", t.Kind)
	}
}

// Block is a basic block: straight-line instructions plus one
// terminator.
type Block struct {
	Name  string
	Insts []Inst
	Term  Term
}

// Func is an IR function. Parameters arrive in virtual registers
// v0..v(NumParams-1); NumVals is the total virtual register count.
type Func struct {
	Name      string
	NumParams int
	NumVals   int
	Blocks    []*Block
}

// Block returns the named block, or nil.
func (f *Func) Block(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Entry returns the first block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// OpKinds returns the set of distinct operation kinds used by the
// function, with OpBin refined by BinKind and OpCmp by Pred. The §VII-B
// selection algorithm uses this as its "types of operations" diversity
// metric.
func (f *Func) OpKinds() map[string]bool {
	kinds := make(map[string]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			switch in.Kind {
			case OpBin:
				kinds["bin."+in.Bin.String()] = true
			case OpCmp:
				kinds["cmp."+in.Pred.String()] = true
			default:
				kinds[fmt.Sprintf("op.%d", in.Kind)] = true
			}
		}
		kinds[fmt.Sprintf("term.%d", b.Term.Kind)] = true
	}
	return kinds
}

// Global is a module-level data object.
type Global struct {
	Name     string
	Init     []byte // initial bytes; may be shorter than Size
	Size     uint32 // 0 means len(Init)
	ReadOnly bool
}

// ByteSize returns the effective size of the global.
func (g *Global) ByteSize() uint32 {
	if g.Size != 0 {
		return g.Size
	}
	return uint32(len(g.Init))
}

// Module is a complete IR program.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Global
	Entry   string // entry function name; empty means first function
	// Externs declares symbols that OpAddr may reference but that are
	// defined outside the module — e.g. linker-created chain buffers
	// referenced by dynamic-generation decoders. The interpreter
	// cannot resolve them; only compiled code can.
	Externs []string
}

// HasExtern reports whether name is a declared extern symbol.
func (m *Module) HasExtern(name string) bool {
	for _, e := range m.Externs {
		if e == name {
			return true
		}
	}
	return false
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// EntryFunc returns the entry function.
func (m *Module) EntryFunc() *Func {
	if m.Entry != "" {
		return m.Func(m.Entry)
	}
	if len(m.Funcs) == 0 {
		return nil
	}
	return m.Funcs[0]
}

// Clone returns a deep copy of the module; transformation passes
// (e.g. dynamic-generation decoder injection) mutate clones, keeping
// the caller's module intact.
func (m *Module) Clone() *Module {
	out := &Module{Name: m.Name, Entry: m.Entry}
	out.Externs = append([]string(nil), m.Externs...)
	out.Funcs = make([]*Func, len(m.Funcs))
	for i, f := range m.Funcs {
		nf := &Func{Name: f.Name, NumParams: f.NumParams, NumVals: f.NumVals}
		nf.Blocks = make([]*Block, len(f.Blocks))
		for j, b := range f.Blocks {
			nb := &Block{Name: b.Name, Term: b.Term}
			nb.Insts = make([]Inst, len(b.Insts))
			for k, in := range b.Insts {
				ni := in
				ni.Args = append([]Value(nil), in.Args...)
				nb.Insts[k] = ni
			}
			nf.Blocks[j] = nb
		}
		out.Funcs[i] = nf
	}
	out.Globals = make([]*Global, len(m.Globals))
	for i, g := range m.Globals {
		ng := *g
		ng.Init = append([]byte(nil), g.Init...)
		out.Globals[i] = &ng
	}
	return out
}
