package ir

import "fmt"

// ModuleBuilder assembles a Module.
type ModuleBuilder struct {
	m *Module
}

// NewModule returns a builder for a module with the given name.
func NewModule(name string) *ModuleBuilder {
	return &ModuleBuilder{m: &Module{Name: name}}
}

// Global adds an initialized global and returns its name for use with
// Addr.
func (mb *ModuleBuilder) Global(name string, init []byte) string {
	mb.m.Globals = append(mb.m.Globals, &Global{Name: name, Init: init})
	return name
}

// GlobalZero adds a zero-initialized global of the given size.
func (mb *ModuleBuilder) GlobalZero(name string, size uint32) string {
	mb.m.Globals = append(mb.m.Globals, &Global{Name: name, Size: size})
	return name
}

// GlobalRO adds a read-only global.
func (mb *ModuleBuilder) GlobalRO(name string, init []byte) string {
	mb.m.Globals = append(mb.m.Globals, &Global{Name: name, Init: init, ReadOnly: true})
	return name
}

// Func starts a function with the given parameter count; the returned
// FuncBuilder's entry block is current.
func (mb *ModuleBuilder) Func(name string, numParams int) *FuncBuilder {
	f := &Func{Name: name, NumParams: numParams, NumVals: numParams}
	mb.m.Funcs = append(mb.m.Funcs, f)
	fb := &FuncBuilder{f: f}
	fb.Block("entry")
	return fb
}

// SetEntry marks the module entry function.
func (mb *ModuleBuilder) SetEntry(name string) { mb.m.Entry = name }

// Build validates and returns the module.
func (mb *ModuleBuilder) Build() (*Module, error) {
	if err := Validate(mb.m); err != nil {
		return nil, err
	}
	return mb.m, nil
}

// MustBuild is Build for statically known-valid modules.
func (mb *ModuleBuilder) MustBuild() *Module {
	m, err := mb.Build()
	if err != nil {
		panic(fmt.Sprintf("ir: MustBuild: %v", err))
	}
	return m
}

// FuncBuilder assembles one function block by block. All emission
// methods append to the current block.
type FuncBuilder struct {
	f   *Func
	cur *Block
}

// NewFunc returns a builder for a standalone function that is not (yet)
// attached to a module; append the built Fn to Module.Funcs manually.
func NewFunc(name string, numParams int) *FuncBuilder {
	f := &Func{Name: name, NumParams: numParams, NumVals: numParams}
	fb := &FuncBuilder{f: f}
	fb.Block("entry")
	return fb
}

// Fn returns the function under construction.
func (fb *FuncBuilder) Fn() *Func { return fb.f }

// Param returns the value holding the i-th parameter.
func (fb *FuncBuilder) Param(i int) Value {
	if i < 0 || i >= fb.f.NumParams {
		panic(fmt.Sprintf("ir: param %d out of range (%d params)", i, fb.f.NumParams))
	}
	return Value(i)
}

// Block creates (or switches to) a block with the given name and makes
// it current. Creating a block does not add a terminator; every block
// must be terminated before Build.
func (fb *FuncBuilder) Block(name string) *FuncBuilder {
	if b := fb.f.Block(name); b != nil {
		fb.cur = b
		return fb
	}
	b := &Block{Name: name, Term: Term{Kind: TermRet}}
	fb.f.Blocks = append(fb.f.Blocks, b)
	fb.cur = b
	return fb
}

func (fb *FuncBuilder) newVal() Value {
	v := Value(fb.f.NumVals)
	fb.f.NumVals++
	return v
}

func (fb *FuncBuilder) emit(in Inst) Value {
	fb.cur.Insts = append(fb.cur.Insts, in)
	return in.Dst
}

// Const emits a constant.
func (fb *FuncBuilder) Const(v int32) Value {
	return fb.emit(Inst{Kind: OpConst, Dst: fb.newVal(), Imm: v})
}

// Bin emits a binary operation.
func (fb *FuncBuilder) Bin(k BinKind, a, b Value) Value {
	return fb.emit(Inst{Kind: OpBin, Dst: fb.newVal(), Bin: k, A: a, B: b})
}

// Convenience arithmetic wrappers.

// Add emits a + b.
func (fb *FuncBuilder) Add(a, b Value) Value { return fb.Bin(Add, a, b) }

// Sub emits a - b.
func (fb *FuncBuilder) Sub(a, b Value) Value { return fb.Bin(Sub, a, b) }

// Mul emits a * b.
func (fb *FuncBuilder) Mul(a, b Value) Value { return fb.Bin(Mul, a, b) }

// And emits a & b.
func (fb *FuncBuilder) And(a, b Value) Value { return fb.Bin(And, a, b) }

// Or emits a | b.
func (fb *FuncBuilder) Or(a, b Value) Value { return fb.Bin(Or, a, b) }

// Xor emits a ^ b.
func (fb *FuncBuilder) Xor(a, b Value) Value { return fb.Bin(Xor, a, b) }

// Shl emits a << b.
func (fb *FuncBuilder) Shl(a, b Value) Value { return fb.Bin(Shl, a, b) }

// Shr emits a >> b (logical).
func (fb *FuncBuilder) Shr(a, b Value) Value { return fb.Bin(Shr, a, b) }

// Not emits ^a.
func (fb *FuncBuilder) Not(a Value) Value {
	return fb.emit(Inst{Kind: OpNot, Dst: fb.newVal(), A: a})
}

// Neg emits -a.
func (fb *FuncBuilder) Neg(a Value) Value {
	return fb.emit(Inst{Kind: OpNeg, Dst: fb.newVal(), A: a})
}

// Cmp emits (a pred b) as 0/1.
func (fb *FuncBuilder) Cmp(p Pred, a, b Value) Value {
	return fb.emit(Inst{Kind: OpCmp, Dst: fb.newVal(), Pred: p, A: a, B: b})
}

// Load emits a 32-bit load from the address in a.
func (fb *FuncBuilder) Load(a Value) Value {
	return fb.emit(Inst{Kind: OpLoad, Dst: fb.newVal(), A: a})
}

// Load8 emits a zero-extended byte load.
func (fb *FuncBuilder) Load8(a Value) Value {
	return fb.emit(Inst{Kind: OpLoad8, Dst: fb.newVal(), A: a})
}

// Store emits a 32-bit store of val to the address in addr.
func (fb *FuncBuilder) Store(addr, val Value) {
	fb.emit(Inst{Kind: OpStore, A: addr, B: val})
}

// Store8 emits a byte store.
func (fb *FuncBuilder) Store8(addr, val Value) {
	fb.emit(Inst{Kind: OpStore8, A: addr, B: val})
}

// Addr emits the address of a global plus offset.
func (fb *FuncBuilder) Addr(global string, off int32) Value {
	return fb.emit(Inst{Kind: OpAddr, Dst: fb.newVal(), Global: global, Imm: off})
}

// Call emits a call; the result value holds the callee's return value.
func (fb *FuncBuilder) Call(callee string, args ...Value) Value {
	return fb.emit(Inst{
		Kind: OpCall, Dst: fb.newVal(), Callee: callee,
		Args: append([]Value(nil), args...),
	})
}

// Syscall emits a Linux i386 syscall with up to five arguments.
func (fb *FuncBuilder) Syscall(num int32, args ...Value) Value {
	if len(args) > 5 {
		panic("ir: syscall takes at most 5 arguments")
	}
	return fb.emit(Inst{
		Kind: OpSyscall, Dst: fb.newVal(), Imm: num,
		Args: append([]Value(nil), args...),
	})
}

// Copy emits dst = a into a fresh value.
func (fb *FuncBuilder) Copy(a Value) Value {
	return fb.emit(Inst{Kind: OpCopy, Dst: fb.newVal(), A: a})
}

// Assign emits dst = a into an existing value (the IR is not SSA;
// loop-carried variables are re-assigned).
func (fb *FuncBuilder) Assign(dst, a Value) {
	fb.emit(Inst{Kind: OpCopy, Dst: dst, A: a})
}

// AssignConst emits dst = imm into an existing value.
func (fb *FuncBuilder) AssignConst(dst Value, imm int32) {
	fb.emit(Inst{Kind: OpConst, Dst: dst, Imm: imm})
}

// Ret terminates the current block returning val.
func (fb *FuncBuilder) Ret(val Value) {
	fb.cur.Term = Term{Kind: TermRet, Val: val, HasVal: true}
}

// RetVoid terminates the current block returning 0.
func (fb *FuncBuilder) RetVoid() {
	fb.cur.Term = Term{Kind: TermRet}
}

// Jmp terminates the current block with an unconditional jump.
func (fb *FuncBuilder) Jmp(block string) {
	fb.cur.Term = Term{Kind: TermJmp, Then: block}
}

// Br terminates the current block branching on cond.
func (fb *FuncBuilder) Br(cond Value, then, els string) {
	fb.cur.Term = Term{Kind: TermBr, Val: cond, Then: then, Else: els}
}
