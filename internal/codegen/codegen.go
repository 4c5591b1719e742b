// Package codegen compiles IR modules to x86-32 relocatable objects —
// the "gcc" of this repository. The generated code is deliberately
// plain (every virtual register lives in a stack slot, in the style of
// an unoptimizing compiler): it is the substrate Parallax protects, and
// its instruction mix — immediate-rich movs, adds and compares — is
// what the paper's rewriting rules feed on.
package codegen

import (
	"fmt"

	"parallax/internal/image"
	"parallax/internal/ir"
	"parallax/internal/x86"
)

// Calling convention (all code in this repository is generated, so the
// ABI is ours to define):
//
//   - cdecl argument passing: pushed right to left, caller cleans up;
//   - return value in EAX;
//   - EBP/ESP are preserved, every other register is caller-saved;
//   - virtual register i lives at [ebp - 4*(i+1)].

// Compile lowers a validated module to a relocatable object.
func Compile(m *ir.Module) (*image.Object, error) {
	if err := ir.Validate(m); err != nil {
		return nil, err
	}
	obj := &image.Object{Entry: m.Entry}
	for _, f := range m.Funcs {
		fn, err := compileFunc(f)
		if err != nil {
			return nil, err
		}
		if err := obj.AddFunc(fn); err != nil {
			return nil, err
		}
	}
	for _, g := range m.Globals {
		if err := obj.AddData(&image.DataSym{
			Name:     g.Name,
			Bytes:    append([]byte(nil), g.Init...),
			Size:     g.ByteSize(),
			ReadOnly: g.ReadOnly,
		}); err != nil {
			return nil, err
		}
	}
	return obj, nil
}

// Build compiles and links a module in one step.
func Build(m *ir.Module) (*image.Image, error) {
	obj, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return image.Link(obj)
}

type funcGen struct {
	items []image.Item
}

func (g *funcGen) emit(inst x86.Inst) {
	g.items = append(g.items, image.InstItem(inst))
}

func (g *funcGen) emitRef(inst x86.Inst, ref image.Ref) {
	g.items = append(g.items, image.Item{Inst: inst, Ref: ref})
}

// slot returns the stack-frame operand of a virtual register.
func slot(v ir.Value) x86.Operand {
	return x86.MemOp(x86.EBP, -4*(int32(v)+1))
}

// loadVal emits mov reg, [slot v].
func (g *funcGen) loadVal(r x86.Reg, v ir.Value) {
	g.emit(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(r), Src: slot(v)})
}

// storeVal emits mov [slot v], reg.
func (g *funcGen) storeVal(v ir.Value, r x86.Reg) {
	g.emit(x86.Inst{Op: x86.MOV, W: 32, Dst: slot(v), Src: x86.RegOp(r)})
}

func blockLabel(name string) string { return ".b." + name }

func compileFunc(f *ir.Func) (*image.Func, error) {
	// Presize items so a function is one allocation: the prologue and
	// parameter copies take 4+2·NumParams items, and every corpus and
	// generated function fits in 3 more per instruction or terminator.
	// One that needs more grows by append.
	n := 4 + 2*f.NumParams
	for _, b := range f.Blocks {
		n += 3 * (len(b.Insts) + 1)
	}
	g := &funcGen{items: make([]image.Item, 0, n)}

	// Prologue.
	g.emit(x86.Inst{Op: x86.PUSH, W: 32, Dst: x86.RegOp(x86.EBP)})
	g.emit(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EBP), Src: x86.RegOp(x86.ESP)})
	frame := int32(4 * f.NumVals)
	if frame > 0 {
		g.emit(x86.Inst{Op: x86.SUB, W: 32, Dst: x86.RegOp(x86.ESP), Src: x86.ImmOp(frame)})
	}
	// Copy parameters into their slots.
	for i := 0; i < f.NumParams; i++ {
		g.emit(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX),
			Src: x86.MemOp(x86.EBP, 8+4*int32(i))})
		g.storeVal(ir.Value(i), x86.EAX)
	}

	for bi, b := range f.Blocks {
		// Attach the block label to the next emitted instruction.
		labelAt := len(g.items)
		for i := range b.Insts {
			if err := g.inst(&b.Insts[i]); err != nil {
				return nil, fmt.Errorf("codegen: %s.%s: %w", f.Name, b.Name, err)
			}
		}
		if err := g.term(f, bi, b); err != nil {
			return nil, fmt.Errorf("codegen: %s.%s: %w", f.Name, b.Name, err)
		}
		if labelAt >= len(g.items) {
			return nil, fmt.Errorf("codegen: %s.%s produced no code", f.Name, b.Name)
		}
		g.items[labelAt].Label = blockLabel(b.Name)
	}

	return &image.Func{Name: f.Name, Items: g.items}, nil
}

func (g *funcGen) inst(in *ir.Inst) error {
	switch in.Kind {
	case ir.OpConst:
		// mov dword [slot], imm — immediate-carrying stores are the
		// bread and butter of the §IV-B immediate-modification rule.
		g.emit(x86.Inst{Op: x86.MOV, W: 32, Dst: slot(in.Dst), Src: x86.ImmOp(in.Imm)})

	case ir.OpCopy:
		g.loadVal(x86.EAX, in.A)
		g.storeVal(in.Dst, x86.EAX)

	case ir.OpNot:
		g.loadVal(x86.EAX, in.A)
		g.emit(x86.Inst{Op: x86.NOT, W: 32, Dst: x86.RegOp(x86.EAX)})
		g.storeVal(in.Dst, x86.EAX)

	case ir.OpNeg:
		g.loadVal(x86.EAX, in.A)
		g.emit(x86.Inst{Op: x86.NEG, W: 32, Dst: x86.RegOp(x86.EAX)})
		g.storeVal(in.Dst, x86.EAX)

	case ir.OpBin:
		return g.bin(in)

	case ir.OpCmp:
		g.loadVal(x86.EAX, in.A)
		g.emit(x86.Inst{Op: x86.CMP, W: 32, Dst: x86.RegOp(x86.EAX), Src: slot(in.B)})
		g.emit(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.ECX), Src: x86.ImmOp(0)})
		g.emit(x86.Inst{Op: x86.SETCC, W: 8, Cond: predCond(in.Pred), Dst: x86.RegOp(x86.CL)})
		g.storeVal(in.Dst, x86.ECX)

	case ir.OpLoad:
		g.loadVal(x86.EAX, in.A)
		g.emit(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.MemOp(x86.EAX, 0)})
		g.storeVal(in.Dst, x86.EAX)

	case ir.OpLoad8:
		g.loadVal(x86.EAX, in.A)
		g.emit(x86.Inst{Op: x86.MOVZX, W: 8, Dst: x86.RegOp(x86.EAX), Src: x86.MemOp(x86.EAX, 0)})
		g.storeVal(in.Dst, x86.EAX)

	case ir.OpStore:
		g.loadVal(x86.EAX, in.A)
		g.loadVal(x86.ECX, in.B)
		g.emit(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemOp(x86.EAX, 0), Src: x86.RegOp(x86.ECX)})

	case ir.OpStore8:
		g.loadVal(x86.EAX, in.A)
		g.loadVal(x86.ECX, in.B)
		g.emit(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.MemOp(x86.EAX, 0), Src: x86.RegOp(x86.CL)})

	case ir.OpAddr:
		g.emitRef(
			x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(0)},
			image.Ref{Slot: image.RefImm, Sym: in.Global, Add: in.Imm},
		)
		g.storeVal(in.Dst, x86.EAX)

	case ir.OpCall:
		for i := len(in.Args) - 1; i >= 0; i-- {
			g.emit(x86.Inst{Op: x86.PUSH, W: 32, Dst: slot(in.Args[i])})
		}
		g.emitRef(x86.Inst{Op: x86.CALL, W: 32}, image.Ref{Slot: image.RefTarget, Sym: in.Callee})
		if n := int32(len(in.Args)); n > 0 {
			g.emit(x86.Inst{Op: x86.ADD, W: 32, Dst: x86.RegOp(x86.ESP), Src: x86.ImmOp(4 * n)})
		}
		g.storeVal(in.Dst, x86.EAX)

	case ir.OpSyscall:
		argRegs := []x86.Reg{x86.EBX, x86.ECX, x86.EDX, x86.ESI, x86.EDI}
		for i, a := range in.Args {
			g.loadVal(argRegs[i], a)
		}
		g.emit(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(in.Imm)})
		g.emit(x86.Inst{Op: x86.INT, W: 32, Imm: 0x80})
		g.storeVal(in.Dst, x86.EAX)

	default:
		return fmt.Errorf("unknown instruction kind %d", in.Kind)
	}
	return nil
}

func (g *funcGen) bin(in *ir.Inst) error {
	switch in.Bin {
	case ir.Add, ir.Sub, ir.And, ir.Or, ir.Xor:
		op := map[ir.BinKind]x86.Op{
			ir.Add: x86.ADD, ir.Sub: x86.SUB, ir.And: x86.AND,
			ir.Or: x86.OR, ir.Xor: x86.XOR,
		}[in.Bin]
		g.loadVal(x86.EAX, in.A)
		g.emit(x86.Inst{Op: op, W: 32, Dst: x86.RegOp(x86.EAX), Src: slot(in.B)})
		g.storeVal(in.Dst, x86.EAX)

	case ir.Mul:
		g.loadVal(x86.EAX, in.A)
		g.emit(x86.Inst{Op: x86.IMUL, W: 32, Dst: x86.RegOp(x86.EAX), Src: slot(in.B)})
		g.storeVal(in.Dst, x86.EAX)

	case ir.Shl, ir.Shr, ir.Sar:
		op := map[ir.BinKind]x86.Op{
			ir.Shl: x86.SHL, ir.Shr: x86.SHR, ir.Sar: x86.SAR,
		}[in.Bin]
		g.loadVal(x86.EAX, in.A)
		g.loadVal(x86.ECX, in.B)
		g.emit(x86.Inst{Op: op, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.ECX)})
		g.storeVal(in.Dst, x86.EAX)

	case ir.UDiv, ir.URem:
		g.loadVal(x86.EAX, in.A)
		g.emit(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EDX), Src: x86.ImmOp(0)})
		g.emit(x86.Inst{Op: x86.DIV, W: 32, Dst: slot(in.B)})
		if in.Bin == ir.UDiv {
			g.storeVal(in.Dst, x86.EAX)
		} else {
			g.storeVal(in.Dst, x86.EDX)
		}

	case ir.SDiv, ir.SRem:
		g.loadVal(x86.EAX, in.A)
		g.emit(x86.Inst{Op: x86.CDQ, W: 32})
		g.emit(x86.Inst{Op: x86.IDIV, W: 32, Dst: slot(in.B)})
		if in.Bin == ir.SDiv {
			g.storeVal(in.Dst, x86.EAX)
		} else {
			g.storeVal(in.Dst, x86.EDX)
		}

	default:
		return fmt.Errorf("unknown binary op %v", in.Bin)
	}
	return nil
}

func predCond(p ir.Pred) x86.Cond {
	switch p {
	case ir.Eq:
		return x86.CondE
	case ir.Ne:
		return x86.CondNE
	case ir.Lt:
		return x86.CondL
	case ir.Le:
		return x86.CondLE
	case ir.Gt:
		return x86.CondG
	case ir.Ge:
		return x86.CondGE
	case ir.ULt:
		return x86.CondB
	case ir.ULe:
		return x86.CondBE
	case ir.UGt:
		return x86.CondA
	default:
		return x86.CondAE
	}
}

func (g *funcGen) term(f *ir.Func, bi int, b *ir.Block) error {
	switch b.Term.Kind {
	case ir.TermRet:
		if b.Term.HasVal {
			g.loadVal(x86.EAX, b.Term.Val)
		} else {
			g.emit(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(0)})
		}
		g.emit(x86.Inst{Op: x86.LEAVE, W: 32})
		g.emit(x86.Inst{Op: x86.RET, W: 32})

	case ir.TermJmp:
		g.emitRef(x86.Inst{Op: x86.JMP, W: 32},
			image.Ref{Slot: image.RefTarget, Sym: blockLabel(b.Term.Then)})

	case ir.TermBr:
		g.loadVal(x86.EAX, b.Term.Val)
		g.emit(x86.Inst{Op: x86.TEST, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.EAX)})
		g.emitRef(x86.Inst{Op: x86.JCC, W: 32, Cond: x86.CondNE},
			image.Ref{Slot: image.RefTarget, Sym: blockLabel(b.Term.Then)})
		g.emitRef(x86.Inst{Op: x86.JMP, W: 32},
			image.Ref{Slot: image.RefTarget, Sym: blockLabel(b.Term.Else)})

	default:
		return fmt.Errorf("unknown terminator kind %d", b.Term.Kind)
	}
	_ = f
	_ = bi
	return nil
}
