package ir

import "fmt"

// Validate checks module well-formedness: unique names, resolvable
// block/function/global references, and value indices within range.
func Validate(m *Module) error {
	funcs := make(map[string]*Func, len(m.Funcs))
	for _, f := range m.Funcs {
		if funcs[f.Name] != nil {
			return fmt.Errorf("ir: duplicate function %q", f.Name)
		}
		funcs[f.Name] = f
	}
	globalNames := make(map[string]bool, len(m.Globals))
	for _, g := range m.Globals {
		if globalNames[g.Name] {
			return fmt.Errorf("ir: duplicate global %q", g.Name)
		}
		if funcs[g.Name] != nil {
			return fmt.Errorf("ir: global %q collides with a function", g.Name)
		}
		globalNames[g.Name] = true
		if g.Size != 0 && g.Size < uint32(len(g.Init)) {
			return fmt.Errorf("ir: global %q size %d < %d init bytes",
				g.Name, g.Size, len(g.Init))
		}
	}
	if m.Entry != "" && funcs[m.Entry] == nil {
		return fmt.Errorf("ir: entry function %q not defined", m.Entry)
	}
	for _, e := range m.Externs {
		globalNames[e] = true
	}
	for _, f := range m.Funcs {
		if err := validateFunc(f, funcs, globalNames); err != nil {
			return err
		}
	}
	return nil
}

func validateFunc(f *Func, funcs map[string]*Func, globals map[string]bool) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: %s: no blocks", f.Name)
	}
	if f.NumParams > f.NumVals {
		return fmt.Errorf("ir: %s: %d params but only %d values", f.Name, f.NumParams, f.NumVals)
	}
	blocks := make(map[string]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		if blocks[b.Name] {
			return fmt.Errorf("ir: %s: duplicate block %q", f.Name, b.Name)
		}
		blocks[b.Name] = true
	}
	bad := func(v Value) bool { return int(v) < 0 || int(v) >= f.NumVals }
	valErr := func(v Value, what string) error {
		return fmt.Errorf("ir: %s: %s value %v out of range [0,%d)", f.Name, what, v, f.NumVals)
	}
	// where formats the location of instruction i of block b; it runs
	// only on the way to an error.
	var b *Block
	var i int
	where := func() string { return fmt.Sprintf("%s.%s[%d]", f.Name, b.Name, i) }
	for _, b = range f.Blocks {
		for i = range b.Insts {
			in := &b.Insts[i]
			switch in.Kind {
			case OpConst:
				if bad(in.Dst) {
					return valErr(in.Dst, where()+" dst")
				}
			case OpBin, OpCmp:
				for _, v := range []Value{in.Dst, in.A, in.B} {
					if bad(v) {
						return valErr(v, where())
					}
				}
			case OpNot, OpNeg, OpCopy, OpLoad, OpLoad8:
				for _, v := range []Value{in.Dst, in.A} {
					if bad(v) {
						return valErr(v, where())
					}
				}
			case OpStore, OpStore8:
				for _, v := range []Value{in.A, in.B} {
					if bad(v) {
						return valErr(v, where())
					}
				}
			case OpAddr:
				if bad(in.Dst) {
					return valErr(in.Dst, where()+" dst")
				}
				if !globals[in.Global] {
					return fmt.Errorf("ir: %s: undefined global %q", where(), in.Global)
				}
			case OpCall:
				if bad(in.Dst) {
					return valErr(in.Dst, where()+" dst")
				}
				callee := funcs[in.Callee]
				if callee == nil {
					return fmt.Errorf("ir: %s: undefined callee %q", where(), in.Callee)
				}
				if len(in.Args) != callee.NumParams {
					return fmt.Errorf("ir: %s: call %s with %d args, want %d",
						where(), in.Callee, len(in.Args), callee.NumParams)
				}
				for _, a := range in.Args {
					if bad(a) {
						return valErr(a, where()+" arg")
					}
				}
			case OpSyscall:
				if bad(in.Dst) {
					return valErr(in.Dst, where()+" dst")
				}
				if len(in.Args) > 5 {
					return fmt.Errorf("ir: %s: syscall with %d args (max 5)", where(), len(in.Args))
				}
				for _, a := range in.Args {
					if bad(a) {
						return valErr(a, where()+" arg")
					}
				}
			default:
				return fmt.Errorf("ir: %s: unknown instruction kind %d", where(), in.Kind)
			}
		}
		switch b.Term.Kind {
		case TermRet:
			if b.Term.HasVal && bad(b.Term.Val) {
				return valErr(b.Term.Val, f.Name+"."+b.Name+" ret")
			}
		case TermJmp:
			if !blocks[b.Term.Then] {
				return fmt.Errorf("ir: %s.%s: jmp to undefined block %q", f.Name, b.Name, b.Term.Then)
			}
		case TermBr:
			if bad(b.Term.Val) {
				return valErr(b.Term.Val, f.Name+"."+b.Name+" br cond")
			}
			for _, t := range []string{b.Term.Then, b.Term.Else} {
				if !blocks[t] {
					return fmt.Errorf("ir: %s.%s: br to undefined block %q", f.Name, b.Name, t)
				}
			}
		default:
			return fmt.Errorf("ir: %s.%s: unknown terminator kind %d", f.Name, b.Name, b.Term.Kind)
		}
	}
	return nil
}
