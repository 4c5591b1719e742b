package ir

import "testing"

// TestValidateErrorMessages pins the exact error string of every
// Validate branch, one malformed module each.
func TestValidateErrorMessages(t *testing.T) {
	ret := Term{Kind: TermRet}
	block := func(name string, term Term, insts ...Inst) *Block {
		return &Block{Name: name, Insts: insts, Term: term}
	}
	fn := func(name string, params, vals int, blocks ...*Block) *Func {
		return &Func{Name: name, NumParams: params, NumVals: vals, Blocks: blocks}
	}
	// one wraps a single instruction in main.entry with two values.
	one := func(in Inst) *Module {
		return &Module{Funcs: []*Func{fn("main", 0, 2, block("entry", ret, in))}}
	}
	tests := []struct {
		name string
		m    *Module
		want string
	}{
		{"duplicate function", &Module{Funcs: []*Func{
			fn("f", 0, 0, block("entry", ret)), fn("f", 0, 0, block("entry", ret)),
		}}, `ir: duplicate function "f"`},
		{"duplicate global", &Module{Globals: []*Global{{Name: "g"}, {Name: "g"}}},
			`ir: duplicate global "g"`},
		{"global collides", &Module{
			Funcs:   []*Func{fn("f", 0, 0, block("entry", ret))},
			Globals: []*Global{{Name: "f"}},
		}, `ir: global "f" collides with a function`},
		{"global size", &Module{Globals: []*Global{{Name: "g", Size: 2, Init: []byte{1, 2, 3}}}},
			`ir: global "g" size 2 < 3 init bytes`},
		{"undefined entry", &Module{Entry: "start"}, `ir: entry function "start" not defined`},
		{"no blocks", &Module{Funcs: []*Func{fn("f", 0, 0)}}, `ir: f: no blocks`},
		{"params exceed values", &Module{Funcs: []*Func{fn("f", 3, 2, block("entry", ret))}},
			`ir: f: 3 params but only 2 values`},
		{"duplicate block", &Module{Funcs: []*Func{fn("f", 0, 0, block("a", ret), block("a", ret))}},
			`ir: f: duplicate block "a"`},
		{"const dst", one(Inst{Kind: OpConst, Dst: 2}),
			`ir: main: main.entry[0] dst value v2 out of range [0,2)`},
		{"bin operand", one(Inst{Kind: OpBin, Dst: 0, A: 1, B: 5}),
			`ir: main: main.entry[0] value v5 out of range [0,2)`},
		{"cmp dst", one(Inst{Kind: OpCmp, Dst: -1}),
			`ir: main: main.entry[0] value v-1 out of range [0,2)`},
		{"copy operand", one(Inst{Kind: OpCopy, Dst: 1, A: 7}),
			`ir: main: main.entry[0] value v7 out of range [0,2)`},
		{"store operand", one(Inst{Kind: OpStore8, A: 0, B: 9}),
			`ir: main: main.entry[0] value v9 out of range [0,2)`},
		{"addr dst", one(Inst{Kind: OpAddr, Dst: 4, Global: "g"}),
			`ir: main: main.entry[0] dst value v4 out of range [0,2)`},
		{"undefined global", one(Inst{Kind: OpAddr, Dst: 0, Global: "nope"}),
			`ir: main.entry[0]: undefined global "nope"`},
		{"call dst", one(Inst{Kind: OpCall, Dst: 3, Callee: "main"}),
			`ir: main: main.entry[0] dst value v3 out of range [0,2)`},
		{"undefined callee", one(Inst{Kind: OpCall, Dst: 0, Callee: "ghost"}),
			`ir: main.entry[0]: undefined callee "ghost"`},
		{"call arity", &Module{Funcs: []*Func{
			fn("two", 2, 2, block("entry", ret)),
			fn("main", 0, 1, block("entry", ret, Inst{Kind: OpCall, Dst: 0, Callee: "two", Args: []Value{0}})),
		}}, `ir: main.entry[0]: call two with 1 args, want 2`},
		{"call arg", &Module{Funcs: []*Func{
			fn("id", 1, 1, block("entry", ret)),
			fn("main", 0, 2, block("entry", ret, Inst{Kind: OpCall, Dst: 0, Callee: "id", Args: []Value{5}})),
		}}, `ir: main: main.entry[0] arg value v5 out of range [0,2)`},
		{"syscall dst", one(Inst{Kind: OpSyscall, Dst: 2}),
			`ir: main: main.entry[0] dst value v2 out of range [0,2)`},
		{"syscall args", one(Inst{Kind: OpSyscall, Dst: 0, Args: []Value{0, 0, 0, 0, 0, 0}}),
			`ir: main.entry[0]: syscall with 6 args (max 5)`},
		{"syscall arg", one(Inst{Kind: OpSyscall, Dst: 0, Args: []Value{1, 8}}),
			`ir: main: main.entry[0] arg value v8 out of range [0,2)`},
		{"unknown instruction", one(Inst{Kind: 99}),
			`ir: main.entry[0]: unknown instruction kind 99`},
		{"later instruction", &Module{Funcs: []*Func{fn("main", 0, 1,
			block("entry", Term{Kind: TermJmp, Then: "next"}),
			block("next", ret, Inst{Kind: OpConst}, Inst{Kind: OpNeg, Dst: 0, A: 1}),
		)}}, `ir: main: main.next[1] value v1 out of range [0,1)`},
		{"ret value", &Module{Funcs: []*Func{fn("f", 0, 1, block("entry", Term{Kind: TermRet, HasVal: true, Val: 1}))}},
			`ir: f: f.entry ret value v1 out of range [0,1)`},
		{"undefined jmp block", &Module{Funcs: []*Func{fn("f", 0, 0, block("entry", Term{Kind: TermJmp, Then: "nowhere"}))}},
			`ir: f.entry: jmp to undefined block "nowhere"`},
		{"br cond", &Module{Funcs: []*Func{fn("f", 0, 1, block("entry", Term{Kind: TermBr, Val: 1, Then: "entry", Else: "entry"}))}},
			`ir: f: f.entry br cond value v1 out of range [0,1)`},
		{"undefined br block", &Module{Funcs: []*Func{fn("f", 0, 1, block("entry", Term{Kind: TermBr, Then: "entry", Else: "out"}))}},
			`ir: f.entry: br to undefined block "out"`},
		{"unknown terminator", &Module{Funcs: []*Func{fn("f", 0, 0, block("entry", Term{Kind: 42}))}},
			`ir: f.entry: unknown terminator kind 42`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Validate(tt.m)
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tt.want {
				t.Errorf("Validate error = %q, want %q", got, tt.want)
			}
		})
	}
}
