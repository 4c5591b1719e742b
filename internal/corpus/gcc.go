package corpus

import "parallax/internal/ir"

// Token encoding for the gcc-like expression evaluator: a word stream
// where 0..5 are operators and values >= 8 are (operand<<3) literals.
const (
	tokAdd = 0
	tokSub = 1
	tokMul = 2
	tokXor = 3
	tokShl = 4 // 5, max, is the dispatch's fall-through case
)

// BuildGcc models a compiler middle end: a stack evaluator folding a
// large RPN token stream through a branchy operator dispatch, plus a
// use-count analysis pass — call- and branch-dense code over word
// arrays, the gcc-like profile.
func BuildGcc() *ir.Module {
	mb := ir.NewModule("gcc")

	tokens := rpnStream(0xCAFE, 3000)
	mb.Global("tokens", tokens)
	mb.Global("ntokens", leWord(uint32(len(tokens)/4)))
	mb.GlobalZero("stack", 128*4)
	mb.GlobalZero("usecnt", 64*4)

	// fold — the verification candidate: constant-folds a 24-token
	// window of the stream through the operator dispatch. Loop- and
	// branch-heavy with a compact static body.
	fb := mb.Func("fold", 3)
	winBase := fb.Param(0)
	a := fb.Param(1)
	b := fb.Param(2)
	toksF := fb.Addr("tokens", 0)
	fourF := fb.Const(4)
	r := fb.Const(0)
	loop(fb, "fold", 0, 24, func(wi ir.Value) {
		op := fb.Load(fb.Add(toksF, fb.Mul(fb.Add(winBase, wi), fourF)))
		sixF := fb.Const(6)
		fb.Assign(op, fb.Bin(ir.URem, op, sixF))
		isAdd := fb.Cmp(ir.Eq, op, fb.Const(tokAdd))
		ifElse(fb, "add", isAdd, func() {
			fb.Assign(r, fb.Add(a, b))
		}, func() {
			isSub := fb.Cmp(ir.Eq, op, fb.Const(tokSub))
			ifElse(fb, "sub", isSub, func() {
				fb.Assign(r, fb.Sub(a, b))
			}, func() {
				isMul := fb.Cmp(ir.Eq, op, fb.Const(tokMul))
				ifElse(fb, "mul", isMul, func() {
					fb.Assign(r, fb.Mul(a, b))
				}, func() {
					isXor := fb.Cmp(ir.Eq, op, fb.Const(tokXor))
					ifElse(fb, "xor", isXor, func() {
						fb.Assign(r, fb.Xor(a, b))
					}, func() {
						isShl := fb.Cmp(ir.Eq, op, fb.Const(tokShl))
						ifElse(fb, "shl", isShl, func() {
							seven := fb.Const(7)
							fb.Assign(r, fb.Shl(a, fb.And(b, seven)))
						}, func() {
							// max(a, b), signed
							lt := fb.Cmp(ir.Lt, a, b)
							ifElse(fb, "max", lt, func() {
								fb.Assign(r, b)
							}, func() {
								fb.Assign(r, a)
							})
						})
					})
				})
			})
		})
		fb.Assign(a, fb.Xor(a, r))
		fb.Assign(b, fb.Add(b, r))
	})
	fb.Ret(r)

	// eval: RPN over the token stream with an explicit stack.
	fb = mb.Func("eval", 0)
	toks := fb.Addr("tokens", 0)
	n := fb.Load(fb.Addr("ntokens", 0))
	stack := fb.Addr("stack", 0)
	sp := fb.Const(0)
	four := fb.Const(4)
	eight := fb.Const(8)
	three := fb.Const(3)
	one := fb.Const(1)
	loopVal(fb, "ev", 0, n, func(i ir.Value) {
		t := fb.Load(fb.Add(toks, fb.Mul(i, four)))
		isLit := fb.Cmp(ir.UGe, t, eight)
		ifElse(fb, "lit", isLit, func() {
			v := fb.Shr(t, three)
			fb.Store(fb.Add(stack, fb.Mul(sp, four)), v)
			fb.Assign(sp, fb.Add(sp, one))
		}, func() {
			// Pop two, fold, push — guarded against underflow.
			two := fb.Const(2)
			deep := fb.Cmp(ir.UGe, sp, two)
			ifElse(fb, "deep", deep, func() {
				fb.Assign(sp, fb.Sub(sp, one))
				b2 := fb.Load(fb.Add(stack, fb.Mul(sp, four)))
				fb.Assign(sp, fb.Sub(sp, one))
				a2 := fb.Load(fb.Add(stack, fb.Mul(sp, four)))
				// Fold a token window anchored at the operator, but only
				// for every 32nd operator (folding is a sampled pass).
				thirtyOne := fb.Const(31)
				sampled := fb.Cmp(ir.Eq, fb.And(i, thirtyOne), fb.Const(0))
				v := fb.Copy(a2)
				ifElse(fb, "dofold", sampled, func() {
					winMax := fb.Const(2900)
					base := fb.Bin(ir.URem, i, winMax)
					fb.Assign(v, fb.Call("fold", base, a2, b2))
				}, func() {
					fb.Assign(v, fb.Add(fb.Xor(a2, b2), t))
				})
				fb.Store(fb.Add(stack, fb.Mul(sp, four)), v)
				fb.Assign(sp, fb.Add(sp, one))
			}, nil)
		})
		// Clamp the stack to its 128 slots (streams are random).
		cap126 := fb.Const(126)
		over := fb.Cmp(ir.UGt, sp, cap126)
		ifElse(fb, "cap", over, func() {
			fb.AssignConst(sp, 64)
		}, nil)
	})
	top := fb.Load(stack)
	fb.Ret(fb.Add(top, sp))

	// count_uses: frequency of operand residues — an analysis-pass
	// stand-in.
	fb = mb.Func("count_uses", 0)
	toks2 := fb.Addr("tokens", 0)
	n2 := fb.Load(fb.Addr("ntokens", 0))
	uc := fb.Addr("usecnt", 0)
	four2 := fb.Const(4)
	loopVal(fb, "cu", 0, n2, func(i ir.Value) {
		t := fb.Load(fb.Add(toks2, fb.Mul(i, four2)))
		sixtyThree := fb.Const(63)
		slot := fb.And(t, sixtyThree)
		addr := fb.Add(uc, fb.Mul(slot, four2))
		fb.Store(addr, fb.Add(fb.Load(addr), fb.Const(1)))
	})
	acc := fb.Const(0x73CB0211)
	loop(fb, "sum", 0, 64, func(i ir.Value) {
		v := fb.Load(fb.Add(uc, fb.Mul(i, four2)))
		fb.Assign(acc, fb.Xor(fb.Add(acc, v), fb.Shl(v, fb.Const(1))))
	})
	fb.Ret(acc)

	// cse_scan: windowed duplicate-token search — the analysis pass
	// that dominates a real middle end's time.
	fb = mb.Func("cse_scan", 0)
	toks3 := fb.Addr("tokens", 0)
	n3 := fb.Load(fb.Addr("ntokens", 0))
	four3 := fb.Const(4)
	dups := fb.Const(0)
	loopVal(fb, "cse", 32, n3, func(i ir.Value) {
		t := fb.Load(fb.Add(toks3, fb.Mul(i, four3)))
		loop(fb, "win", 1, 33, func(d ir.Value) {
			prev := fb.Load(fb.Add(toks3, fb.Mul(fb.Sub(i, d), four3)))
			same := fb.Cmp(ir.Eq, prev, t)
			fb.Assign(dups, fb.Add(dups, same))
		})
	})
	fb.Ret(dups)

	fb = mb.Func("main", 0)
	e := fb.Call("eval")
	u := fb.Call("count_uses")
	d := fb.Call("cse_scan")
	emitExit(fb, fb.Add(fb.Add(e, u), d))

	mb.SetEntry("main")
	return mb.MustBuild()
}

// rpnStream generates a deterministic token stream: mostly literals
// with operators sprinkled in (valid RPN is not required; eval guards
// underflow).
func rpnStream(seed uint32, n int) []byte {
	raw := testData(seed, n)
	out := make([]byte, 0, 4*n)
	for _, b := range raw {
		var tok uint32
		if b%5 == 0 {
			tok = uint32(b>>5) % 6 // operator
		} else {
			tok = (uint32(b) + 8) << 3 // literal
		}
		out = append(out, leWord(tok)...)
	}
	return out
}
