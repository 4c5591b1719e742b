package ropc

import (
	"errors"
	"math/rand"
	"testing"

	"parallax/internal/chain"
	"parallax/internal/emu"
	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/ir"
	"parallax/internal/x86"
)

// poolEnv links a pool-only image and returns a compiler environment
// plus the image for execution tests.
func poolEnv(t *testing.T) (*Env, *image.Image) {
	t.Helper()
	obj := &image.Object{}
	if err := chain.AddPool(obj); err != nil {
		t.Fatal(err)
	}
	img, err := image.Link(obj)
	if err != nil {
		t.Fatal(err)
	}
	cat := gadget.Scan(img)
	env := &Env{
		Catalog:    cat,
		GlobalAddr: func(string) (uint32, bool) { return 0, false },
	}
	return env, img
}

// sampleFunc builds a chainable function exercising every supported
// construct: f(a, b) with loop, branches, comparisons, memory via a
// global, shifts, mul, div.
func sampleModule(t *testing.T) *ir.Module {
	t.Helper()
	mb := ir.NewModule("s")
	mb.GlobalZero("scratch", 64)
	fb := mb.Func("f", 2)
	a := fb.Param(0)
	b := fb.Param(1)
	acc := fb.Xor(a, b)
	i := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	lim := fb.Const(5)
	c := fb.Cmp(ir.ULt, i, lim)
	fb.Br(c, "body", "done")
	fb.Block("body")
	three := fb.Const(3)
	fb.Assign(acc, fb.Add(fb.Mul(acc, three), fb.Shr(acc, three)))
	p := fb.Addr("scratch", 0)
	fb.Store(p, acc)
	fb.Assign(acc, fb.Add(fb.Load(p), i))
	one := fb.Const(1)
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp("head")
	fb.Block("done")
	seven := fb.Const(7)
	q := fb.Bin(ir.UDiv, acc, seven)
	r := fb.Bin(ir.URem, acc, seven)
	ge := fb.Cmp(ir.Ge, q, r)
	fb.Br(ge, "big", "small")
	fb.Block("big")
	fb.Ret(fb.Add(q, r))
	fb.Block("small")
	fb.Ret(fb.Sub(r, q))
	mb.SetEntry("f")
	return mb.MustBuild()
}

func TestChainable(t *testing.T) {
	m := sampleModule(t)
	if !Chainable(m.Func("f")) {
		t.Error("sample function should be chainable")
	}
	mb := ir.NewModule("c")
	fb := mb.Func("callee", 0)
	fb.RetVoid()
	fb = mb.Func("caller", 0)
	fb.Ret(fb.Call("callee"))
	fb = mb.Func("sys", 0)
	fb.Ret(fb.Syscall(20))
	m2 := mb.MustBuild()
	if Chainable(m2.Func("caller")) || Chainable(m2.Func("sys")) {
		t.Error("calls and syscalls must not be chainable")
	}
}

// TestLowerPreservesSemantics is the lowering pass's differential
// proof: for random functions and arguments, the lowered function
// computes the same results under the IR interpreter.
func TestLowerPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	preds := []ir.Pred{ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.ULt, ir.ULe, ir.UGt, ir.UGe}
	for trial := 0; trial < 150; trial++ {
		mb := ir.NewModule("lw")
		mb.GlobalZero("g", 64)
		fb := mb.Func("f", 2)
		a := fb.Param(0)
		b := fb.Param(1)
		// Random mix of cmps, byte memory ops and arithmetic.
		vals := []ir.Value{a, b, fb.Const(int32(r.Uint32()))}
		pick := func() ir.Value { return vals[r.Intn(len(vals))] }
		for k := 0; k < 6; k++ {
			switch r.Intn(4) {
			case 0:
				vals = append(vals, fb.Cmp(preds[r.Intn(len(preds))], pick(), pick()))
			case 1:
				off := fb.Const(int32(r.Intn(60)))
				addr := fb.Add(fb.Addr("g", 0), off)
				fb.Store8(addr, pick())
				vals = append(vals, fb.Load8(addr))
			case 2:
				vals = append(vals, fb.Bin(ir.Add, pick(), pick()))
			case 3:
				vals = append(vals, fb.Bin(ir.Xor, pick(), pick()))
			}
		}
		cond := fb.Cmp(preds[r.Intn(len(preds))], pick(), pick())
		fb.Br(cond, "t", "e")
		fb.Block("t")
		fb.Ret(fb.Add(pick(), pick()))
		fb.Block("e")
		fb.Ret(fb.Xor(pick(), pick()))
		m := mb.MustBuild()

		lowered, err := Lower(m.Func("f"))
		if err != nil {
			t.Fatal(err)
		}
		lm := m.Clone()
		for i, f := range lm.Funcs {
			if f.Name == "f" {
				lm.Funcs[i] = lowered
			}
		}
		if err := ir.Validate(lm); err != nil {
			t.Fatalf("lowered module invalid: %v", err)
		}

		for args := 0; args < 8; args++ {
			x := r.Uint32()
			y := r.Uint32()
			want, err1 := ir.NewInterp(m, nil).CallFunc("f", x, y)
			got, err2 := ir.NewInterp(lm, nil).CallFunc("f", x, y)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d: error divergence %v vs %v", trial, err1, err2)
			}
			if err1 == nil && want != got {
				t.Fatalf("trial %d f(%#x,%#x): original %#x, lowered %#x",
					trial, x, y, want, got)
			}
		}
	}
}

func TestLowerRejectsCalls(t *testing.T) {
	mb := ir.NewModule("x")
	fb := mb.Func("callee", 0)
	fb.RetVoid()
	fb = mb.Func("f", 0)
	fb.Ret(fb.Call("callee"))
	m := mb.MustBuild()
	if _, err := Lower(m.Func("f")); err == nil {
		t.Error("Lower accepted a function with calls")
	}
}

func TestCompileStructure(t *testing.T) {
	env, _ := poolEnv(t)
	m := sampleModule(t)
	fakeGlobals := func(name string) (uint32, bool) {
		if name == "scratch" {
			return 0x08100000, true
		}
		return 0, false
	}
	env.GlobalAddr = fakeGlobals

	ch, err := CompileWith(m.Func("f"), env, 0x08200000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Words) < 50 {
		t.Fatalf("suspiciously small chain: %d words", len(ch.Words))
	}
	if ch.Words[0].Kind != WGadget {
		t.Error("chain must start with a gadget address")
	}
	if ch.ExitPtrIndex != len(ch.Words)-1 ||
		ch.Words[ch.ExitPtrIndex].Kind != WExitPtr {
		t.Errorf("exit pointer not last: idx=%d len=%d", ch.ExitPtrIndex, len(ch.Words))
	}
	for i, w := range ch.Words {
		if w.Kind == WGadget && !w.Gadget.Usable() {
			t.Errorf("word %d uses unusable gadget %v", i, w.Gadget)
		}
	}
	// The word before the exit pointer must be a pop-esp gadget.
	popEsp := ch.Words[ch.ExitPtrIndex-1]
	if popEsp.Kind != WGadget || popEsp.Gadget.Kind != gadget.KindPopEsp {
		t.Errorf("epilogue gadget = %+v", popEsp)
	}
	// Bytes materialize to 4x words with gadget addresses inside text.
	b := ch.Bytes()
	if len(b) != ch.ByteLen() {
		t.Errorf("ByteLen %d != %d", ch.ByteLen(), len(b))
	}
}

func TestCompileDeterministic(t *testing.T) {
	env, _ := poolEnv(t)
	env.GlobalAddr = func(string) (uint32, bool) { return 0x08100000, true }
	m := sampleModule(t)
	a, err := CompileWith(m.Func("f"), env, 0x08200000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileWith(m.Func("f"), env, 0x08200000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Words) != len(b.Words) {
		t.Fatalf("non-deterministic length: %d vs %d", len(a.Words), len(b.Words))
	}
	ab, bb := a.Bytes(), b.Bytes()
	for i := range ab {
		if ab[i] != bb[i] {
			t.Fatalf("non-deterministic word content at byte %d", i)
		}
	}
}

func TestCompileMissingGadget(t *testing.T) {
	env := &Env{
		Catalog:    gadget.NewCatalog(nil),
		GlobalAddr: func(string) (uint32, bool) { return 0, false },
	}
	m := sampleModule(t)
	_, err := CompileWith(m.Func("f"), env, 0x1000, Options{})
	var miss *MissingGadgetError
	if !errors.As(err, &miss) {
		t.Fatalf("err = %v, want MissingGadgetError", err)
	}
}

// TestCompileSkipsLoadWithIncidentalRead: given a load gadget that
// also reads memory elsewhere and its clean "mov eax,[ebx]; ret"
// suffix, the compiler must chain the suffix. Picking the longer
// gadget faults on its incidental read at run time.
func TestCompileSkipsLoadWithIncidentalRead(t *testing.T) {
	for _, code := range [][]byte{
		// test [ebx+0xe045c7be],edx; mov eax,[ebx]; ret
		{0x85, 0x93, 0xBE, 0xC7, 0x45, 0xE0, 0x8B, 0x03, 0xC3},
		// adc eax,[edx-0x17ba38c0]; mov eax,[ebx]; ret
		{0x13, 0x82, 0x40, 0xC7, 0x45, 0xE8, 0x8B, 0x03, 0xC3},
	} {
		c := &compiler{env: &Env{Catalog: gadget.NewCatalog(gadget.ScanBytes(code, 0x1000))}}
		g, err := c.pickChecked(Spec{Kind: gadget.KindLoad, Dst: x86.EAX, Src: x86.EBX}, 0)
		if err != nil {
			t.Fatalf("% x: %v", code, err)
		}
		if g.Addr != 0x1006 || len(g.Insts) != 2 {
			t.Errorf("% x: picked %v at %#x, want the clean suffix at 0x1006", code, g, g.Addr)
		}
	}
}

func TestMuChainLonger(t *testing.T) {
	env, _ := poolEnv(t)
	env.GlobalAddr = func(string) (uint32, bool) { return 0x08100000, true }
	m := sampleModule(t)
	fn, err := CompileWith(m.Func("f"), env, 0x08200000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mu, err := CompileWith(m.Func("f"), env, 0x08200000, Options{Mu: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(mu.Words) <= len(fn.Words) {
		t.Errorf("µ-chain (%d words) not longer than function chain (%d)",
			len(mu.Words), len(fn.Words))
	}
}

func TestAlternativesShareFootprint(t *testing.T) {
	env, _ := poolEnv(t)
	env.GlobalAddr = func(string) (uint32, bool) { return 0x08100000, true }
	m := sampleModule(t)
	ch, err := CompileWith(m.Func("f"), env, 0x08200000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawMulti := false
	for _, w := range ch.Words {
		if w.Kind != WGadget {
			continue
		}
		alts := Alternatives(env, w)
		if len(alts) == 0 {
			t.Fatalf("no alternatives for %v (must at least include itself)", w.Gadget)
		}
		if len(alts) > 1 {
			sawMulti = true
		}
		for _, g := range alts {
			if g.StackPops != w.Gadget.StackPops || g.FarRet != w.Gadget.FarRet {
				t.Errorf("footprint mismatch: %v vs %v", g, w.Gadget)
			}
			if g.Clobbers&w.Live != 0 {
				t.Errorf("alternative %v clobbers live set %v", g, w.Live)
			}
		}
	}
	if !sawMulti {
		t.Error("pool replicated twice but no word has multiple alternatives")
	}
}

// TestChainExecutesStandalone drives a compiled chain directly (no
// loader): frame prepared by hand, esp pivoted into the chain, exit
// pointer patched to a stack slot holding the sentinel continuation.
func TestChainExecutesStandalone(t *testing.T) {
	env, img := poolEnv(t)

	const (
		dataBase  = 0x08100000
		frameBase = 0x08100100
		chainBase = 0x08100800
		stackBase = 0x0B000000
	)
	env.GlobalAddr = func(name string) (uint32, bool) {
		if name == "scratch" {
			return dataBase, true
		}
		return 0, false
	}
	m := sampleModule(t)
	ch, err := CompileWith(m.Func("f"), env, frameBase, Options{})
	if err != nil {
		t.Fatal(err)
	}

	run := func(a, b uint32) (uint32, error) {
		cpu := emu.New()
		text := img.Text()
		seg, err := cpu.Mem.Map(".text", text.Addr, text.Size, image.PermR|image.PermX)
		if err != nil {
			t.Fatal(err)
		}
		copy(seg.Data, text.Data)
		if _, err := cpu.Mem.Map(".data", dataBase, 0x2000, image.PermR|image.PermW); err != nil {
			t.Fatal(err)
		}
		if _, err := cpu.Mem.Map("[stack]", stackBase, 0x1000, image.PermR|image.PermW); err != nil {
			t.Fatal(err)
		}
		// Install the chain and arguments.
		if err := cpu.Mem.Poke(chainBase, ch.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Mem.Store32(frameBase, a, 0); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Mem.Store32(frameBase+4, b, 0); err != nil {
			t.Fatal(err)
		}
		// Continuation: a stack slot holding the exit sentinel; the
		// chain's exit pointer is patched to its address (the loader's
		// job in a full binary).
		contSlot := uint32(stackBase + 0x800)
		if err := cpu.Mem.Store32(contSlot, emu.ExitSentinel, 0); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Mem.Store32(chainBase+uint32(4*ch.ExitPtrIndex), contSlot, 0); err != nil {
			t.Fatal(err)
		}
		// Pivot into the chain: esp at the first word, then "ret" by
		// setting EIP from it — emulate the loader's final ret.
		cpu.Reg[x86.ESP] = chainBase + 4
		first, err := cpu.Mem.Load32(chainBase, 0)
		if err != nil {
			t.Fatal(err)
		}
		cpu.EIP = first
		cpu.MaxInst = 1_000_000
		if err := cpu.Run(); err != nil {
			return 0, err
		}
		if !cpu.Exited {
			t.Fatal("chain did not reach the sentinel")
		}
		return cpu.Mem.Load32(ch.RetSlotAddr, 0)
	}

	for trial := 0; trial < 10; trial++ {
		a := uint32(trial * 977)
		b := uint32(trial*31 + 5)
		want, err := ir.NewInterp(m, nil).CallFunc("f", a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(a, b)
		if err != nil {
			t.Fatalf("chain run f(%d,%d): %v", a, b, err)
		}
		if got != want {
			t.Fatalf("chain f(%d,%d) = %#x, want %#x", a, b, got, want)
		}
	}
}
