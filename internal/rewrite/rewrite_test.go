package rewrite

import (
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/emu"
	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/ir"
	"parallax/internal/x86"
)

// testModule builds a module with plenty of immediates, branches and
// calls — raw material for every rewriting rule.
func testModule(t *testing.T) *ir.Module {
	t.Helper()
	mb := ir.NewModule("rw")
	mb.GlobalZero("buf", 128)

	fb := mb.Func("helper", 1)
	x := fb.Param(0)
	k := fb.Const(0x1234567)
	fb.Ret(fb.Xor(x, k))

	fb = mb.Func("work", 1)
	n := fb.Param(0)
	acc := fb.Const(0x1111)
	i := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	c := fb.Cmp(ir.ULt, i, n)
	fb.Br(c, "body", "done")
	fb.Block("body")
	t3 := fb.Const(0x333)
	fb.Assign(acc, fb.Add(fb.Mul(acc, t3), fb.Call("helper", i)))
	one := fb.Const(1)
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp("head")
	fb.Block("done")
	fb.Ret(acc)

	fb = mb.Func("main", 0)
	arg := fb.Const(9)
	v := fb.Call("work", arg)
	mask := fb.Const(0xFFFF)
	fb.Ret(fb.And(v, mask))
	mb.SetEntry("main")
	return mb.MustBuild()
}

func runStatus(t *testing.T, img *image.Image) int32 {
	t.Helper()
	cpu, err := emu.RunImage(img, emu.NewOS(nil))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return cpu.Status
}

func TestMeasureReportsAllRules(t *testing.T) {
	m := testModule(t)
	img, err := codegen.Build(m, image.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Measure(img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TextBytes == 0 {
		t.Fatal("no text bytes")
	}
	if rep.Rules[RuleImmMod].Bytes == 0 {
		t.Error("imm-mod rule found nothing despite immediate-rich code")
	}
	if rep.Rules[RuleJumpMod].Bytes == 0 {
		t.Error("jump-mod rule found nothing despite branches and calls")
	}
	if rep.AnyBytes < rep.Rules[RuleImmMod].Bytes {
		t.Error("union coverage below a single rule's coverage")
	}
	if rep.AnyBytes > rep.TextBytes {
		t.Error("union coverage exceeds text size")
	}
	t.Logf("coverage: existing=%.1f%% far=%.1f%% imm=%.1f%% jump=%.1f%% any=%.1f%%",
		rep.Percent(RuleExisting), rep.Percent(RuleFarRet),
		rep.Percent(RuleImmMod), rep.Percent(RuleJumpMod), rep.AnyPercent())
}

// TestSplitPreservesSemantics applies the splitting rule and checks
// the program's observable behaviour is unchanged, while the gadget
// inventory grows.
func TestSplitPreservesSemantics(t *testing.T) {
	m := testModule(t)
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	before, err := image.Link(obj.Clone(), image.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SplitImmediates(obj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites < 5 {
		t.Errorf("only %d split sites", res.Sites)
	}
	after, err := image.Link(obj, image.Layout{})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := runStatus(t, after), runStatus(t, before); got != want {
		t.Fatalf("split changed behaviour: %d != %d", got, want)
	}

	gBefore := len(gadget.Scan(before, gadget.ScanConfig{}).Gadgets)
	gAfter := len(gadget.Scan(after, gadget.ScanConfig{}).Gadgets)
	if gAfter <= gBefore {
		t.Errorf("gadget count did not grow: %d -> %d", gBefore, gAfter)
	}
	t.Logf("split %d sites, gadgets %d -> %d", res.Sites, gBefore, gAfter)
}

// TestSplitCraftsUsableKinds verifies the crafted gadgets include the
// canonical chain basis.
func TestSplitCraftsUsableKinds(t *testing.T) {
	m := testModule(t)
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SplitImmediates(obj, nil); err != nil {
		t.Fatal(err)
	}
	img, err := image.Link(obj, image.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	cat := gadget.Scan(img, gadget.ScanConfig{})
	for _, k := range []gadget.Kind{gadget.KindPopReg, gadget.KindAddReg, gadget.KindStore} {
		if len(cat.Find(k, x86.NumRegs, x86.NumRegs)) == 0 {
			t.Errorf("no usable %v gadget crafted", k)
		}
	}
}

func TestSplitSelectsFunctions(t *testing.T) {
	m := testModule(t)
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SplitImmediates(obj, []string{"helper"})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerFunc["work"] != 0 || res.PerFunc["helper"] == 0 {
		t.Errorf("per-func sites: %v", res.PerFunc)
	}
}

// TestAlignCreatesDisplacementGadget reproduces the paper's Listing 1
// trick: pad a callee until a call displacement byte becomes a ret.
func TestAlignCreatesDisplacementGadget(t *testing.T) {
	m := testModule(t)
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AlignForGadget(obj, "helper", image.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	text := res.Image.Text()
	if text.Data[res.RetAddr-text.Addr] != 0xC3 {
		t.Fatalf("no 0xC3 at crafted address %#x", res.RetAddr)
	}
	// Behaviour must be unchanged by pure re-alignment.
	plain, err := image.Link(obj, image.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runStatus(t, res.Image), runStatus(t, plain); got != want {
		t.Fatalf("alignment changed behaviour: %d != %d", got, want)
	}
	t.Logf("aligned %s with pad %d; ret byte inside call at %#x",
		res.Target, res.Pad, res.SiteAddr)
}

// TestSpuriousInsertion checks guarded gadget insertion preserves
// behaviour and lands scanner-visible gadgets.
func TestSpuriousInsertion(t *testing.T) {
	m := testModule(t)
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	before, err := image.Link(obj.Clone(), image.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := InsertSpurious(obj, "work", DefaultSpuriousGadgets(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing inserted")
	}
	after, err := image.Link(obj, image.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runStatus(t, after), runStatus(t, before); got != want {
		t.Fatalf("spurious insertion changed behaviour: %d != %d", got, want)
	}
	gBefore := len(gadget.Scan(before, gadget.ScanConfig{}).Gadgets)
	gAfter := len(gadget.Scan(after, gadget.ScanConfig{}).Gadgets)
	if gAfter <= gBefore {
		t.Errorf("gadget count did not grow: %d -> %d", gBefore, gAfter)
	}
}

func TestSpuriousErrors(t *testing.T) {
	m := testModule(t)
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InsertSpurious(obj, "ghost", DefaultSpuriousGadgets(), 4); err == nil {
		t.Error("InsertSpurious accepted unknown function")
	}
	if _, err := InsertSpurious(obj, "work", nil, 4); err == nil {
		t.Error("InsertSpurious accepted empty gadget list")
	}
}

// TestFreeStatusImmediates exercises the no-compensation §IV-B2
// variant on a hand-built "exit status" function.
func TestFreeStatusImmediates(t *testing.T) {
	obj := &image.Object{Entry: "main"}
	status := &image.Func{Name: "status", Items: []image.Item{
		image.InstItem(x86.Inst{Op: x86.PUSH, W: 32, Dst: x86.RegOp(x86.EBP)}),
		image.InstItem(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EBP),
			Src: x86.RegOp(x86.ESP)}),
		image.InstItem(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX),
			Src: x86.ImmOp(1)}), // success status: only zero/non-zero matters
		image.InstItem(x86.Inst{Op: x86.LEAVE, W: 32}),
		image.InstItem(x86.Inst{Op: x86.RET, W: 32}),
	}}
	main := &image.Func{Name: "main", Items: []image.Item{
		{Inst: x86.Inst{Op: x86.CALL, W: 32},
			Ref: image.Ref{Slot: image.RefTarget, Sym: "status"}},
		image.InstItem(x86.Inst{Op: x86.RET, W: 32}),
	}}
	if err := obj.AddFunc(main); err != nil {
		t.Fatal(err)
	}
	if err := obj.AddFunc(status); err != nil {
		t.Fatal(err)
	}

	res, err := FreeStatusImmediates(obj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites != 1 {
		t.Fatalf("sites = %d, want 1", res.Sites)
	}

	img, err := image.Link(obj, image.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	// Zero/non-zero contract preserved: program exits non-zero.
	if got := runStatus(t, img); got == 0 {
		t.Error("status became zero; contract broken")
	}
	// A gadget materialized inside the immediate.
	sym := img.MustSymbol("status")
	cat := gadget.Scan(img, gadget.ScanConfig{})
	found := false
	for _, g := range cat.Gadgets {
		if g.Addr > sym.Addr && g.Addr < sym.Addr+sym.Size && g.Usable() {
			found = true
		}
	}
	if !found {
		t.Error("no usable gadget crafted inside the status immediate")
	}
}
