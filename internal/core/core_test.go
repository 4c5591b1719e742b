package core

import (
	"strings"
	"testing"

	"parallax/internal/emu"
	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/ir"
	"parallax/internal/x86"
)

// buildMixModule returns a module with a chainable worker function
// ("mix": loops, shifts, multiplies, compares) called repeatedly from
// main.
func buildMixModule(t *testing.T) *ir.Module {
	t.Helper()
	mb := ir.NewModule("mixer")

	fb := mb.Func("mix", 2)
	a := fb.Param(0)
	b := fb.Param(1)
	h := fb.Xor(a, fb.Const(0x9E37))
	i := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	lim := fb.Const(8)
	c := fb.Cmp(ir.ULt, i, lim)
	fb.Br(c, "body", "done")
	fb.Block("body")
	k := fb.Const(31)
	fb.Assign(h, fb.Add(fb.Mul(h, k), b))
	seven := fb.Const(7)
	fb.Assign(h, fb.Xor(h, fb.Shr(h, seven)))
	one := fb.Const(1)
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp("head")
	fb.Block("done")
	mask := fb.Const(0x7FFFFFFF)
	fb.Ret(fb.And(h, mask))

	fb = mb.Func("main", 0)
	acc := fb.Const(0)
	j := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	lim2 := fb.Const(5)
	c2 := fb.Cmp(ir.ULt, j, lim2)
	fb.Br(c2, "body", "done")
	fb.Block("body")
	three := fb.Const(3)
	fb.Assign(acc, fb.Call("mix", acc, fb.Mul(j, three)))
	one2 := fb.Const(1)
	fb.Assign(j, fb.Add(j, one2))
	fb.Jmp("head")
	fb.Block("done")
	// Heavy inline work keeps mix's execution share under the §VII-B
	// 2% selection threshold.
	w := fb.Const(0)
	fb.Jmp("whead")
	fb.Block("whead")
	wlim := fb.Const(4000)
	wc := fb.Cmp(ir.ULt, w, wlim)
	fb.Br(wc, "wbody", "wdone")
	fb.Block("wbody")
	k13 := fb.Const(13)
	fb.Assign(acc, fb.Add(acc, fb.Xor(w, k13)))
	wone := fb.Const(1)
	fb.Assign(w, fb.Add(w, wone))
	fb.Jmp("whead")
	fb.Block("wdone")
	m127 := fb.Const(127)
	fb.Ret(fb.And(acc, m127))

	mb.SetEntry("main")
	return mb.MustBuild()
}

func runImg(t *testing.T, img *image.Image) (int32, error) {
	t.Helper()
	cpu, err := emu.RunImage(img, emu.NewOS(nil))
	if err != nil {
		return 0, err
	}
	return cpu.Status, nil
}

func TestProtectEndToEnd(t *testing.T) {
	m := buildMixModule(t)
	p, err := Protect(m, Options{VerifyFuncs: []string{"mix"}})
	if err != nil {
		t.Fatal(err)
	}

	wantStatus, err := runImg(t, p.Baseline)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	gotStatus, err := runImg(t, p.Image)
	if err != nil {
		t.Fatalf("protected run: %v", err)
	}
	if gotStatus != wantStatus {
		t.Fatalf("protected status = %d, baseline = %d", gotStatus, wantStatus)
	}

	ch := p.Chains["mix"]
	if ch == nil {
		t.Fatal("no chain for mix")
	}
	if len(ch.Gadgets()) < 5 {
		t.Errorf("chain uses only %d distinct gadgets", len(ch.Gadgets()))
	}
	t.Logf("chain: %d words, %d distinct gadgets, status=%d",
		len(ch.Words), len(ch.Gadgets()), gotStatus)
}

// TestProtectTamperDetection is the paper's central claim: modifying a
// gadget that the verification code uses makes the program malfunction.
func TestProtectTamperDetection(t *testing.T) {
	m := buildMixModule(t)
	p, err := Protect(m, Options{VerifyFuncs: []string{"mix"}})
	if err != nil {
		t.Fatal(err)
	}
	cleanStatus, err := runImg(t, p.Image)
	if err != nil {
		t.Fatal(err)
	}

	ch := p.Chains["mix"]
	// Tamper with every distinct gadget in turn; each must derail the
	// program (wrong result or fault).
	detected := 0
	for _, g := range ch.Gadgets() {
		tampered := p.Image.Clone()
		// Overwrite the gadget's first byte with int3 — the shape of a
		// software-breakpoint or hook patch.
		if err := tampered.WriteAt(g.Addr, []byte{0xCC}); err != nil {
			t.Fatal(err)
		}
		status, err := runImg(t, tampered)
		if err != nil || status != cleanStatus {
			detected++
		} else {
			t.Logf("tampering gadget %v went unnoticed", g)
		}
	}
	if detected != len(ch.Gadgets()) {
		t.Errorf("only %d/%d gadget tamperings caused a malfunction",
			detected, len(ch.Gadgets()))
	}
}

// TestProtectTamperIsSilentWithout verifies there are no false
// positives: an untampered protected binary runs identically every
// time.
func TestProtectDeterministic(t *testing.T) {
	m := buildMixModule(t)
	p, err := Protect(m, Options{VerifyFuncs: []string{"mix"}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := runImg(t, p.Image)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := runImg(t, p.Image)
		if err != nil || again != first {
			t.Fatalf("run %d: status=%d err=%v, want %d", i, again, err, first)
		}
	}
}

func TestProtectRejects(t *testing.T) {
	m := buildMixModule(t)
	t.Run("no verification functions", func(t *testing.T) {
		if _, err := Protect(m, Options{}); err == nil {
			t.Error("Protect succeeded without verification functions")
		}
	})
	t.Run("unknown function", func(t *testing.T) {
		if _, err := Protect(m, Options{VerifyFuncs: []string{"ghost"}}); err == nil {
			t.Error("Protect succeeded with unknown function")
		}
	})
	t.Run("entry function", func(t *testing.T) {
		_, err := Protect(m, Options{VerifyFuncs: []string{"main"}})
		if err == nil || !strings.Contains(err.Error(), "entry") {
			t.Errorf("err = %v, want entry rejection", err)
		}
	})
	t.Run("function with calls", func(t *testing.T) {
		mb := ir.NewModule("c")
		fb := mb.Func("leaf", 0)
		fb.Ret(fb.Const(1))
		fb = mb.Func("caller", 0)
		fb.Ret(fb.Call("leaf"))
		fb = mb.Func("main", 0)
		fb.Ret(fb.Call("caller"))
		mb.SetEntry("main")
		m2 := mb.MustBuild()
		_, err := Protect(m2, Options{VerifyFuncs: []string{"caller"}})
		if err == nil {
			t.Error("Protect accepted a calling function as verification code")
		}
	})
}

func TestAutoSelect(t *testing.T) {
	m := buildMixModule(t)
	name, err := SelectVerificationFunc(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if name != "mix" {
		t.Errorf("selected %q, want mix", name)
	}

	p, err := Protect(m, Options{AutoSelect: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.VerifyFuncs) != 1 || p.VerifyFuncs[0] != "mix" {
		t.Errorf("verify funcs = %v", p.VerifyFuncs)
	}
	want, err := runImg(t, p.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runImg(t, p.Image)
	if err != nil || got != want {
		t.Errorf("protected=%d (%v), baseline=%d", got, err, want)
	}
}

// TestProtectWithArgsAndMemory exercises a verification function that
// reads and writes global memory through its chain.
func TestProtectWithArgsAndMemory(t *testing.T) {
	mb := ir.NewModule("memmix")
	mb.GlobalZero("state", 64)

	fb := mb.Func("bump", 1)
	idx := fb.Param(0)
	four := fb.Const(4)
	base := fb.Addr("state", 0)
	p := fb.Add(base, fb.Mul(idx, four))
	v := fb.Load(p)
	one := fb.Const(1)
	nv := fb.Add(v, one)
	fb.Store(p, nv)
	fb.Ret(nv)

	fb = mb.Func("main", 0)
	i := fb.Const(0)
	last := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	lim := fb.Const(12)
	c := fb.Cmp(ir.ULt, i, lim)
	fb.Br(c, "body", "done")
	fb.Block("body")
	three := fb.Const(3)
	fb.Assign(last, fb.Call("bump", fb.Bin(ir.URem, i, three)))
	one2 := fb.Const(1)
	fb.Assign(i, fb.Add(i, one2))
	fb.Jmp("head")
	fb.Block("done")
	fb.Ret(last) // state[2] bumped 4 times → 4

	mb.SetEntry("main")
	m := mb.MustBuild()

	p2, err := Protect(m, Options{VerifyFuncs: []string{"bump"}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runImg(t, p2.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runImg(t, p2.Image)
	if err != nil {
		t.Fatalf("protected: %v", err)
	}
	if got != want || want != 4 {
		t.Errorf("status: protected=%d baseline=%d want 4", got, want)
	}
}

// TestChainRegistersPreserved checks the pushad/popad discipline: a
// caller's registers survive a chain call.
func TestChainRegistersPreserved(t *testing.T) {
	m := buildMixModule(t)
	p, err := Protect(m, Options{VerifyFuncs: []string{"mix"}})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := emu.LoadImage(p.Image)
	if err != nil {
		t.Fatal(err)
	}
	cpu.OS = emu.NewOS(nil)
	// Seed callee-visible registers before running; main's code only
	// relies on the calling convention, so this is a smoke check that
	// the chain machinery does not corrupt the emulated process state.
	cpu.Reg[x86.ESI] = 0x1337
	cpu.Reg[x86.EDI] = 0xBEEF
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPreferOverlapSpans holds the binary-searched overlap predicate to
// a linear walk over application-function spans, including nested,
// overlapping, adjacent and empty functions, pool symbols and the
// verification function's loader stub.
func TestPreferOverlapSpans(t *testing.T) {
	img := &image.Image{Symbols: []image.Symbol{
		{Name: "a", Addr: 0x100, Size: 0x40},
		{Name: "a_inner", Addr: 0x110, Size: 0x10},
		{Name: "b", Addr: 0x130, Size: 0x30},
		{Name: "c", Addr: 0x160, Size: 0x10},
		{Name: "empty", Addr: 0x180, Size: 0},
		{Name: "..parallax.pool", Addr: 0x190, Size: 0x20},
		{Name: "vfy", Addr: 0x1B0, Size: 0x20},
		{Name: "d", Addr: 0x1E0, Size: 0x8},
		{Name: "data", Addr: 0x1F0, Size: 0x8, Kind: image.SymObject},
	}}
	linear := func(a uint32) bool {
		for _, s := range img.Funcs() {
			if !strings.HasPrefix(s.Name, "..") && s.Name != "vfy" && a >= s.Addr && a < s.Addr+s.Size {
				return true
			}
		}
		return false
	}
	prefer := preferOverlap(img, []string{"vfy"})
	for a := uint32(0xF0); a < 0x200; a++ {
		if got, want := prefer(&gadget.Gadget{Addr: a}), linear(a); got != want {
			t.Errorf("preferOverlap(%#x) = %t, want %t", a, got, want)
		}
	}
}
