package checksum

import (
	"context"
	"testing"

	"parallax/internal/attack"
	"parallax/internal/emu"
	"parallax/internal/ir"
)

// licenseModule: main computes a check over a built-in "key" and
// returns 7 on success, 13 on failure. The je guarding the result is
// the cracker's target.
func licenseModule(t *testing.T) *ir.Module {
	t.Helper()
	mb := ir.NewModule("license")
	mb.Global("key", []byte{0x21, 0x43, 0x65, 0x87})

	fb := mb.Func("validate", 0)
	k := fb.Load(fb.Addr("key", 0))
	magic := fb.Const(int32(0x87654321 - (1 << 32)))
	ok := fb.Cmp(ir.Eq, k, magic)
	fb.Br(ok, "good", "bad")
	fb.Block("good")
	fb.Ret(fb.Const(1))
	fb.Block("bad")
	fb.Ret(fb.Const(0))

	fb = mb.Func("main", 0)
	r := fb.Call("validate")
	zero := fb.Const(0)
	c := fb.Cmp(ir.Ne, r, zero)
	fb.Br(c, "licensed", "refused")
	fb.Block("licensed")
	fb.Ret(fb.Const(7))
	fb.Block("refused")
	fb.Ret(fb.Const(13))
	mb.SetEntry("main")
	return mb.MustBuild()
}

func TestChecksumCleanRun(t *testing.T) {
	m := licenseModule(t)
	p, err := Protect(m)
	if err != nil {
		t.Fatal(err)
	}
	want := attack.Run(context.Background(), p.Baseline, nil)
	got := attack.Run(context.Background(), p.Image, nil)
	if want.Err != nil || got.Err != nil {
		t.Fatalf("errors: baseline=%v protected=%v", want.Err, got.Err)
	}
	if got.Status != want.Status {
		t.Fatalf("status: protected=%d baseline=%d", got.Status, want.Status)
	}
}

func TestChecksumDetectsStaticPatch(t *testing.T) {
	m := licenseModule(t)
	p, err := Protect(m)
	if err != nil {
		t.Fatal(err)
	}
	// Crack: nop out four bytes at the start of validate (static
	// patching, as in software cracking).
	sym := p.Image.MustSymbol("validate")
	tampered := p.Image.Clone()
	if err := attack.NopOut(tampered, sym.Addr, 4); err != nil {
		t.Fatal(err)
	}
	res := attack.Run(context.Background(), tampered, nil)
	if res.Status != TamperStatus {
		t.Fatalf("status = %d (err=%v), want tamper response %d",
			res.Status, res.Err, TamperStatus)
	}
}

func TestChecksumCrossVerification(t *testing.T) {
	m := licenseModule(t)
	p, err := Protect(m)
	if err != nil {
		t.Fatal(err)
	}
	// Patch inside a checker's own code: some other checker's region
	// must cover it and trip.
	sym := p.Image.MustSymbol("..cs.check2")
	tampered := p.Image.Clone()
	orig, err := tampered.ReadAt(sym.Addr+8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := attack.PatchBytes(tampered, sym.Addr+8, []byte{orig[0] ^ 0xFF}); err != nil {
		t.Fatal(err)
	}
	res := attack.Run(context.Background(), tampered, nil)
	clean := attack.Run(context.Background(), p.Image, nil)
	// The checker's bytes are covered by the network: the tampered
	// binary must either trip the explicit response or malfunction
	// before producing the clean result (the patched checker may crash
	// first — also a tamper consequence).
	if res.Same(clean) {
		t.Fatalf("patching a checker went unnoticed: status=%d err=%v", res.Status, res.Err)
	}
}

// TestWursterDefeatsChecksumming is the Wurster et al. result: with the
// split-cache view, the patched code executes while every checksum
// still sees pristine bytes — the cracked binary runs as if untouched.
func TestWursterDefeatsChecksumming(t *testing.T) {
	m := licenseModule(t)
	p, err := Protect(m)
	if err != nil {
		t.Fatal(err)
	}

	// The target: make validate return 1 unconditionally. Overlay its
	// body with "mov eax,1; leave; ret" — wait for the prologue to set
	// up, then the overlaid body runs. Simplest robust patch: overlay
	// the whole function with mov eax,1; ret.
	sym := p.Image.MustSymbol("validate")
	patch := []byte{0xB8, 0x01, 0x00, 0x00, 0x00, 0xC3} // mov eax,1; ret

	// First confirm the static version of this patch IS detected.
	static := p.Image.Clone()
	if err := attack.PatchBytes(static, sym.Addr, patch); err != nil {
		t.Fatal(err)
	}
	if res := attack.Run(context.Background(), static, nil); res.Status != TamperStatus {
		t.Fatalf("static patch undetected: %d", res.Status)
	}

	// Now the same patch through the split-cache view.
	cpu, err := emu.LoadImage(p.Image)
	if err != nil {
		t.Fatal(err)
	}
	cpu.OS = emu.NewOS(nil)
	attack.Wurster(cpu, sym.Addr, patch)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if cpu.Status == TamperStatus {
		t.Fatal("checksumming detected the Wurster attack; the split view is broken")
	}
	if cpu.Status != 7 {
		t.Fatalf("status = %d, want the cracked 'licensed' result 7", cpu.Status)
	}
}

func TestHashKnownAnswer(t *testing.T) {
	// FNV-1a reference values.
	if got := Hash(nil); got != 2166136261 {
		t.Errorf("Hash(nil) = %d", got)
	}
	if got := Hash([]byte("a")); got != 0xE40C292C {
		t.Errorf("Hash(a) = %#x, want 0xE40C292C", got)
	}
	if got := Hash([]byte("foobar")); got != 0xBF9CF968 {
		t.Errorf("Hash(foobar) = %#x, want 0xBF9CF968", got)
	}
}
