package chain

import (
	"strings"
	"testing"

	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/x86"
)

func poolCatalog(t *testing.T, copies int) *gadget.Catalog {
	t.Helper()
	obj := &image.Object{}
	if err := AddPool(obj, copies); err != nil {
		t.Fatal(err)
	}
	img, err := image.Link(obj, image.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	return gadget.Scan(img, gadget.ScanConfig{})
}

// TestPoolProvidesCanonicalBasis verifies the fallback pool contains a
// usable gadget for every spec the ROP compiler can request.
func TestPoolProvidesCanonicalBasis(t *testing.T) {
	cat := poolCatalog(t, 1)
	any := x86.Reg(x86.NumRegs)
	required := []struct {
		kind     gadget.Kind
		dst, src x86.Reg
	}{
		{gadget.KindPopReg, x86.EAX, any},
		{gadget.KindPopReg, x86.EBX, any},
		{gadget.KindPopReg, x86.ECX, any},
		{gadget.KindMovReg, x86.ECX, x86.EAX},
		{gadget.KindMovReg, x86.EBX, x86.ECX},
		{gadget.KindMovReg, x86.EBX, x86.EAX},
		{gadget.KindMovReg, x86.EAX, x86.ECX},
		{gadget.KindMovReg, x86.EAX, x86.EDX},
		{gadget.KindLoad, x86.EAX, x86.EBX},
		{gadget.KindStore, x86.EBX, x86.EAX},
		{gadget.KindAddReg, x86.EAX, x86.EBX},
		{gadget.KindSubReg, x86.EAX, x86.EBX},
		{gadget.KindAndReg, x86.EAX, x86.EBX},
		{gadget.KindOrReg, x86.EAX, x86.EBX},
		{gadget.KindXorReg, x86.EAX, x86.EBX},
		{gadget.KindNegReg, x86.EAX, any},
		{gadget.KindNotReg, x86.EAX, any},
		{gadget.KindMulReg, x86.EAX, x86.EBX},
		{gadget.KindShlCL, x86.EAX, any},
		{gadget.KindShrCL, x86.EAX, any},
		{gadget.KindSarCL, x86.EAX, any},
		{gadget.KindUDivMod, any, x86.EBX},
		{gadget.KindSDivMod, any, x86.EBX},
		{gadget.KindAddEsp, any, x86.EAX},
		{gadget.KindPopEsp, any, any},
	}
	for _, req := range required {
		found := cat.Find(req.kind, req.dst, req.src)
		if len(found) == 0 {
			t.Errorf("pool lacks %v(%v,%v)", req.kind, req.dst, req.src)
		}
	}
}

// TestPoolReplicationWidensClasses checks a doubled pool doubles the
// interchangeable-gadget classes probabilistic generation draws from.
func TestPoolReplicationWidensClasses(t *testing.T) {
	one := poolCatalog(t, 1)
	two := poolCatalog(t, 2)
	popsOne := len(one.Find(gadget.KindPopReg, x86.EAX, x86.NumRegs))
	popsTwo := len(two.Find(gadget.KindPopReg, x86.EAX, x86.NumRegs))
	if popsTwo < 2*popsOne {
		t.Errorf("replication did not widen: %d -> %d", popsOne, popsTwo)
	}
}

func TestAddPoolRejectsDuplicate(t *testing.T) {
	obj := &image.Object{}
	if err := AddPool(obj, 1); err != nil {
		t.Fatal(err)
	}
	if err := AddPool(obj, 1); err == nil {
		t.Error("second AddPool succeeded")
	}
}

// TestLoaderStructure decodes the generated loader stub and checks the
// §V-A sequence: pushad, arg copies, push resume, exit-ptr patch,
// pivot, ret, then popad and the return-value load at the resume
// point.
func TestLoaderStructure(t *testing.T) {
	fn, err := Loader(LoaderConfig{
		FuncName:     "verif",
		NumParams:    2,
		FrameWords:   10,
		ExitPtrIndex: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := &image.Object{Entry: "verif"}
	if err := obj.AddFunc(fn); err != nil {
		t.Fatal(err)
	}
	if err := ReserveData(obj, "verif", 4*50, 10); err != nil {
		t.Fatal(err)
	}
	img, err := image.Link(obj, image.Layout{})
	if err != nil {
		t.Fatal(err)
	}

	sym := img.MustSymbol("verif")
	text := img.Text()
	code := text.Data[sym.Addr-text.Addr : sym.Addr+sym.Size-text.Addr]
	insts := x86.Disassemble(code, sym.Addr)

	if insts[0].Op != x86.PUSHAD {
		t.Errorf("loader starts with %v, want pushad", insts[0])
	}
	var sawPivot, sawPopad, sawPushResume, sawExitPatch bool
	chainSym := img.MustSymbol(ChainSym("verif"))
	frameSym := img.MustSymbol(FrameSym("verif"))
	for _, in := range insts {
		if in.Op == x86.MOV && in.Dst.IsReg(x86.ESP) && in.Src.Kind == x86.KImm &&
			uint32(in.Src.Imm) == chainSym.Addr {
			sawPivot = true
		}
		if in.Op == x86.POPAD {
			sawPopad = true
		}
		if in.Op == x86.PUSH && in.Dst.Kind == x86.KImm &&
			uint32(in.Dst.Imm) > sym.Addr && uint32(in.Dst.Imm) < sym.Addr+sym.Size {
			sawPushResume = true
		}
		if in.Op == x86.MOV && in.Dst.Kind == x86.KMem &&
			uint32(in.Dst.Disp) == chainSym.Addr+4*42 && in.Src.IsReg(x86.ESP) {
			sawExitPatch = true
		}
	}
	if !sawPivot || !sawPopad || !sawPushResume || !sawExitPatch {
		t.Errorf("loader missing pieces: pivot=%t popad=%t resume=%t exitpatch=%t",
			sawPivot, sawPopad, sawPushResume, sawExitPatch)
	}
	// Frame and chain buffers sized as requested.
	if frameSym.Size != 40 {
		t.Errorf("frame size %d, want 40", frameSym.Size)
	}
	if chainSym.Size != 200 {
		t.Errorf("chain size %d, want 200", chainSym.Size)
	}
}

func TestLoaderWithDecoder(t *testing.T) {
	fn, err := Loader(LoaderConfig{
		FuncName:   "verif",
		FrameWords: 4,
		Decoder:    "dec",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first reference must be a call to the decoder, before the
	// pivot.
	foundCall := false
	for _, it := range fn.Items {
		if it.Ref.Slot == image.RefTarget && it.Ref.Sym == "dec" {
			foundCall = true
			break
		}
		if it.Inst.Op == x86.RET {
			break
		}
	}
	if !foundCall {
		t.Error("decoder call missing or after the pivot")
	}
}

func TestLoaderErrors(t *testing.T) {
	if _, err := Loader(LoaderConfig{FrameWords: 4}); err == nil {
		t.Error("Loader accepted empty function name")
	}
	if _, err := Loader(LoaderConfig{FuncName: "f", NumParams: 5, FrameWords: 3}); err == nil {
		t.Error("Loader accepted frame smaller than params")
	}
}

func TestReserveDataReplaces(t *testing.T) {
	obj := &image.Object{}
	obj.Funcs = append(obj.Funcs, &image.Func{Name: "f",
		Items: []image.Item{image.InstItem(x86.Inst{Op: x86.RET, W: 32})}})
	if err := ReserveData(obj, "f", 8, 4); err != nil {
		t.Fatal(err)
	}
	if err := ReserveData(obj, "f", 16, 4); err != nil {
		t.Fatal(err)
	}
	d := obj.DataSym(ChainSym("f"))
	if d == nil || len(d.Bytes) != 16 {
		t.Fatalf("chain buffer not resized: %+v", d)
	}
}

func TestSymbolNames(t *testing.T) {
	if !strings.HasPrefix(ChainSym("x"), "..parallax.") ||
		!strings.HasPrefix(FrameSym("x"), "..parallax.") {
		t.Error("parallax-internal symbols must carry the .. prefix")
	}
}
