package chain

import (
	"testing"

	"parallax/internal/image"
)

// TestPoolBytesBoundaries walks the linked pool byte-by-byte: it must
// open with the fall-through guard ret, every replicated gadget must
// sit at the exact offset the size arithmetic predicts, and each must
// end with a near ret — the invariant that makes every pool entry a
// scannable gadget.
func TestPoolBytesBoundaries(t *testing.T) {
	const copies = 2
	obj := &image.Object{}
	if err := AddPool(obj, copies); err != nil {
		t.Fatal(err)
	}
	img, err := image.Link(obj, image.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := img.Lookup(PoolFuncName)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := img.ReadAt(sym.Addr, sym.Size)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0xC3 {
		t.Fatalf("pool does not open with a guard ret: % x", raw[:4])
	}
	off := 1
	for c := 0; c < copies; c++ {
		for i, g := range poolGadgets {
			end := off + len(g)
			if end > len(raw) {
				t.Fatalf("copy %d gadget %d overruns pool: offset %d + %d > %d",
					c, i, off, len(g), len(raw))
			}
			for j, b := range g {
				if raw[off+j] != b {
					t.Fatalf("copy %d gadget %d: byte %d = %#x, want %#x",
						c, i, j, raw[off+j], b)
				}
			}
			if raw[end-1] != 0xC3 {
				t.Fatalf("copy %d gadget %d does not end in ret", c, i)
			}
			off = end
		}
	}
	if off != len(raw) {
		t.Errorf("pool has %d trailing bytes after last gadget", len(raw)-off)
	}
}

// TestLoaderFrameBoundary pins the loader's frame validation at its
// boundary: a frame of exactly NumParams+1 words (args + return slot)
// is the minimum accepted, one fewer is rejected.
func TestLoaderFrameBoundary(t *testing.T) {
	cases := []struct {
		name       string
		params     int
		frameWords int
		ok         bool
	}{
		{"no params, return slot only", 0, 1, true},
		{"no params, empty frame", 0, 0, false},
		{"two params, minimum frame", 2, 3, true},
		{"two params, one word short", 2, 2, false},
		{"negative frame", 0, -1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Loader(LoaderConfig{
				FuncName:   "verif",
				NumParams:  tc.params,
				FrameWords: tc.frameWords,
			})
			if (err == nil) != tc.ok {
				t.Errorf("Loader(params=%d, frame=%d) err=%v, want ok=%t",
					tc.params, tc.frameWords, err, tc.ok)
			}
		})
	}
}

// TestLoaderExitPtrIndexZero checks the degenerate exit-pointer slot:
// index 0 must patch the chain's first word (displacement 0), not
// fall over on the boundary.
func TestLoaderExitPtrIndexZero(t *testing.T) {
	fn, err := Loader(LoaderConfig{
		FuncName:     "verif",
		FrameWords:   1,
		ExitPtrIndex: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range fn.Items {
		if it.Ref.Sym == ChainSym("verif") && it.Ref.Slot == image.RefDisp {
			found = true
			if it.Ref.Add != 0 {
				t.Errorf("exit-ptr displacement = %d, want 0", it.Ref.Add)
			}
		}
	}
	if !found {
		t.Error("loader has no exit-ptr store into the chain symbol")
	}
}

// TestReserveDataSizes covers reservation edge cases: a zero-byte
// chain (valid placeholder before compilation), resizing an existing
// reservation, and the frame always holding FrameWords dwords.
func TestReserveDataSizes(t *testing.T) {
	obj := &image.Object{}
	if err := ReserveData(obj, "f", 0, 1); err != nil {
		t.Fatalf("zero-byte chain reservation: %v", err)
	}
	if err := ReserveData(obj, "f", 4096, 17); err != nil {
		t.Fatalf("resize: %v", err)
	}
	var chainLen, frameLen int = -1, -1
	for _, d := range obj.Data {
		switch d.Name {
		case ChainSym("f"):
			chainLen = len(d.Bytes)
		case FrameSym("f"):
			frameLen = len(d.Bytes)
		}
	}
	if chainLen != 4096 {
		t.Errorf("chain reservation = %d bytes, want 4096", chainLen)
	}
	if frameLen != 4*17 {
		t.Errorf("frame reservation = %d bytes, want %d", frameLen, 4*17)
	}
}
