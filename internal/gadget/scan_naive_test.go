package gadget_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/gadget"
	"parallax/internal/image"
)

// textImage wraps code as a lone executable section at addr.
func textImage(addr uint32, code []byte) *image.Image {
	return &image.Image{Sections: []*image.Section{
		{Name: ".text", Addr: addr, Data: code, Size: uint32(len(code)), Perm: image.PermR | image.PermX},
	}}
}

// checkNaive holds a full scan of code to the naive oracle, and so
// does a rescan of an edit touching both ends of the section: one
// dirty span starts at the first byte and another ends at the last.
func checkNaive(t *testing.T, name string, r *rand.Rand, addr uint32, code []byte) {
	t.Helper()
	same := func(what string, got, want []*gadget.Gadget) {
		t.Helper()
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s differs from the naive scan (%d vs %d gadgets)",
				name, what, len(got), len(want))
		}
	}
	want := gadget.NaiveScan(code, addr)
	same("ScanBytes", gadget.ScanBytes(code, addr), want)
	img := textImage(addr, code)
	prev := gadget.Scan(img)
	same("Scan", prev.Gadgets, want)
	if len(code) == 0 {
		return
	}
	c := append([]byte(nil), code...)
	c[0] ^= byte(1 + r.Intn(255))
	c[len(c)-1] ^= byte(1 + r.Intn(255))
	same("Rescan", gadget.Rescan(textImage(addr, c), img, prev).Gadgets, gadget.NaiveScan(c, addr))
}

// TestScanMatchesNaive: the decode-once scanner finds exactly the
// gadgets of the naive per-offset scan, Aligned bits included, on
// random bytes, gadget-rich bytes and the text sections of the
// hand-written corpus and small generated programs.
func TestScanMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	type section struct {
		name string
		addr uint32
		code []byte
	}
	secs := []section{
		{"empty", 0x1000, nil},
		{"one-byte ret", 0x1000, []byte{0xC3}},
		{"one-byte nop", 0x1000, []byte{0x90}},
		{"retf pair", 0x1000, []byte{0xCB, 0x58, 0xCB}},
	}
	for i := 0; i < 24; i++ {
		code := make([]byte, 1+r.Intn(512))
		r.Read(code)
		secs = append(secs, section{fmt.Sprintf("random-%d", i), 0x1000, code})
		secs = append(secs, section{fmt.Sprintf("rich-%d", i), 0x401000, gadget.GadgetRichCode(r, 1+r.Intn(1024))})
	}
	progs := corpus.All()
	for _, fam := range []string{"tiny", "small"} {
		f, err := gen.FamilyByName(fam)
		if err != nil {
			t.Fatal(err)
		}
		p, err := gen.FamilyProgram(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		img, err := codegen.Build(p.Build())
		if err != nil {
			t.Fatal(err)
		}
		text := img.Text()
		secs = append(secs, section{p.Name, text.Addr, text.Data})
	}
	for _, s := range secs {
		checkNaive(t, s.name, r, s.addr, s.code)
	}
}
