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

// naiveConfigs are the scanner configurations held to the oracle:
// the defaults, far returns skipped, and instruction and byte limits
// on both sides of the defaults, including MaxBytes past 255.
var naiveConfigs = []gadget.ScanConfig{
	{}, {SkipFar: true},
	{MaxInsts: 1}, {MaxInsts: 2}, {MaxInsts: 10},
	{MaxBytes: 1}, {MaxBytes: 5}, {MaxBytes: 40}, {MaxBytes: 300},
	{MaxInsts: 10, MaxBytes: 300, SkipFar: true},
}

// textImage wraps code as a lone executable section at addr.
func textImage(addr uint32, code []byte) *image.Image {
	return &image.Image{Sections: []*image.Section{
		{Name: ".text", Addr: addr, Data: code, Size: uint32(len(code)), Perm: image.PermR | image.PermX},
	}}
}

// checkNaive holds a full scan of code to the naive oracle, and so
// does a rescan of an edit touching both ends of the section: one
// dirty span starts at the first byte and another ends at the last.
func checkNaive(t *testing.T, name string, r *rand.Rand, addr uint32, code []byte, cfg gadget.ScanConfig) {
	t.Helper()
	same := func(what string, got, want []*gadget.Gadget) {
		t.Helper()
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %+v: %s differs from the naive scan (%d vs %d gadgets)",
				name, cfg, what, len(got), len(want))
		}
	}
	want := gadget.NaiveScan(code, addr, cfg)
	same("ScanBytes", gadget.ScanBytes(code, addr, cfg), want)
	img := textImage(addr, code)
	prev := gadget.Scan(img, cfg)
	same("Scan", prev.Gadgets, want)
	if len(code) == 0 {
		return
	}
	c := append([]byte(nil), code...)
	c[0] ^= byte(1 + r.Intn(255))
	c[len(c)-1] ^= byte(1 + r.Intn(255))
	same("Rescan", gadget.Rescan(textImage(addr, c), cfg, img, prev).Gadgets, gadget.NaiveScan(c, addr, cfg))
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
		img, err := codegen.Build(p.Build(), image.Layout{})
		if err != nil {
			t.Fatal(err)
		}
		text := img.Text()
		secs = append(secs, section{p.Name, text.Addr, text.Data})
	}
	for _, s := range secs {
		cfgs := naiveConfigs
		if len(s.code) > 1<<16 {
			cfgs = cfgs[:2] // the naive scan is slow; the defaults suffice
		}
		for _, cfg := range cfgs {
			checkNaive(t, s.name, r, s.addr, s.code, cfg)
		}
	}
}
