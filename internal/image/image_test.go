package image

import (
	"bytes"
	"strings"
	"testing"

	"parallax/internal/x86"
)

// linkSimple builds a two-function object with data references and
// links it.
func linkSimple(t *testing.T) (*Image, *Object) {
	t.Helper()
	obj := &Object{Entry: "main"}

	leaf := &Func{Name: "leaf"}
	leaf.Items = append(leaf.Items,
		Item{Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(0)},
			Ref: Ref{Slot: RefImm, Sym: "counter"}},
		Item{Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX),
			Src: x86.MemOp(x86.EAX, 0)}},
		InstItem(x86.Inst{Op: x86.RET, W: 32}),
	)

	main := &Func{Name: "main"}
	main.Items = append(main.Items,
		Item{Label: "top",
			Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(0), Src: x86.RegOp(x86.EAX)},
			Ref:  Ref{Slot: RefDisp, Sym: "counter", Add: 4}},
		Item{Inst: x86.Inst{Op: x86.CALL, W: 32}, Ref: Ref{Slot: RefTarget, Sym: "leaf"}},
		Item{Inst: x86.Inst{Op: x86.JCC, W: 32, Cond: x86.CondNE},
			Ref: Ref{Slot: RefTarget, Sym: "top"}},
		RawItem(0x90, 0x90),
		InstItem(x86.Inst{Op: x86.RET, W: 32}),
	)

	if err := obj.AddFunc(main); err != nil {
		t.Fatal(err)
	}
	if err := obj.AddFunc(leaf); err != nil {
		t.Fatal(err)
	}
	if err := obj.AddData(&DataSym{Name: "counter", Bytes: []byte{1, 0, 0, 0, 2, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := obj.AddData(&DataSym{Name: "table", Bytes: make([]byte, 8),
		Words: []WordRef{{Off: 0, Sym: "leaf"}, {Off: 4, Sym: "counter", Add: 4}}}); err != nil {
		t.Fatal(err)
	}
	if err := obj.AddData(&DataSym{Name: "ro", Bytes: []byte("hi"), ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	if err := obj.AddData(&DataSym{Name: "zeros", Size: 64}); err != nil {
		t.Fatal(err)
	}

	img, err := Link(obj)
	if err != nil {
		t.Fatal(err)
	}
	return img, obj
}

func TestLinkLayoutAndSymbols(t *testing.T) {
	img, _ := linkSimple(t)

	text := img.Text()
	if text == nil || text.Perm != PermR|PermX {
		t.Fatalf("bad text section: %+v", text)
	}
	mainSym := img.MustSymbol("main")
	if img.Entry != mainSym.Addr {
		t.Errorf("entry %#x != main %#x", img.Entry, mainSym.Addr)
	}
	leafSym := img.MustSymbol("leaf")
	if leafSym.Addr%16 != 0 || mainSym.Addr%16 != 0 {
		t.Errorf("functions not 16-aligned: %#x %#x", mainSym.Addr, leafSym.Addr)
	}

	// Sections must not overlap and must carry W^X permissions.
	for _, s := range img.Sections {
		if s.Perm&PermW != 0 && s.Perm&PermX != 0 {
			t.Errorf("section %s is both writable and executable", s.Name)
		}
	}
	ro := img.Section(".rodata")
	if ro == nil || ro.Perm != PermR {
		t.Errorf("rodata: %+v", ro)
	}
	bss := img.Section(".bss")
	if bss == nil || bss.Size < 64 {
		t.Errorf("bss: %+v", bss)
	}
}

func TestLinkRelocationsResolve(t *testing.T) {
	img, _ := linkSimple(t)
	text := img.Text()
	counter := img.MustSymbol("counter")
	leaf := img.MustSymbol("leaf")
	main := img.MustSymbol("main")

	// leaf's first instruction loads &counter.
	inst, err := x86.Decode(text.Data[leaf.Addr-text.Addr:], leaf.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(inst.Src.Imm) != counter.Addr {
		t.Errorf("leaf imm = %#x, want &counter %#x", uint32(inst.Src.Imm), counter.Addr)
	}

	// main's first instruction stores to counter+4.
	inst, err = x86.Decode(text.Data[main.Addr-text.Addr:], main.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(inst.Dst.Disp) != counter.Addr+4 {
		t.Errorf("main disp = %#x, want %#x", uint32(inst.Dst.Disp), counter.Addr+4)
	}

	// The call must target leaf; the jcc must target "top" (= main).
	off := main.Addr - text.Addr + uint32(inst.Len)
	call, err := x86.Decode(text.Data[off:], main.Addr+uint32(inst.Len))
	if err != nil {
		t.Fatal(err)
	}
	if call.Op != x86.CALL || call.Target != leaf.Addr {
		t.Errorf("call = %v, want target %#x", call, leaf.Addr)
	}
	jcc, err := x86.Decode(text.Data[off+uint32(call.Len):], main.Addr+uint32(inst.Len)+uint32(call.Len))
	if err != nil {
		t.Fatal(err)
	}
	if jcc.Op != x86.JCC || jcc.Target != main.Addr {
		t.Errorf("jcc = %v, want target %#x", jcc, main.Addr)
	}

	// The data table holds pointers.
	table := img.MustSymbol("table")
	raw, err := img.ReadAt(table.Addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	w0 := uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24
	w1 := uint32(raw[4]) | uint32(raw[5])<<8 | uint32(raw[6])<<16 | uint32(raw[7])<<24
	if w0 != leaf.Addr || w1 != counter.Addr+4 {
		t.Errorf("table = %#x,%#x want %#x,%#x", w0, w1, leaf.Addr, counter.Addr+4)
	}

	// Global relocations were recorded (local label "top" was not).
	foundLeaf := false
	for _, r := range img.Relocs {
		if r.Sym == "top" {
			t.Error("local label leaked into the relocation table")
		}
		if r.Sym == "leaf" && r.Kind == RelocRel32 {
			foundLeaf = true
		}
	}
	if !foundLeaf {
		t.Error("missing rel32 relocation for leaf")
	}
}

func TestLinkPadAndAlign(t *testing.T) {
	obj := &Object{}
	a := &Func{Name: "a", Items: []Item{InstItem(x86.Inst{Op: x86.RET, W: 32})}}
	b := &Func{Name: "b", Pad: 3, Align: 1,
		Items: []Item{InstItem(x86.Inst{Op: x86.RET, W: 32})}}
	obj.Funcs = []*Func{a, b}
	img, err := Link(obj)
	if err != nil {
		t.Fatal(err)
	}
	sa := img.MustSymbol("a")
	sb := img.MustSymbol("b")
	if sb.Addr != sa.Addr+sa.Size+3 {
		t.Errorf("pad not honoured: a ends %#x, b at %#x", sa.Addr+sa.Size, sb.Addr)
	}
	// Padding bytes must be the configured fill (default NOP).
	text := img.Text()
	for i := sa.Addr + sa.Size; i < sb.Addr; i++ {
		if text.Data[i-text.Addr] != 0x90 {
			t.Errorf("pad byte %#x at %#x", text.Data[i-text.Addr], i)
		}
	}
}

func TestLinkErrors(t *testing.T) {
	ret := InstItem(x86.Inst{Op: x86.RET, W: 32})
	tests := []struct {
		name string
		obj  *Object
		want string
	}{
		{"no functions", &Object{}, "no functions"},
		{"undefined symbol", &Object{Funcs: []*Func{{Name: "f", Items: []Item{
			{Inst: x86.Inst{Op: x86.CALL, W: 32}, Ref: Ref{Slot: RefTarget, Sym: "ghost"}},
		}}}}, "undefined symbol"},
		{"duplicate function", &Object{Funcs: []*Func{
			{Name: "f", Items: []Item{ret}},
			{Name: "f", Items: []Item{ret}},
		}}, "duplicate symbol"},
		{"duplicate label", &Object{Funcs: []*Func{{Name: "f", Items: []Item{
			{Label: "x", Inst: x86.Inst{Op: x86.NOP, W: 32}},
			{Label: "x", Inst: x86.Inst{Op: x86.RET, W: 32}},
		}}}}, "duplicate label"},
		{"bad entry", &Object{Entry: "nope", Funcs: []*Func{{Name: "f", Items: []Item{ret}}}},
			"entry function"},
		{"data size too small", &Object{
			Funcs: []*Func{{Name: "f", Items: []Item{ret}}},
			Data:  []*DataSym{{Name: "d", Bytes: []byte{1, 2, 3, 4}, Size: 2}},
		}, "size 2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Link(tt.obj)
			if err == nil {
				t.Fatal("Link succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestImageReadWriteClone(t *testing.T) {
	img, _ := linkSimple(t)
	counter := img.MustSymbol("counter")

	// WriteAt + ReadAt round trip.
	if err := img.WriteAt(counter.Addr, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	got, err := img.ReadAt(counter.Addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 || got[1] != 9 {
		t.Errorf("read back %v", got)
	}

	// Clone isolation.
	clone := img.Clone()
	if err := clone.WriteAt(counter.Addr, []byte{7}); err != nil {
		t.Fatal(err)
	}
	orig, _ := img.ReadAt(counter.Addr, 1)
	if orig[0] != 9 {
		t.Error("clone write leaked into the original")
	}

	// Out-of-range accesses fail.
	if _, err := img.ReadAt(0x10, 4); err == nil {
		t.Error("ReadAt outside sections succeeded")
	}
	if err := img.WriteAt(0x10, []byte{1}); err == nil {
		t.Error("WriteAt outside sections succeeded")
	}

	// BSS writes past initialized data fail loudly.
	zeros := img.MustSymbol("zeros")
	if err := img.WriteAt(zeros.Addr, []byte{1}); err == nil {
		t.Error("WriteAt into BSS succeeded")
	}
}

func TestImageSymbolQueries(t *testing.T) {
	img, _ := linkSimple(t)
	main := img.MustSymbol("main")
	s, ok := img.SymbolAt(main.Addr + 1)
	if !ok || s.Name != "main" {
		t.Errorf("SymbolAt = %v, %t", s, ok)
	}
	if _, ok := img.Symbol("ghost"); ok {
		t.Error("found ghost symbol")
	}
	funcs := img.Funcs()
	if len(funcs) != 2 || funcs[0].Addr > funcs[1].Addr {
		t.Errorf("Funcs() = %v", funcs)
	}
	if sec := img.SectionAt(main.Addr); sec == nil || sec.Name != ".text" {
		t.Errorf("SectionAt = %v", sec)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	img, _ := linkSimple(t)
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Entry != img.Entry || len(back.Sections) != len(img.Sections) ||
		len(back.Symbols) != len(img.Symbols) {
		t.Fatal("round trip lost structure")
	}
	for i, s := range img.Sections {
		if !bytes.Equal(back.Sections[i].Data, s.Data) {
			t.Errorf("section %s data differs", s.Name)
		}
	}

	// Bad magic rejected.
	if _, err := ReadFrom(bytes.NewReader([]byte("JUNKJUNK"))); err == nil {
		t.Error("ReadFrom accepted junk")
	}
}
