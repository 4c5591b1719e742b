package image_test

import (
	"fmt"
	"reflect"
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/image"
	"parallax/internal/rewrite"
	"parallax/internal/x86"
)

// TestLinkMatchesTwoPass holds Link, which encodes each item once at
// its final address and patches reference slots afterwards, to
// twoPassLink, the earlier linker that sized every item by encoding it
// at address 0 and then encoded it again at its address. Text and data
// bytes, symbols, relocations and the entry must be equal.
func TestLinkMatchesTwoPass(t *testing.T) {
	check := func(t *testing.T, obj *image.Object) {
		t.Helper()
		want, err := twoPassLink(obj)
		if err != nil {
			t.Fatalf("two-pass link: %v", err)
		}
		got, err := image.Link(obj)
		if err != nil {
			t.Fatalf("Link: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Link differs from the two-pass linker:\n%s", imageDiff(got, want))
		}
	}

	var progs []corpus.Program
	progs = append(progs, corpus.All()...)
	for _, fam := range []string{"tiny", "small", "callheavy", "medium"} {
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
	for i, p := range progs {
		t.Run(p.Name, func(t *testing.T) {
			obj, err := codegen.Compile(p.Build())
			if err != nil {
				t.Fatal(err)
			}
			check(t, obj)
			if i < len(corpus.All()) {
				if _, err := rewrite.SplitImmediates(obj, nil); err != nil {
					t.Fatal(err)
				}
				check(t, obj)
			}
		})
	}

	t.Run("lifted", func(t *testing.T) {
		p, err := corpus.ByName("lame")
		if err != nil {
			t.Fatal(err)
		}
		img, err := codegen.Build(p.Build())
		if err != nil {
			t.Fatal(err)
		}
		obj, err := rewrite.Lift(img)
		if err != nil {
			t.Fatal(err)
		}
		check(t, obj)
	})

	t.Run("hand-built", func(t *testing.T) {
		check(t, handBuiltObject(t))
	})
}

// handBuiltObject covers what the code generator never emits: explicit
// Pad and Align, raw items, relative branches with a concrete target
// and no Ref, and every reference slot in every operand form
// refPatchOffset distinguishes.
func handBuiltObject(t *testing.T) *image.Object {
	t.Helper()
	reg, mem := x86.RegOp(x86.EAX), x86.MemAbs(0)
	ref := func(slot image.RefSlot, sym string, add int32) image.Ref {
		return image.Ref{Slot: slot, Sym: sym, Add: add}
	}
	main := &image.Func{Name: "main", Items: []image.Item{
		{Label: "top", Inst: x86.Inst{Op: x86.CALL, W: 32}, Ref: ref(image.RefTarget, "leaf", 0)},
		{Inst: x86.Inst{Op: x86.JMP, W: 32}, Ref: ref(image.RefTarget, "top", 0)},
		{Inst: x86.Inst{Op: x86.JCC, W: 32, Cond: x86.CondGE}, Ref: ref(image.RefTarget, "tail", 2)},
		{Inst: x86.Inst{Op: x86.CALL, W: 32, Rel: true, Target: 0x0804_8000}},
		{Inst: x86.Inst{Op: x86.JMP, W: 32, Rel: true, Target: 0x1234_5678}},
		{Inst: x86.Inst{Op: x86.JCC, W: 32, Cond: x86.CondB, Rel: true, Target: 0x0040_0010}},
		{Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: reg}, Ref: ref(image.RefImm, "table", 4)},
		{Inst: x86.Inst{Op: x86.PUSH, W: 32}, Ref: ref(image.RefImm, "ro", 0)},
		{Inst: x86.Inst{Op: x86.IMUL, W: 32, Dst: reg, Src: reg, HasImm: true}, Ref: ref(image.RefImm, "table", 0)},
		{Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: mem, Src: reg}, Ref: ref(image.RefDisp, "counter", 0)},
		{Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: reg, Src: mem}, Ref: ref(image.RefDisp, "counter", 4)},
		{Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: mem, Src: x86.ImmOp(0x1234_5678)}, Ref: ref(image.RefDisp, "counter", 0)},
		{Inst: x86.Inst{Op: x86.MOV, W: 8, Dst: mem, Src: x86.ImmOp(7)}, Ref: ref(image.RefDisp, "counter", 1)},
		{Inst: x86.Inst{Op: x86.ADD, W: 32, Dst: mem, Src: x86.ImmOp(3)}, Ref: ref(image.RefDisp, "counter", 0)},
		{Inst: x86.Inst{Op: x86.ADD, W: 16, Dst: mem, Src: x86.ImmOp(0x1234)}, Ref: ref(image.RefDisp, "counter", 2)},
		{Inst: x86.Inst{Op: x86.SHL, W: 32, Dst: mem, Src: x86.ImmOp(5)}, Ref: ref(image.RefDisp, "counter", 0)},
		{Inst: x86.Inst{Op: x86.TEST, W: 32, Dst: mem, Src: x86.ImmOp(1)}, Ref: ref(image.RefDisp, "zeros", 0)},
		{Inst: x86.Inst{Op: x86.IMUL, W: 32, Dst: reg, Src: mem, HasImm: true, Imm: 9}, Ref: ref(image.RefDisp, "counter", 0)},
		{Inst: x86.Inst{Op: x86.IMUL, W: 32, Dst: reg, Src: mem, HasImm: true, Imm: 1000}, Ref: ref(image.RefDisp, "counter", 0)},
		{Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: reg, Src: x86.MemSIB(0, false, x86.ECX, true, 4, 0)},
			Ref: ref(image.RefDisp, "table", 0)},
		image.RawItem(0x58, 0xC3, 0x90),
		{Label: "tail", Inst: x86.Inst{Op: x86.RET, W: 32}},
	}}
	leaf := &image.Func{Name: "leaf", Pad: 5, Align: 8, Items: []image.Item{
		image.RawItem(0xF4),
		{Inst: x86.Inst{Op: x86.CALL, W: 32}, Ref: ref(image.RefTarget, "main", 0)},
		image.InstItem(x86.Inst{Op: x86.RET, W: 32}),
	}}
	odd := &image.Func{Name: "odd", Pad: 3, Align: 1, Items: []image.Item{
		image.RawItem(0x90),
		{Inst: x86.Inst{Op: x86.JMP, W: 32, Rel: true, Target: 0x0804_8003}},
	}}
	empty := &image.Func{Name: "empty", Align: 64}
	obj := &image.Object{Entry: "main"}
	for _, fn := range []*image.Func{main, leaf, odd, empty} {
		if err := obj.AddFunc(fn); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []*image.DataSym{
		{Name: "counter", Bytes: []byte{1, 0, 0, 0, 2, 0, 0, 0}},
		{Name: "table", Bytes: make([]byte, 12), Words: []image.WordRef{{Off: 0, Sym: "leaf"}, {Off: 8, Sym: "counter", Add: 4}}},
		{Name: "ro", Bytes: []byte("hi"), ReadOnly: true, Align: 16},
		{Name: "zeros", Size: 64},
	} {
		if err := obj.AddData(d); err != nil {
			t.Fatal(err)
		}
	}
	return obj
}

// imageDiff names the first difference between two images.
func imageDiff(got, want *image.Image) string {
	if got.Entry != want.Entry {
		return fmt.Sprintf("entry %#x, want %#x", got.Entry, want.Entry)
	}
	if len(got.Sections) != len(want.Sections) {
		return fmt.Sprintf("%d sections, want %d", len(got.Sections), len(want.Sections))
	}
	for i, g := range got.Sections {
		w := want.Sections[i]
		if g.Name != w.Name || g.Addr != w.Addr || g.Size != w.Size || g.Perm != w.Perm || len(g.Data) != len(w.Data) {
			return fmt.Sprintf("section %d: %s@%#x size %d perm %v len %d, want %s@%#x size %d perm %v len %d",
				i, g.Name, g.Addr, g.Size, g.Perm, len(g.Data), w.Name, w.Addr, w.Size, w.Perm, len(w.Data))
		}
		for j := range g.Data {
			if g.Data[j] != w.Data[j] {
				return fmt.Sprintf("%s byte at %#x: %#02x, want %#02x", g.Name, g.Addr+uint32(j), g.Data[j], w.Data[j])
			}
		}
	}
	if !reflect.DeepEqual(got.Symbols, want.Symbols) {
		return fmt.Sprintf("symbols:\n%v\nwant\n%v", got.Symbols, want.Symbols)
	}
	return fmt.Sprintf("relocs:\n%v\nwant\n%v", got.Relocs, want.Relocs)
}

// twoPassLink is the linker as it was before Link encoded each item
// once: layoutText sizes every item by encoding it at address 0 with a
// far placeholder in its reference slot, and emit encodes it again at
// its address and patches the slot. It is kept verbatim in logic, on
// the exported API, as TestLinkMatchesTwoPass's oracle.
func twoPassLink(obj *image.Object) (*image.Image, error) {
	l := &tpLinker{obj: obj, syms: make(map[string]image.Symbol)}
	if len(obj.Funcs) == 0 {
		return nil, fmt.Errorf("image: cannot link object with no functions")
	}
	if err := l.layoutText(); err != nil {
		return nil, err
	}
	last := l.funcs[len(l.funcs)-1]
	if err := l.layoutData(last.addr + last.size); err != nil {
		return nil, err
	}
	if err := l.emit(); err != nil {
		return nil, err
	}
	entry := obj.Entry
	if entry == "" {
		entry = obj.Funcs[0].Name
	}
	es, ok := l.syms[entry]
	if !ok {
		return nil, fmt.Errorf("image: entry function %q not defined", entry)
	}
	l.img.Entry = es.Addr
	return l.img, nil
}

type tpFunc struct {
	fn     *image.Func
	addr   uint32
	size   uint32
	labels map[string]uint32
	offs   []uint32
}

// The layout Link places every image at.
const (
	tpTextBase  = 0x08048000
	tpFuncAlign = 16
	tpPadByte   = 0x90
	tpPageSize  = 4096
)

type tpLinker struct {
	obj   *image.Object
	funcs []*tpFunc
	syms  map[string]image.Symbol
	img   *image.Image
}

func tpAlignUp(v, a uint32) uint32 {
	if a == 0 {
		return v
	}
	return (v + a - 1) &^ (a - 1)
}

func (l *tpLinker) layoutText() error {
	addr := uint32(tpTextBase)
	for _, fn := range l.obj.Funcs {
		align := fn.Align
		if align == 0 {
			align = tpFuncAlign
		}
		addr += fn.Pad
		addr = tpAlignUp(addr, align)
		fl := &tpFunc{fn: fn, addr: addr, labels: make(map[string]uint32), offs: make([]uint32, len(fn.Items))}
		off := uint32(0)
		for i := range fn.Items {
			it := &fn.Items[i]
			fl.offs[i] = off
			if it.Label != "" {
				if _, dup := fl.labels[it.Label]; dup {
					return fmt.Errorf("image: %s: duplicate label %q", fn.Name, it.Label)
				}
				fl.labels[it.Label] = addr + off
			}
			var n uint32
			if it.Raw != nil {
				n = uint32(len(it.Raw))
			} else {
				inst, err := tpPrepareInst(it, 0x7FFFFFF0)
				if err != nil {
					return fmt.Errorf("image: %s item %d: %w", fn.Name, i, err)
				}
				b, err := x86.Encode(inst, 0)
				if err != nil {
					return fmt.Errorf("image: %s item %d: %w", fn.Name, i, err)
				}
				n = uint32(len(b))
			}
			off += n
		}
		fl.size = off
		if _, dup := l.syms[fn.Name]; dup {
			return fmt.Errorf("image: duplicate symbol %q", fn.Name)
		}
		l.syms[fn.Name] = image.Symbol{Name: fn.Name, Addr: fl.addr, Size: fl.size, Kind: image.SymFunc}
		l.funcs = append(l.funcs, fl)
		addr += off
	}
	return nil
}

func tpPrepareInst(it *image.Item, value uint32) (x86.Inst, error) {
	inst := it.Inst
	switch it.Ref.Slot {
	case image.RefNone:
	case image.RefTarget:
		if inst.Op != x86.CALL && inst.Op != x86.JMP && inst.Op != x86.JCC {
			return inst, fmt.Errorf("RefTarget on non-branch %v", inst.Op)
		}
		inst.Rel = true
		inst.Target = value
	case image.RefImm:
		imm := x86.ImmOp(int32(value))
		switch {
		case inst.Op == x86.PUSH:
			inst.Dst = imm
		case inst.HasImm:
			inst.Imm = int32(value)
		default:
			inst.Src = imm
		}
	case image.RefDisp:
		switch {
		case inst.Dst.Kind == x86.KMem:
			inst.Dst.Disp = int32(value)
		case inst.Src.Kind == x86.KMem:
			inst.Src.Disp = int32(value)
		default:
			return inst, fmt.Errorf("RefDisp without memory operand in %v", inst)
		}
	default:
		return inst, fmt.Errorf("unknown ref slot %d", it.Ref.Slot)
	}
	return inst, nil
}

func tpFitsInt8(v int32) bool { return v >= -128 && v <= 127 }

func tpRefPatchOffset(it *image.Item, encoded []byte) (int, error) {
	switch it.Ref.Slot {
	case image.RefTarget, image.RefImm:
		return len(encoded) - 4, nil
	case image.RefDisp:
		trailing := 0
		inst := it.Inst
		if inst.Src.Kind == x86.KImm {
			switch inst.Op {
			case x86.ROL, x86.ROR, x86.RCL, x86.RCR, x86.SHL, x86.SAL, x86.SHR, x86.SAR:
				trailing = 1
			default:
				switch {
				case inst.W == 8:
					trailing = 1
				case inst.Op != x86.MOV && inst.Op != x86.TEST && tpFitsInt8(inst.Src.Imm):
					trailing = 1
				default:
					trailing = int(inst.W) / 8
				}
			}
		}
		if inst.HasImm {
			if tpFitsInt8(inst.Imm) {
				trailing = 1
			} else {
				trailing = int(inst.W) / 8
			}
		}
		return len(encoded) - trailing - 4, nil
	default:
		return 0, fmt.Errorf("no patch site for slot %d", it.Ref.Slot)
	}
}

func (l *tpLinker) layoutData(textEnd uint32) error {
	var ro, rw, bss []*image.DataSym
	for _, d := range l.obj.Data {
		switch {
		case d.ReadOnly:
			ro = append(ro, d)
		case d.Bytes == nil && d.Size > 0:
			bss = append(bss, d)
		default:
			rw = append(rw, d)
		}
	}
	place := func(base uint32, syms []*image.DataSym) (uint32, error) {
		addr := base
		for _, d := range syms {
			align := d.Align
			if align == 0 {
				align = 4
			}
			if align&(align-1) != 0 {
				return 0, fmt.Errorf("image: %s: alignment %d not a power of two", d.Name, align)
			}
			addr = tpAlignUp(addr, align)
			size := d.Size
			if size == 0 {
				size = uint32(len(d.Bytes))
			}
			if size < uint32(len(d.Bytes)) {
				return 0, fmt.Errorf("image: %s: size %d < %d initialized bytes", d.Name, size, len(d.Bytes))
			}
			if _, dup := l.syms[d.Name]; dup {
				return 0, fmt.Errorf("image: duplicate symbol %q", d.Name)
			}
			l.syms[d.Name] = image.Symbol{Name: d.Name, Addr: addr, Size: size, Kind: image.SymObject}
			addr += size
		}
		return addr, nil
	}
	page := uint32(tpPageSize)
	roBase := tpAlignUp(textEnd, page)
	roEnd, err := place(roBase, ro)
	if err != nil {
		return err
	}
	rwBase := tpAlignUp(roEnd, page)
	if len(ro) == 0 {
		rwBase = roBase
	}
	rwEnd, err := place(rwBase, rw)
	if err != nil {
		return err
	}
	bssBase := tpAlignUp(rwEnd, page)
	if len(rw) == 0 {
		bssBase = rwBase
	}
	bssEnd, err := place(bssBase, bss)
	if err != nil {
		return err
	}
	l.img = &image.Image{}
	l.img.Sections = append(l.img.Sections, &image.Section{Name: ".text", Addr: tpTextBase, Perm: image.PermR | image.PermX})
	if len(ro) > 0 {
		l.img.Sections = append(l.img.Sections, &image.Section{Name: ".rodata", Addr: roBase, Size: roEnd - roBase, Perm: image.PermR})
	}
	if len(rw) > 0 {
		l.img.Sections = append(l.img.Sections, &image.Section{Name: ".data", Addr: rwBase, Size: rwEnd - rwBase, Perm: image.PermR | image.PermW})
	}
	if len(bss) > 0 {
		l.img.Sections = append(l.img.Sections, &image.Section{Name: ".bss", Addr: bssBase, Size: bssEnd - bssBase, Perm: image.PermR | image.PermW})
	}
	return nil
}

func (l *tpLinker) resolve(fl *tpFunc, it *image.Item) (uint32, error) {
	if it.Ref.Slot == image.RefNone {
		return 0, nil
	}
	if a, ok := fl.labels[it.Ref.Sym]; ok {
		return a + uint32(it.Ref.Add), nil
	}
	if s, ok := l.syms[it.Ref.Sym]; ok {
		return s.Addr + uint32(it.Ref.Add), nil
	}
	return 0, fmt.Errorf("undefined symbol %q", it.Ref.Sym)
}

func tpPutU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func (l *tpLinker) emit() error {
	text := l.img.Text()
	var out []byte
	for _, fl := range l.funcs {
		for uint32(len(out)) < fl.addr-tpTextBase {
			out = append(out, tpPadByte)
		}
		for i := range fl.fn.Items {
			it := &fl.fn.Items[i]
			itemAddr := fl.addr + fl.offs[i]
			if it.Raw != nil {
				out = append(out, it.Raw...)
				continue
			}
			value, err := l.resolve(fl, it)
			if err != nil {
				return fmt.Errorf("image: %s item %d: %w", fl.fn.Name, i, err)
			}
			inst, err := tpPrepareInst(it, 0x7FFFFFF0)
			if err != nil {
				return fmt.Errorf("image: %s item %d: %w", fl.fn.Name, i, err)
			}
			enc, err := x86.Encode(inst, itemAddr)
			if err != nil {
				return fmt.Errorf("image: %s item %d: encode %v: %w", fl.fn.Name, i, inst, err)
			}
			if it.Ref.Slot != image.RefNone {
				pos, err := tpRefPatchOffset(it, enc)
				if err != nil {
					return fmt.Errorf("image: %s item %d: %w", fl.fn.Name, i, err)
				}
				siteAddr := itemAddr + uint32(pos)
				patched, kind := value, image.RelocAbs32
				if it.Ref.Slot == image.RefTarget {
					patched, kind = value-(siteAddr+4), image.RelocRel32
				}
				tpPutU32(enc[pos:], patched)
				if _, local := fl.labels[it.Ref.Sym]; !local {
					l.img.Relocs = append(l.img.Relocs, image.Reloc{Addr: siteAddr, Kind: kind, Sym: it.Ref.Sym, Add: it.Ref.Add})
				}
			}
			out = append(out, enc...)
		}
	}
	text.Data = out
	text.Size = uint32(len(out))

	for _, d := range l.obj.Data {
		sym := l.syms[d.Name]
		if d.Bytes == nil && !d.ReadOnly && d.Size > 0 {
			continue
		}
		size := sym.Size
		buf := make([]byte, size)
		copy(buf, d.Bytes)
		for _, w := range d.Words {
			if w.Off+4 > size {
				return fmt.Errorf("image: %s: word ref at %d past size %d", d.Name, w.Off, size)
			}
			target, ok := l.syms[w.Sym]
			if !ok {
				return fmt.Errorf("image: %s: undefined symbol %q", d.Name, w.Sym)
			}
			tpPutU32(buf[w.Off:], target.Addr+uint32(w.Add))
			l.img.Relocs = append(l.img.Relocs, image.Reloc{Addr: sym.Addr + w.Off, Kind: image.RelocAbs32, Sym: w.Sym, Add: w.Add})
		}
		sec := l.img.SectionAt(sym.Addr)
		if sec == nil {
			return fmt.Errorf("image: %s: no section at %#x", d.Name, sym.Addr)
		}
		end := sym.Addr + size - sec.Addr
		for uint32(len(sec.Data)) < end {
			sec.Data = append(sec.Data, 0)
		}
		copy(sec.Data[sym.Addr-sec.Addr:], buf)
	}
	for _, fl := range l.funcs {
		l.img.Symbols = append(l.img.Symbols, l.syms[fl.fn.Name])
	}
	for _, d := range l.obj.Data {
		l.img.Symbols = append(l.img.Symbols, l.syms[d.Name])
	}
	return nil
}
