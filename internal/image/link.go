package image

import (
	"fmt"

	"parallax/internal/x86"
)

// The link layout of every image: a standard x86 image.
const (
	// textBase is the load address of .text, the classic x86 ELF base.
	textBase = 0x08048000
	// funcAlign is the start alignment of a function whose Align is 0.
	funcAlign = 16
	// padByte fills inter-function padding (NOP).
	padByte = 0x90
	// pageSize separates sections with distinct permissions.
	pageSize = 4096
)

func alignUp(v, a uint32) uint32 {
	if a == 0 {
		return v
	}
	return (v + a - 1) &^ (a - 1)
}

// Link lays out and encodes an object into a loadable image.
func Link(obj *Object) (*Image, error) {
	l := &linker{obj: obj, syms: make(map[string]Symbol)}
	return l.link()
}

type funcLayout struct {
	fn     *Func
	addr   uint32 // address of first instruction (after pad+align)
	size   uint32
	labels map[string]uint32 // local label → absolute address
}

// refSite is an encoded item whose 4-byte reference slot emit patches.
type refSite struct {
	fl   *funcLayout
	item int    // index into fl.fn.Items
	slot uint32 // offset of the slot in the text buffer
}

type linker struct {
	obj *Object

	funcs []*funcLayout
	text  []byte    // encoded .text, reference slots not yet patched
	refs  []refSite // in text order
	syms  map[string]Symbol
	img   *Image
}

func (l *linker) link() (*Image, error) {
	if len(l.obj.Funcs) == 0 {
		return nil, fmt.Errorf("image: cannot link object with no functions")
	}
	if err := l.layoutText(); err != nil {
		return nil, err
	}
	textEnd := l.funcs[len(l.funcs)-1].addr + l.funcs[len(l.funcs)-1].size
	if err := l.layoutData(textEnd); err != nil {
		return nil, err
	}
	if err := l.emit(); err != nil {
		return nil, err
	}
	entry := l.obj.Entry
	if entry == "" {
		entry = l.obj.Funcs[0].Name
	}
	es, ok := l.syms[entry]
	if !ok {
		return nil, fmt.Errorf("image: entry function %q not defined", entry)
	}
	l.img.Entry = es.Addr
	return l.img, nil
}

// farPlaceholder fills reference slots while encoding. Its large
// magnitude forces the 32-bit form of every slot, so an item's size
// does not depend on the value later patched in.
const farPlaceholder = 0x7FFFFFF0

// layoutText encodes every item once, at its final address, into one
// text buffer that also holds the inter-function padding, and records
// function addresses, sizes, local label addresses and the reference
// slots emit patches. Encoding in address order works because no size
// depends on an address: reference slots are sized by farPlaceholder
// and every relative branch is rel32. Items are still encoded at their
// real address, not at 0: a relative branch with a concrete Target and
// no Ref jumps to an absolute address, so its bytes depend on where it
// sits.
func (l *linker) layoutText() error {
	base := uint32(textBase)
	l.funcs = make([]*funcLayout, 0, len(l.obj.Funcs))
	// Generated text averages about 5 bytes per item, padding included;
	// presizing spares regrowing a megabyte buffer.
	n := 0
	for _, fn := range l.obj.Funcs {
		n += len(fn.Items)
	}
	text := make([]byte, 0, 6*n)
	for _, fn := range l.obj.Funcs {
		align := fn.Align
		if align == 0 {
			align = funcAlign
		}
		addr := alignUp(base+uint32(len(text))+fn.Pad, align)
		for uint32(len(text)) < addr-base {
			text = append(text, padByte)
		}
		fl := &funcLayout{fn: fn, addr: addr, labels: make(map[string]uint32)}
		for i := range fn.Items {
			it := &fn.Items[i]
			start := len(text)
			itemAddr := base + uint32(start)
			if it.Label != "" {
				if _, dup := fl.labels[it.Label]; dup {
					return fmt.Errorf("image: %s: duplicate label %q", fn.Name, it.Label)
				}
				fl.labels[it.Label] = itemAddr
			}
			if it.Raw != nil {
				text = append(text, it.Raw...)
				continue
			}
			inst, err := prepareInst(it, farPlaceholder)
			if err != nil {
				return fmt.Errorf("image: %s item %d: %w", fn.Name, i, err)
			}
			if text, err = x86.AppendEncode(text, inst, itemAddr); err != nil {
				return fmt.Errorf("image: %s item %d: %w", fn.Name, i, err)
			}
			if it.Ref.Slot != RefNone {
				pos, err := refPatchOffset(it, text[start:])
				if err != nil {
					return fmt.Errorf("image: %s item %d: %w", fn.Name, i, err)
				}
				l.refs = append(l.refs, refSite{fl: fl, item: i, slot: uint32(start + pos)})
			}
		}
		fl.size = base + uint32(len(text)) - addr
		if _, dup := l.syms[fn.Name]; dup {
			return fmt.Errorf("image: duplicate symbol %q", fn.Name)
		}
		l.syms[fn.Name] = Symbol{Name: fn.Name, Addr: fl.addr, Size: fl.size, Kind: SymFunc}
		l.funcs = append(l.funcs, fl)
	}
	l.text = text
	return nil
}

// prepareInst returns the instruction with the symbolic slot filled by
// value.
func prepareInst(it *Item, value uint32) (x86.Inst, error) {
	inst := it.Inst
	switch it.Ref.Slot {
	case RefNone:
	case RefTarget:
		if inst.Op != x86.CALL && inst.Op != x86.JMP && inst.Op != x86.JCC {
			return inst, fmt.Errorf("RefTarget on non-branch %v", inst.Op)
		}
		inst.Rel = true
		inst.Target = value
	case RefImm:
		imm := x86.ImmOp(int32(value))
		switch {
		case inst.Op == x86.PUSH:
			inst.Dst = imm
		case inst.HasImm:
			inst.Imm = int32(value)
		default:
			inst.Src = imm
		}
	case RefDisp:
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

// refPatchOffset returns the offset of the 4-byte patch site within the
// encoded instruction.
func refPatchOffset(it *Item, encoded []byte) (int, error) {
	switch it.Ref.Slot {
	case RefTarget, RefImm:
		// rel32 / imm32 is always the trailing dword in the forms the
		// code generator emits.
		return len(encoded) - 4, nil
	case RefDisp:
		// disp32 precedes any trailing immediate.
		trailing := 0
		inst := it.Inst
		if inst.Src.Kind == x86.KImm {
			switch {
			case isShiftOp(inst.Op):
				trailing = 1
			case inst.W == 8:
				trailing = 1
			case inst.Op != x86.MOV && inst.Op != x86.TEST && fitsInt8(inst.Src.Imm):
				trailing = 1
			default:
				trailing = int(inst.W) / 8
			}
		}
		if inst.HasImm {
			if fitsInt8(inst.Imm) {
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

func isShiftOp(op x86.Op) bool {
	switch op {
	case x86.ROL, x86.ROR, x86.RCL, x86.RCR, x86.SHL, x86.SAL, x86.SHR, x86.SAR:
		return true
	}
	return false
}

func fitsInt8(v int32) bool { return v >= -128 && v <= 127 }

// layoutData assigns addresses to data objects: .rodata after .text,
// then .data, then .bss, each page-separated.
func (l *linker) layoutData(textEnd uint32) error {
	var ro, rw, bss []*DataSym
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
	place := func(base uint32, syms []*DataSym) (uint32, error) {
		addr := base
		for _, d := range syms {
			align := d.Align
			if align == 0 {
				align = 4
			}
			if align&(align-1) != 0 {
				return 0, fmt.Errorf("image: %s: alignment %d not a power of two", d.Name, align)
			}
			addr = alignUp(addr, align)
			size := d.Size
			if size == 0 {
				size = uint32(len(d.Bytes))
			}
			if size < uint32(len(d.Bytes)) {
				return 0, fmt.Errorf("image: %s: size %d < %d initialized bytes",
					d.Name, size, len(d.Bytes))
			}
			if _, dup := l.syms[d.Name]; dup {
				return 0, fmt.Errorf("image: duplicate symbol %q", d.Name)
			}
			l.syms[d.Name] = Symbol{Name: d.Name, Addr: addr, Size: size, Kind: SymObject}
			addr += size
		}
		return addr, nil
	}

	roBase := alignUp(textEnd, pageSize)
	roEnd, err := place(roBase, ro)
	if err != nil {
		return err
	}
	rwBase := alignUp(roEnd, pageSize)
	if len(ro) == 0 {
		rwBase = roBase
	}
	rwEnd, err := place(rwBase, rw)
	if err != nil {
		return err
	}
	bssBase := alignUp(rwEnd, pageSize)
	if len(rw) == 0 {
		bssBase = rwBase
	}
	bssEnd, err := place(bssBase, bss)
	if err != nil {
		return err
	}

	l.img = &Image{}
	text := &Section{Name: ".text", Addr: textBase, Perm: PermR | PermX}
	l.img.Sections = append(l.img.Sections, text)
	if len(ro) > 0 {
		l.img.Sections = append(l.img.Sections, &Section{
			Name: ".rodata", Addr: roBase, Size: roEnd - roBase, Perm: PermR,
		})
	}
	if len(rw) > 0 {
		l.img.Sections = append(l.img.Sections, &Section{
			Name: ".data", Addr: rwBase, Size: rwEnd - rwBase, Perm: PermR | PermW,
		})
	}
	if len(bss) > 0 {
		l.img.Sections = append(l.img.Sections, &Section{
			Name: ".bss", Addr: bssBase, Size: bssEnd - bssBase, Perm: PermR | PermW,
		})
	}
	return nil
}

// emit patches the text's reference slots with final symbol values,
// lays out the data sections and records relocations.
func (l *linker) emit() error {
	// Text.
	for _, r := range l.refs {
		it := &r.fl.fn.Items[r.item]
		value, err := l.resolve(r.fl, it)
		if err != nil {
			return fmt.Errorf("image: %s item %d: %w", r.fl.fn.Name, r.item, err)
		}
		siteAddr := textBase + r.slot
		kind := RelocAbs32
		if it.Ref.Slot == RefTarget {
			value -= siteAddr + 4
			kind = RelocRel32
		}
		putU32(l.text[r.slot:], value)
		if !l.isLocal(r.fl, it.Ref.Sym) {
			l.img.Relocs = append(l.img.Relocs, Reloc{
				Addr: siteAddr, Kind: kind, Sym: it.Ref.Sym, Add: it.Ref.Add,
			})
		}
	}
	text := l.img.Text()
	text.Data = l.text
	text.Size = uint32(len(l.text))

	// Data sections.
	for _, d := range l.obj.Data {
		sym := l.syms[d.Name]
		if d.Bytes == nil && !d.ReadOnly && d.Size > 0 {
			continue // BSS: no initialized bytes
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
			putU32(buf[w.Off:], target.Addr+uint32(w.Add))
			l.img.Relocs = append(l.img.Relocs, Reloc{
				Addr: sym.Addr + w.Off, Kind: RelocAbs32, Sym: w.Sym, Add: w.Add,
			})
		}
		sec := l.img.SectionAt(sym.Addr)
		if sec == nil {
			return fmt.Errorf("image: %s: no section at %#x", d.Name, sym.Addr)
		}
		// Grow the section's data to cover this object.
		end := sym.Addr + size - sec.Addr
		for uint32(len(sec.Data)) < end {
			sec.Data = append(sec.Data, 0)
		}
		copy(sec.Data[sym.Addr-sec.Addr:], buf)
	}

	// Symbol table, functions first then data, in layout order.
	for _, fl := range l.funcs {
		l.img.Symbols = append(l.img.Symbols, l.syms[fl.fn.Name])
	}
	for _, d := range l.obj.Data {
		l.img.Symbols = append(l.img.Symbols, l.syms[d.Name])
	}
	return nil
}

// isLocal reports whether sym is a function-local label of fl.
func (l *linker) isLocal(fl *funcLayout, sym string) bool {
	_, ok := fl.labels[sym]
	return ok
}

// resolve returns the absolute value of an item's symbolic reference.
// Local labels shadow global symbols.
func (l *linker) resolve(fl *funcLayout, it *Item) (uint32, error) {
	if a, ok := fl.labels[it.Ref.Sym]; ok {
		return a + uint32(it.Ref.Add), nil
	}
	if s, ok := l.syms[it.Ref.Sym]; ok {
		return s.Addr + uint32(it.Ref.Add), nil
	}
	return 0, fmt.Errorf("undefined symbol %q", it.Ref.Sym)
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
