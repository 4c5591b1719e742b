package gadget

import (
	"math/rand"
	"testing"

	"parallax/internal/emu"
	"parallax/internal/image"
	"parallax/internal/x86"
)

func TestClassifyGolden(t *testing.T) {
	tests := []struct {
		name   string
		bytes  []byte
		kind   Kind
		dst    x86.Reg
		src    x86.Reg
		usable bool
	}{
		{"ret", []byte{0xC3}, KindRet, 0, 0, true},
		{"ret imm", []byte{0xC2, 0x08, 0x00}, KindRet, 0, 0, true},
		{"pop eax", []byte{0x58, 0xC3}, KindPopReg, x86.EAX, 0, true},
		{"pop edi", []byte{0x5F, 0xC3}, KindPopReg, x86.EDI, 0, true},
		{"mov eax,ebx", []byte{0x89, 0xD8, 0xC3}, KindMovReg, x86.EAX, x86.EBX, true},
		{"add eax,esi", []byte{0x01, 0xF0, 0xC3}, KindAddReg, x86.EAX, x86.ESI, true},
		{"add esi,eax", []byte{0x01, 0xC6, 0xC3}, KindAddReg, x86.ESI, x86.EAX, true},
		{"sub ecx,edx", []byte{0x29, 0xD1, 0xC3}, KindSubReg, x86.ECX, x86.EDX, true},
		{"and ebx,eax", []byte{0x21, 0xC3, 0xC3}, KindAndReg, x86.EBX, x86.EAX, true},
		{"or eax,ecx", []byte{0x09, 0xC8, 0xC3}, KindOrReg, x86.EAX, x86.ECX, true},
		{"xor edx,ebx", []byte{0x31, 0xDA, 0xC3}, KindXorReg, x86.EDX, x86.EBX, true},
		{"neg eax", []byte{0xF7, 0xD8, 0xC3}, KindNegReg, x86.EAX, 0, true},
		{"not ecx", []byte{0xF7, 0xD1, 0xC3}, KindNotReg, x86.ECX, 0, true},
		{"shr eax,5", []byte{0xC1, 0xE8, 0x05, 0xC3}, KindShrImm, x86.EAX, 0, true},
		{"shl ebx,2", []byte{0xC1, 0xE3, 0x02, 0xC3}, KindShlImm, x86.EBX, 0, true},
		{"load eax,[ebx]", []byte{0x8B, 0x03, 0xC3}, KindLoad, x86.EAX, x86.EBX, true},
		{"store [eax],ecx", []byte{0x89, 0x08, 0xC3}, KindStore, x86.EAX, x86.ECX, true},
		{"pop esp", []byte{0x5C, 0xC3}, KindPopEsp, 0, 0, true},
		{"add esp,eax", []byte{0x01, 0xC4, 0xC3}, KindAddEsp, 0, x86.EAX, true},
		{"retf bare", []byte{0xCB}, KindRet, 0, 0, true},
		// The paper's §IV-A far-return gadget: and al,0; add [eax],al;
		// add al,ch; retf. Byte-width effects and a stray memory write
		// make it inventory-only.
		{"paper retf gadget", []byte{0x24, 0x00, 0x00, 0x00, 0x00, 0xE8, 0xCB},
			KindOther, 0, 0, false},
		// A clean store with arithmetic beside it: classified as a
		// store gadget whose clobber set absorbs the arithmetic.
		{"store with clobbering add", []byte{0x89, 0x0B, 0x01, 0xF0, 0xC3},
			KindStore, x86.EBX, x86.ECX, true},
		// lea-based move.
		{"lea eax,[ebx]", []byte{0x8D, 0x03, 0xC3}, KindMovReg, x86.EAX, x86.EBX, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := scanAt(tt.bytes, 0x1000, 0, ScanConfig{}.withDefaults())
			if g == nil {
				t.Fatalf("scanAt(% x) found no gadget", tt.bytes)
			}
			if g.Kind != tt.kind {
				t.Fatalf("kind = %v, want %v (%v)", g.Kind, tt.kind, g)
			}
			switch tt.kind {
			case KindPopReg, KindNegReg, KindNotReg, KindShrImm, KindShlImm:
				if g.Dst != tt.dst {
					t.Errorf("dst = %v, want %v", g.Dst, tt.dst)
				}
			case KindMovReg, KindAddReg, KindSubReg, KindAndReg, KindOrReg,
				KindXorReg, KindLoad, KindStore:
				if g.Dst != tt.dst || g.Src != tt.src {
					t.Errorf("dst,src = %v,%v want %v,%v", g.Dst, g.Src, tt.dst, tt.src)
				}
			case KindAddEsp:
				if g.Src != tt.src {
					t.Errorf("src = %v, want %v", g.Src, tt.src)
				}
			}
			if g.Usable() != tt.usable {
				t.Errorf("usable = %t, want %t (%v)", g.Usable(), tt.usable, g)
			}
		})
	}
}

func TestClassifyRejectsControlFlow(t *testing.T) {
	seqs := [][]byte{
		{0x58, 0xEB, 0x01, 0xC3},             // pop eax; jmp +1; ret
		{0xCD, 0x80, 0xC3},                   // int 0x80; ret
		{0xCC, 0xC3},                         // int3; ret
		{0xF4, 0xC3},                         // hlt; ret
		{0xE8, 0x00, 0x00, 0x00, 0x00, 0xC3}, // call; ret
		{0x74, 0x00, 0xC3},                   // je; ret
	}
	for _, b := range seqs {
		if g := scanAt(b, 0, 0, ScanConfig{}.withDefaults()); g != nil {
			t.Errorf("scanAt(% x) = %v, want nil", b, g)
		}
	}
}

func TestClassifyPopChainAndClobbers(t *testing.T) {
	// pop ecx; pop eax; ret: primary is eax (slot 1), ecx clobbered.
	g := scanAt([]byte{0x59, 0x58, 0xC3}, 0, 0, ScanConfig{}.withDefaults())
	if g == nil {
		t.Fatal("no gadget")
	}
	if g.Kind != KindPopReg || g.StackPops != 2 {
		t.Fatalf("got %v (pops=%d)", g, g.StackPops)
	}
	if g.Dst == x86.EAX {
		if g.PopSlot != 1 || !g.Clobbers.Has(x86.ECX) {
			t.Errorf("eax slot=%d clobbers=%v", g.PopSlot, g.Clobbers)
		}
	} else if g.Dst == x86.ECX {
		if g.PopSlot != 0 || !g.Clobbers.Has(x86.EAX) {
			t.Errorf("ecx slot=%d clobbers=%v", g.PopSlot, g.Clobbers)
		}
	} else {
		t.Errorf("unexpected dst %v", g.Dst)
	}
}

func TestScanUnalignedGadgets(t *testing.T) {
	// mov eax, 0x58c3: the immediate hides "pop eax; ret".
	code := []byte{0xB8, 0x58, 0xC3, 0x00, 0x00, 0xC3}
	gs := ScanBytes(code, 0x1000, ScanConfig{})
	var hidden *Gadget
	for _, g := range gs {
		if g.Addr == 0x1001 {
			hidden = g
		}
	}
	if hidden == nil {
		t.Fatalf("unaligned gadget at 0x1001 not found; got %v", gs)
	}
	if hidden.Aligned {
		t.Error("gadget inside mov immediate reported as aligned")
	}
	if hidden.Kind != KindPopReg || hidden.Dst != x86.EAX {
		t.Errorf("hidden gadget = %v", hidden)
	}
	// The trailing plain ret must be aligned.
	var tail *Gadget
	for _, g := range gs {
		if g.Addr == 0x1005 {
			tail = g
		}
	}
	if tail == nil || !tail.Aligned {
		t.Errorf("trailing ret gadget missing or unaligned: %v", tail)
	}
}

func TestCatalogQueries(t *testing.T) {
	code := []byte{
		0x58, 0xC3, // pop eax; ret
		0x5B, 0xC3, // pop ebx; ret
		0x01, 0xD8, 0xC3, // add eax, ebx; ret
		0x89, 0x08, 0xC3, // mov [eax], ecx; ret
	}
	cat := NewCatalog(ScanBytes(code, 0x2000, ScanConfig{}))
	cat.Sort()

	pops := cat.Find(KindPopReg, x86.NumRegs, x86.NumRegs)
	if len(pops) < 2 {
		t.Fatalf("found %d pop gadgets, want >= 2", len(pops))
	}
	eaxPops := cat.Find(KindPopReg, x86.EAX, x86.NumRegs)
	if len(eaxPops) != 1 || eaxPops[0].Addr != 0x2000 {
		t.Errorf("pop eax gadgets = %v", eaxPops)
	}
	adds := cat.Find(KindAddReg, x86.EAX, x86.EBX)
	if len(adds) != 1 {
		t.Errorf("add eax,ebx gadgets = %v", adds)
	}
	stores := cat.Find(KindStore, x86.NumRegs, x86.NumRegs)
	if len(stores) != 1 || stores[0].Dst != x86.EAX || stores[0].Src != x86.ECX {
		t.Errorf("store gadgets = %v", stores)
	}
	if ebxPops := cat.Find(KindPopReg, x86.EBX, x86.NumRegs); len(ebxPops) != 1 || ebxPops[0].Addr != 0x2002 {
		t.Errorf("pop ebx gadgets = %v", ebxPops)
	}
	n, cover := cat.CoveredBytes(0x2000, 0x2000+uint32(len(code)))
	if n == 0 || len(cover) != len(code) {
		t.Errorf("coverage = %d over %d", n, len(cover))
	}
}

// predictDst computes the expected destination value for a typed
// gadget.
func predictDst(g *Gadget, init [8]uint32, words []uint32, memVal uint32) (uint32, bool) {
	switch g.Kind {
	case KindPopReg:
		return words[g.PopSlot], true
	case KindMovReg:
		return init[g.Src], true
	case KindAddReg:
		return init[g.Dst] + init[g.Src], true
	case KindSubReg:
		return init[g.Dst] - init[g.Src], true
	case KindAndReg:
		return init[g.Dst] & init[g.Src], true
	case KindOrReg:
		return init[g.Dst] | init[g.Src], true
	case KindXorReg:
		return init[g.Dst] ^ init[g.Src], true
	case KindNegReg:
		return -init[g.Dst], true
	case KindNotReg:
		return ^init[g.Dst], true
	case KindShrImm:
		return init[g.Dst] >> g.ShiftK, true
	case KindShlImm:
		return init[g.Dst] << g.ShiftK, true
	case KindSarImm:
		return uint32(int32(init[g.Dst]) >> g.ShiftK), true
	case KindShlCL:
		return init[g.Dst] << (init[g.Src] & 31), true
	case KindShrCL:
		return init[g.Dst] >> (init[g.Src] & 31), true
	case KindSarCL:
		return uint32(int32(init[g.Dst]) >> (init[g.Src] & 31)), true
	case KindMulReg:
		return init[g.Dst] * init[g.Src], true
	case KindLoad:
		return memVal, true
	default:
		return 0, false
	}
}

// TestClassifierAgainstEmulator is the classifier's differential proof:
// every usable gadget found in random byte soup is executed on the
// emulator and must behave exactly as classified.
func TestClassifierAgainstEmulator(t *testing.T) {
	const (
		codeBase = 0x08048000
		dataBase = 0x08100000
		stkBase  = 0x0B000000
	)
	r := rand.New(rand.NewSource(99))
	tested := 0
	for blob := 0; blob < 300; blob++ {
		code := make([]byte, 64)
		r.Read(code)
		// Sprinkle returns so gadgets are plentiful.
		for i := 0; i < 8; i++ {
			code[r.Intn(len(code))] = 0xC3
		}
		for _, g := range ScanBytes(code, codeBase, ScanConfig{}) {
			if !g.Usable() || g.MemReads || g.MemWrites {
				continue
			}
			switch g.Kind {
			case KindAddEsp, KindPopEsp, KindRet, KindOther:
				continue
			}
			hasDiv := false
			for _, in := range g.Insts {
				if in.Op == x86.DIV || in.Op == x86.IDIV {
					hasDiv = true
				}
			}
			if hasDiv {
				continue
			}
			tested++
			verifyGadgetSemantics(t, r, code, g, codeBase, dataBase, stkBase)
		}
	}
	if tested < 30 {
		t.Errorf("only %d gadgets exercised; scanner or generator too weak", tested)
	}
	t.Logf("verified %d gadgets against the emulator", tested)
}

func verifyGadgetSemantics(t *testing.T, r *rand.Rand, code []byte, g *Gadget,
	codeBase, dataBase, stkBase uint32) {
	t.Helper()
	c := emu.New()
	text, err := c.Mem.Map(".text", codeBase, uint32(len(code)), image.PermR|image.PermX)
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, code)
	if _, err := c.Mem.Map(".data", dataBase, 0x1000, image.PermR|image.PermW); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mem.Map("[stack]", stkBase, 0x1000, image.PermR|image.PermW); err != nil {
		t.Fatal(err)
	}

	// Initial registers: random, but pointer operands of load/store
	// point into the data sandbox.
	var init [8]uint32
	for i := range init {
		init[i] = r.Uint32()
	}
	memVal := r.Uint32()
	switch g.Kind {
	case KindLoad:
		init[g.Src] = dataBase + 0x100
	case KindStore:
		init[g.Dst] = dataBase + 0x200
	}
	if g.Kind == KindLoad {
		if err := c.Mem.Store32(dataBase+0x100, memVal, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range init {
		c.Reg[i] = v
	}

	// Chain words consumed by the gadget, then the exit sentinel (and
	// a dummy CS for far returns).
	words := make([]uint32, g.StackPops)
	for i := range words {
		words[i] = r.Uint32()
	}
	sp := stkBase + 0x800
	c.Reg[x86.ESP] = sp
	for i, w := range words {
		if err := c.Mem.Store32(sp+uint32(4*i), w, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Mem.Store32(sp+uint32(4*g.StackPops), emu.ExitSentinel, 0); err != nil {
		t.Fatal(err)
	}
	if g.FarRet {
		if err := c.Mem.Store32(sp+uint32(4*g.StackPops+4), 0x23, 0); err != nil {
			t.Fatal(err)
		}
	}

	c.EIP = g.Addr
	c.MaxInst = 100
	if err := c.Run(); err != nil {
		t.Fatalf("gadget %v faulted: %v\ncpu: %s", g, err, c)
	}
	if !c.Exited {
		t.Fatalf("gadget %v did not reach the sentinel", g)
	}

	if g.Kind == KindStore {
		got, err := c.Mem.Load32(dataBase+0x200, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != init[g.Src] {
			t.Fatalf("gadget %v stored %#x, want %#x", g, got, init[g.Src])
		}
	} else {
		want, ok := predictDst(g, init, words, memVal)
		if !ok {
			t.Fatalf("no prediction for %v", g)
		}
		if got := c.Reg[g.Dst]; got != want {
			t.Fatalf("gadget %v: dst=%#x, want %#x (init=%x words=%x)",
				g, got, want, init, words)
		}
	}

	// Non-clobbered registers must be preserved.
	for reg := x86.Reg(0); reg < x86.NumRegs; reg++ {
		if reg == x86.ESP || reg == g.Dst || g.Clobbers.Has(reg) {
			continue
		}
		if c.Reg[reg] != init[reg] {
			t.Fatalf("gadget %v silently clobbered %v: %#x -> %#x",
				g, reg, init[reg], c.Reg[reg])
		}
	}
}

// TestClassifyExtendedKinds covers the multiply, CL-shift and
// structural divide classifications.
func TestClassifyExtendedKinds(t *testing.T) {
	tests := []struct {
		name   string
		bytes  []byte
		kind   Kind
		dst    x86.Reg
		src    x86.Reg
		usable bool
	}{
		{"imul eax,ebx", []byte{0x0F, 0xAF, 0xC3, 0xC3}, KindMulReg, x86.EAX, x86.EBX, true},
		{"shl eax,cl", []byte{0xD3, 0xE0, 0xC3}, KindShlCL, x86.EAX, x86.ECX, true},
		{"shr eax,cl", []byte{0xD3, 0xE8, 0xC3}, KindShrCL, x86.EAX, x86.ECX, true},
		{"sar eax,cl", []byte{0xD3, 0xF8, 0xC3}, KindSarCL, x86.EAX, x86.ECX, true},
		{"sar ebx,3", []byte{0xC1, 0xFB, 0x03, 0xC3}, KindSarImm, x86.EBX, 0, true},
		{"udiv", []byte{0x31, 0xD2, 0xF7, 0xF3, 0xC3}, KindUDivMod, x86.EAX, x86.EBX, true},
		{"sdiv", []byte{0x99, 0xF7, 0xFB, 0xC3}, KindSDivMod, x86.EAX, x86.EBX, true},
		// A divide without the edx-clearing prologue stays untyped.
		{"bare div", []byte{0xF7, 0xF3, 0xC3}, KindOther, 0, 0, false},
		// Pushing gadgets are never chain-usable (StackWrites).
		{"push pop", []byte{0x50, 0x59, 0xC3}, KindMovReg, x86.ECX, x86.EAX, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := scanAt(tt.bytes, 0x1000, 0, ScanConfig{}.withDefaults())
			if g == nil {
				t.Fatalf("scanAt(% x) found no gadget", tt.bytes)
			}
			if g.Kind != tt.kind {
				t.Fatalf("kind = %v, want %v (%v)", g.Kind, tt.kind, g)
			}
			if g.Usable() != tt.usable {
				t.Errorf("usable = %t, want %t (%v)", g.Usable(), tt.usable, g)
			}
			switch tt.kind {
			case KindMulReg:
				if g.Dst != tt.dst || g.Src != tt.src {
					t.Errorf("dst,src = %v,%v", g.Dst, g.Src)
				}
			case KindShlCL, KindShrCL, KindSarCL:
				if g.Dst != tt.dst || g.Src != tt.src {
					t.Errorf("dst,src = %v,%v", g.Dst, g.Src)
				}
			case KindUDivMod, KindSDivMod:
				if g.Src != tt.src || !g.Clobbers.Has(x86.EDX) {
					t.Errorf("src=%v clobbers=%v", g.Src, g.Clobbers)
				}
			}
		})
	}
}

// TestClassifyLoadWithIncidentalRead: a load gadget that reads memory
// a second time is flagged MemReads, whether the extra read goes
// through an unknown address or an entry-register one. Both shapes
// were chained as plain loads and faulted on their incidental read.
func TestClassifyLoadWithIncidentalRead(t *testing.T) {
	tests := []struct {
		name     string
		bytes    []byte
		memReads bool
	}{
		{"mov eax,[ebx]", []byte{0x8B, 0x03, 0xC3}, false},
		// test [ebx+0xe045c7be],edx; mov eax,[ebx]; ret
		{"test-mem then load", []byte{0x85, 0x93, 0xBE, 0xC7, 0x45, 0xE0, 0x8B, 0x03, 0xC3}, true},
		// adc eax,[edx-0x17ba38c0]; mov eax,[ebx]; ret
		{"adc-mem then load", []byte{0x13, 0x82, 0x40, 0xC7, 0x45, 0xE8, 0x8B, 0x03, 0xC3}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := scanAt(tt.bytes, 0x1000, 0, ScanConfig{}.withDefaults())
			if g == nil {
				t.Fatalf("scanAt(% x) found no gadget", tt.bytes)
			}
			if g.Kind != KindLoad || g.Dst != x86.EAX || g.Src != x86.EBX {
				t.Fatalf("got %v, want load eax,[ebx]", g)
			}
			if g.MemReads != tt.memReads {
				t.Errorf("MemReads = %t, want %t (%v)", g.MemReads, tt.memReads, g)
			}
		})
	}
}

// TestRegSetQuick checks RegSet's algebra.
func TestRegSetQuick(t *testing.T) {
	var s RegSet
	s.Add(x86.EAX)
	s.Add(x86.EDI)
	if !s.Has(x86.EAX) || !s.Has(x86.EDI) || s.Has(x86.EBX) {
		t.Errorf("membership broken: %v", s)
	}
	if s.String() != "{eax,edi}" {
		t.Errorf("String = %q", s.String())
	}
}
