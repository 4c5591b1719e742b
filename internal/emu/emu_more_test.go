package emu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parallax/internal/x86"
)

// TestNarrowALU cross-checks 8- and 16-bit arithmetic against Go
// reference computation, including the high-byte register aliases.
func TestNarrowALU(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		a := rng.Uint32()
		b := rng.Uint32()
		code := asm(t, func(bb *x86.Builder) {
			bb.I(ri(x86.MOV, x86.EAX, int32(a)))
			bb.I(ri(x86.MOV, x86.EBX, int32(b)))
			// ah += bl; then al ^= ah; result layout checked below.
			bb.I(x86.Inst{Op: x86.ADD, W: 8, Dst: x86.RegOp(x86.AH), Src: x86.RegOp(x86.BL)})
			bb.I(x86.Inst{Op: x86.XOR, W: 8, Dst: x86.RegOp(x86.AL), Src: x86.RegOp(x86.AH)})
			// 16-bit: cx = ax + bx.
			bb.I(x86.Inst{Op: x86.MOV, W: 16, Dst: x86.RegOp(x86.ECX), Src: x86.RegOp(x86.EAX)})
			bb.I(x86.Inst{Op: x86.ADD, W: 16, Dst: x86.RegOp(x86.ECX), Src: x86.RegOp(x86.EBX)})
			bb.I(x86.Inst{Op: x86.RET, W: 32})
		})
		c := testCPU(t, code)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}

		// Reference.
		ah := uint8(a>>8) + uint8(b)
		al := uint8(a) ^ ah
		wantEAX := a&0xFFFF0000 | uint32(ah)<<8 | uint32(al)
		if c.Reg[x86.EAX] != wantEAX {
			t.Fatalf("eax = %#x, want %#x (a=%#x b=%#x)", c.Reg[x86.EAX], wantEAX, a, b)
		}
		ax := uint16(wantEAX)
		wantCX := ax + uint16(b)
		if uint16(c.Reg[x86.ECX]) != wantCX {
			t.Fatalf("cx = %#x, want %#x", uint16(c.Reg[x86.ECX]), wantCX)
		}
	}
}

// TestShiftsAgainstReference checks every shift/rotate against Go
// semantics for in-range counts.
func TestShiftsAgainstReference(t *testing.T) {
	ops := []struct {
		op  x86.Op
		ref func(v uint32, n uint) uint32
	}{
		{x86.SHL, func(v uint32, n uint) uint32 { return v << n }},
		{x86.SHR, func(v uint32, n uint) uint32 { return v >> n }},
		{x86.SAR, func(v uint32, n uint) uint32 { return uint32(int32(v) >> n) }},
		{x86.ROL, func(v uint32, n uint) uint32 { return v<<n | v>>(32-n) }},
		{x86.ROR, func(v uint32, n uint) uint32 { return v>>n | v<<(32-n) }},
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		v := rng.Uint32()
		n := uint(1 + rng.Intn(31))
		o := ops[rng.Intn(len(ops))]
		code := asm(t, func(bb *x86.Builder) {
			bb.I(ri(x86.MOV, x86.EAX, int32(v)))
			bb.I(x86.Inst{Op: o.op, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(int32(n))})
			bb.I(x86.Inst{Op: x86.RET, W: 32})
		})
		c := testCPU(t, code)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if want := o.ref(v, n); c.Reg[x86.EAX] != want {
			t.Fatalf("%v %#x,%d = %#x, want %#x", o.op, v, n, c.Reg[x86.EAX], want)
		}
	}
}

func TestScasRepne(t *testing.T) {
	// Find a byte in a buffer with repne scasb.
	code := asm(t, func(b *x86.Builder) {
		// Fill 32 bytes with 0x11, plant 0x77 at offset 19.
		b.I(ri(x86.MOV, x86.EAX, 0x11))
		b.I(ri(x86.MOV, x86.EDI, int32(testDataBase)))
		b.I(ri(x86.MOV, x86.ECX, 32))
		b.I(x86.Inst{Op: x86.STOS, W: 8, Rep: true})
		b.I(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.MemAbs(testDataBase + 19),
			Src: x86.ImmOp(0x77)})
		// Scan.
		b.I(ri(x86.MOV, x86.EAX, 0x77))
		b.I(ri(x86.MOV, x86.EDI, int32(testDataBase)))
		b.I(ri(x86.MOV, x86.ECX, 32))
		b.I(x86.Inst{Op: x86.SCAS, W: 8, RepNE: true})
		// EDI now points one past the match.
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.EDI)})
		b.I(ri(x86.SUB, x86.EAX, int32(testDataBase+1)))
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 19 {
		t.Errorf("found at %d, want 19", c.Status)
	}
}

func TestCmpsRepe(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		// Two identical 8-byte regions, then a difference at byte 8.
		for i := int32(0); i < 9; i++ {
			v := int32(0x41) + i
			b.I(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.MemAbs(testDataBase + uint32(i)),
				Src: x86.ImmOp(v)})
			w := v
			if i == 8 {
				w = 0x7A
			}
			b.I(x86.Inst{Op: x86.MOV, W: 8, Dst: x86.MemAbs(testDataBase + 0x100 + uint32(i)),
				Src: x86.ImmOp(w)})
		}
		b.I(ri(x86.MOV, x86.ESI, int32(testDataBase)))
		b.I(ri(x86.MOV, x86.EDI, int32(testDataBase+0x100)))
		b.I(ri(x86.MOV, x86.ECX, 16))
		b.I(x86.Inst{Op: x86.CMPS, W: 8, Rep: true}) // repe: stop at mismatch
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.ECX)})
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// 9 elements consumed (8 equal + the mismatch), 16-9=7 left.
	if c.Status != 7 {
		t.Errorf("ecx = %d, want 7", c.Status)
	}
}

func TestPushfdPopfdRoundTrip(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, -1))
		b.I(ri(x86.ADD, x86.EAX, 1)) // CF=1 ZF=1
		b.I(x86.Inst{Op: x86.PUSHFD, W: 32})
		b.I(ri(x86.MOV, x86.EBX, 5))
		b.I(ri(x86.CMP, x86.EBX, 3)) // clears ZF, CF
		b.I(x86.Inst{Op: x86.POPFD, W: 32})
		// Recover CF and ZF via setcc.
		b.I(x86.Inst{Op: x86.SETCC, W: 8, Cond: x86.CondB, Dst: x86.RegOp(x86.CL)})
		b.I(x86.Inst{Op: x86.SETCC, W: 8, Cond: x86.CondE, Dst: x86.RegOp(x86.DL)})
		b.I(x86.Inst{Op: x86.MOVZX, W: 8, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.CL)})
		b.I(x86.Inst{Op: x86.MOVZX, W: 8, Dst: x86.RegOp(x86.EDX), Src: x86.RegOp(x86.DL)})
		b.I(x86.Inst{Op: x86.SHL, W: 32, Dst: x86.RegOp(x86.EDX), Src: x86.ImmOp(1)})
		b.I(rr(x86.OR, x86.EAX, x86.EDX))
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 3 { // CF|ZF<<1
		t.Errorf("flags = %d, want 3", c.Status)
	}
}

func TestXchgMemAndLods(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(testDataBase), Src: x86.ImmOp(111)})
		b.I(ri(x86.MOV, x86.EAX, 222))
		b.I(x86.Inst{Op: x86.XCHG, W: 32, Dst: x86.MemAbs(testDataBase),
			Src: x86.RegOp(x86.EAX)})
		// eax=111, [base]=222; lodsd from base gives 222.
		b.I(ri(x86.MOV, x86.ESI, int32(testDataBase)))
		b.I(x86.Inst{Op: x86.LODS, W: 32})
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 222 {
		t.Errorf("lods = %d, want 222", c.Status)
	}
}

// TestFlagsQuick exercises CF/OF for adc/sbb chains with random
// operands through 64-bit reference arithmetic.
func TestFlagsQuick(t *testing.T) {
	f := func(aLo, aHi, bLo, bHi uint32) bool {
		code := asm(t, func(b *x86.Builder) {
			b.I(ri(x86.MOV, x86.EAX, int32(aLo)))
			b.I(ri(x86.MOV, x86.EDX, int32(aHi)))
			b.I(ri(x86.ADD, x86.EAX, int32(bLo)))
			b.I(x86.Inst{Op: x86.ADC, W: 32, Dst: x86.RegOp(x86.EDX), Src: x86.ImmOp(int32(bHi))})
			b.I(x86.Inst{Op: x86.RET, W: 32})
		})
		c := testCPU(t, code)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		want := (uint64(aHi)<<32 | uint64(aLo)) + (uint64(bHi)<<32 | uint64(bLo))
		return c.Reg[x86.EAX] == uint32(want) && c.Reg[x86.EDX] == uint32(want>>32)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineValidate: the empty name and both backends validate;
// anything else is refused with the one error every layer reports.
func TestEngineValidate(t *testing.T) {
	for _, e := range append([]Engine{""}, Engines...) {
		if err := e.Validate(); err != nil {
			t.Errorf("Engine(%q).Validate() = %v", e, err)
		}
	}
	if err := Engine("qemu").Validate(); err == nil || err.Error() != `unknown engine "qemu" (want interp or tb)` {
		t.Errorf("Engine(\"qemu\").Validate() = %v", err)
	}
}
