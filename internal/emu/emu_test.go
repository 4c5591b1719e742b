package emu

import (
	"errors"
	"math/rand"
	"testing"

	"parallax/internal/image"
	"parallax/internal/x86"
)

const (
	testTextBase  = 0x08048000
	testDataBase  = 0x08100000
	testStackBase = 0x0BF00000
	testStackSize = 0x10000
)

// testCPU builds a CPU with text (RX), data (RW) and stack segments,
// loads the given code, and points EIP at its start with the exit
// sentinel on the stack.
func testCPU(t *testing.T, code []byte) *CPU {
	t.Helper()
	c := New()
	text, err := c.Mem.Map(".text", testTextBase, uint32(len(code)+16), image.PermR|image.PermX)
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, code)
	if _, err := c.Mem.Map(".data", testDataBase, 0x1000, image.PermR|image.PermW); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mem.Map("[stack]", testStackBase, testStackSize,
		image.PermR|image.PermW); err != nil {
		t.Fatal(err)
	}
	c.Reg[x86.ESP] = testStackBase + testStackSize - 16
	if err := c.push32(ExitSentinel); err != nil {
		t.Fatal(err)
	}
	c.EIP = testTextBase
	return c
}

func asm(t *testing.T, build func(b *x86.Builder)) []byte {
	t.Helper()
	b := x86.NewBuilder(testTextBase)
	build(b)
	code, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func ri(op x86.Op, r x86.Reg, v int32) x86.Inst {
	return x86.Inst{Op: op, W: 32, Dst: x86.RegOp(r), Src: x86.ImmOp(v)}
}

func rr(op x86.Op, d, s x86.Reg) x86.Inst {
	return x86.Inst{Op: op, W: 32, Dst: x86.RegOp(d), Src: x86.RegOp(s)}
}

func TestBasicArithmetic(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 10))
		b.I(ri(x86.MOV, x86.EBX, 32))
		b.I(rr(x86.ADD, x86.EAX, x86.EBX))
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Exited || c.Status != 42 {
		t.Errorf("status = %d (exited=%t), want 42", c.Status, c.Exited)
	}
	if c.Icount != 4 {
		t.Errorf("icount = %d, want 4", c.Icount)
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a loop.
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 0))
		b.I(ri(x86.MOV, x86.ECX, 10))
		b.Label("loop")
		b.I(rr(x86.ADD, x86.EAX, x86.ECX))
		b.I(x86.Inst{Op: x86.DEC, W: 32, Dst: x86.RegOp(x86.ECX)})
		b.JccL(x86.CondNE, "loop")
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 55 {
		t.Errorf("status = %d, want 55", c.Status)
	}
}

func TestCallRetAndStack(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 5))
		b.I(x86.Inst{Op: x86.PUSH, W: 32, Dst: x86.RegOp(x86.EAX)})
		b.CallL("double")
		b.I(ri(x86.ADD, x86.ESP, 4))
		b.I(x86.Inst{Op: x86.RET, W: 32})
		b.Label("double")
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX),
			Src: x86.MemOp(x86.ESP, 4)})
		b.I(rr(x86.ADD, x86.EAX, x86.EAX))
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 10 {
		t.Errorf("status = %d, want 10", c.Status)
	}
}

func TestMemoryAndSIB(t *testing.T) {
	// Store a table of squares via SIB addressing, then read back 7².
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.ECX, 0)) // i
		b.Label("loop")
		b.I(rr(x86.MOV, x86.EAX, x86.ECX))
		b.I(x86.Inst{Op: x86.IMUL, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.ECX)})
		b.I(x86.Inst{Op: x86.MOV, W: 32,
			Dst: x86.MemSIB(0, false, x86.ECX, true, 4, int32(testDataBase)),
			Src: x86.RegOp(x86.EAX)})
		b.I(x86.Inst{Op: x86.INC, W: 32, Dst: x86.RegOp(x86.ECX)})
		b.I(ri(x86.CMP, x86.ECX, 10))
		b.JccL(x86.CondB, "loop")
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX),
			Src: x86.MemAbs(testDataBase + 7*4)})
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 49 {
		t.Errorf("status = %d, want 49", c.Status)
	}
}

func TestPushadPopadRoundTrip(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 1))
		b.I(ri(x86.MOV, x86.EBX, 2))
		b.I(ri(x86.MOV, x86.ECX, 3))
		b.I(ri(x86.MOV, x86.EDX, 4))
		b.I(ri(x86.MOV, x86.ESI, 5))
		b.I(ri(x86.MOV, x86.EDI, 6))
		b.I(x86.Inst{Op: x86.PUSHAD, W: 32})
		b.I(ri(x86.MOV, x86.EAX, 99))
		b.I(ri(x86.MOV, x86.EBX, 99))
		b.I(ri(x86.MOV, x86.ESI, 99))
		b.I(x86.Inst{Op: x86.POPAD, W: 32})
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[x86.Reg]uint32{
		x86.EAX: 1, x86.EBX: 2, x86.ECX: 3, x86.EDX: 4, x86.ESI: 5, x86.EDI: 6,
	}
	for r, v := range want {
		if c.Reg[r] != v {
			t.Errorf("%v = %d, want %d", r, c.Reg[r], v)
		}
	}
}

// refFlags computes expected CF/ZF/SF/OF for 32-bit add/sub.
func refFlags(op x86.Op, a, b uint32) (cf, zf, sf, of bool) {
	var r uint32
	switch op {
	case x86.ADD:
		r = a + b
		cf = uint64(a)+uint64(b) > 0xFFFFFFFF
		of = (int32(a) > 0 && int32(b) > 0 && int32(r) < 0) ||
			(int32(a) < 0 && int32(b) < 0 && int32(r) >= 0)
	case x86.SUB, x86.CMP:
		r = a - b
		cf = a < b
		of = (int32(a) >= 0 && int32(b) < 0 && int32(r) < 0) ||
			(int32(a) < 0 && int32(b) >= 0 && int32(r) >= 0)
	}
	zf = r == 0
	sf = int32(r) < 0
	return
}

func TestFlagSemanticsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []x86.Op{x86.ADD, x86.SUB, x86.CMP}
	for i := 0; i < 2000; i++ {
		a := rng.Uint32()
		b := rng.Uint32()
		// Bias toward interesting boundary values.
		switch rng.Intn(4) {
		case 0:
			a = []uint32{0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}[rng.Intn(5)]
		case 1:
			b = []uint32{0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}[rng.Intn(5)]
		}
		op := ops[rng.Intn(len(ops))]
		code := asm(t, func(bb *x86.Builder) {
			bb.I(ri(x86.MOV, x86.EAX, int32(a)))
			bb.I(ri(x86.MOV, x86.EBX, int32(b)))
			bb.I(rr(op, x86.EAX, x86.EBX))
			bb.I(x86.Inst{Op: x86.RET, W: 32})
		})
		c := testCPU(t, code)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		cf, zf, sf, of := refFlags(op, a, b)
		if c.CF != cf || c.ZF != zf || c.SF != sf || c.OF != of {
			t.Fatalf("%v %#x,%#x: flags cf=%t zf=%t sf=%t of=%t, want %t %t %t %t",
				op, a, b, c.CF, c.ZF, c.SF, c.OF, cf, zf, sf, of)
		}
	}
}

func TestAdcCarryPropagation(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, -1)) // 0xFFFFFFFF
		b.I(ri(x86.MOV, x86.EBX, 7))  // high word
		b.I(ri(x86.ADD, x86.EAX, 1))  // sets CF
		b.I(ri(x86.ADC, x86.EBX, 0))  // consumes CF
		b.I(rr(x86.MOV, x86.EAX, x86.EBX))
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 8 {
		t.Errorf("status = %d, want 8", c.Status)
	}
}

func TestMulDiv(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 1000))
		b.I(ri(x86.MOV, x86.ECX, 77))
		b.I(x86.Inst{Op: x86.MUL, W: 32, Dst: x86.RegOp(x86.ECX)}) // edx:eax = 77000
		b.I(ri(x86.MOV, x86.ECX, 7))
		b.I(x86.Inst{Op: x86.DIV, W: 32, Dst: x86.RegOp(x86.ECX)}) // eax = 11000
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 11000 {
		t.Errorf("status = %d, want 11000", c.Status)
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 1))
		b.I(ri(x86.MOV, x86.EDX, 0))
		b.I(ri(x86.MOV, x86.ECX, 0))
		b.I(x86.Inst{Op: x86.DIV, W: 32, Dst: x86.RegOp(x86.ECX)})
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	err := c.Run()
	var de *DivideError
	if !errors.As(err, &de) {
		t.Errorf("Run error = %v, want DivideError", err)
	}
}

func TestWXEnforcement(t *testing.T) {
	t.Run("write to text faults", func(t *testing.T) {
		code := asm(t, func(b *x86.Builder) {
			b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(testTextBase),
				Src: x86.ImmOp(int32(-0x6F6F6F70))})
			b.I(x86.Inst{Op: x86.RET, W: 32})
		})
		c := testCPU(t, code)
		err := c.Run()
		var f *FaultError
		if !errors.As(err, &f) || f.Access != AccessWrite {
			t.Errorf("Run error = %v, want write FaultError", err)
		}
	})
	t.Run("execute data faults", func(t *testing.T) {
		code := asm(t, func(b *x86.Builder) {
			b.I(ri(x86.MOV, x86.EAX, int32(testDataBase)))
			b.I(x86.Inst{Op: x86.JMP, W: 32, Dst: x86.RegOp(x86.EAX)})
		})
		c := testCPU(t, code)
		err := c.Run()
		var f *FaultError
		if !errors.As(err, &f) || f.Access != AccessFetch {
			t.Errorf("Run error = %v, want fetch FaultError", err)
		}
	})
}

func TestSyscallWriteExit(t *testing.T) {
	msg := "hello, emulated world\n"
	code := asm(t, func(b *x86.Builder) {
		// Store message bytes into data memory, then write(1, buf, len).
		for i, ch := range []byte(msg) {
			b.I(x86.Inst{Op: x86.MOV, W: 8,
				Dst: x86.MemAbs(testDataBase + uint32(i)), Src: x86.ImmOp(int32(ch))})
		}
		b.I(ri(x86.MOV, x86.EAX, SysWrite))
		b.I(ri(x86.MOV, x86.EBX, 1))
		b.I(ri(x86.MOV, x86.ECX, int32(testDataBase)))
		b.I(ri(x86.MOV, x86.EDX, int32(len(msg))))
		b.I(x86.Inst{Op: x86.INT, W: 32, Imm: 0x80})
		b.I(ri(x86.MOV, x86.EAX, SysExit))
		b.I(ri(x86.MOV, x86.EBX, 3))
		b.I(x86.Inst{Op: x86.INT, W: 32, Imm: 0x80})
	})
	c := testCPU(t, code)
	os := NewOS(nil)
	c.OS = os
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := os.Stdout.String(); got != msg {
		t.Errorf("stdout = %q, want %q", got, msg)
	}
	if c.Status != 3 {
		t.Errorf("status = %d, want 3", c.Status)
	}
}

func TestPtraceSemantics(t *testing.T) {
	build := func() []byte {
		return asm(t, func(b *x86.Builder) {
			b.I(ri(x86.MOV, x86.EAX, SysPtrace))
			b.I(ri(x86.MOV, x86.EBX, PtraceTraceme))
			b.I(x86.Inst{Op: x86.INT, W: 32, Imm: 0x80})
			b.I(x86.Inst{Op: x86.RET, W: 32})
		})
	}
	t.Run("clean", func(t *testing.T) {
		c := testCPU(t, build())
		c.OS = NewOS(nil)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if c.Status != 0 {
			t.Errorf("ptrace = %d, want 0", c.Status)
		}
	})
	t.Run("debugger attached", func(t *testing.T) {
		c := testCPU(t, build())
		c.OS = &OS{DebuggerAttached: true}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if c.Status != -EPERM {
			t.Errorf("ptrace = %d, want %d", c.Status, -EPERM)
		}
	})
}

func TestStringOps(t *testing.T) {
	// rep stosd fills, rep movsd copies, then verify one dword.
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 0x11223344))
		b.I(ri(x86.MOV, x86.EDI, int32(testDataBase)))
		b.I(ri(x86.MOV, x86.ECX, 8))
		b.I(x86.Inst{Op: x86.STOS, W: 32, Rep: true})
		b.I(ri(x86.MOV, x86.ESI, int32(testDataBase)))
		b.I(ri(x86.MOV, x86.EDI, int32(testDataBase+0x100)))
		b.I(ri(x86.MOV, x86.ECX, 8))
		b.I(x86.Inst{Op: x86.MOVS, W: 32, Rep: true})
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX),
			Src: x86.MemAbs(testDataBase + 0x100 + 7*4)})
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if uint32(c.Status) != 0x11223344 {
		t.Errorf("status = %#x, want 0x11223344", uint32(c.Status))
	}
}

func TestInstLimit(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.Label("spin")
		b.JmpL("spin")
	})
	c := testCPU(t, code)
	c.MaxInst = 1000
	if err := c.Run(); !errors.Is(err, ErrInstLimit) {
		t.Errorf("Run error = %v, want ErrInstLimit", err)
	}
}

// TestManualROPChain is the heart of the whole repository in miniature:
// gadgets in text, a chain of gadget addresses in data memory, a stack
// pivot — and tampering with a gadget byte derails the computation.
func TestManualROPChain(t *testing.T) {
	var g1, g2, done uint32
	code := asm(t, func(b *x86.Builder) {
		// Loader: save a return point, pivot esp into the chain.
		b.I(ri(x86.MOV, x86.ESI, 0))
		b.I(ri(x86.MOV, x86.ESP, int32(testDataBase))) // pivot
		b.I(x86.Inst{Op: x86.RET, W: 32})              // enter chain

		b.Label("g1") // pop eax; ret
		b.I(x86.Inst{Op: x86.POP, W: 32, Dst: x86.RegOp(x86.EAX)})
		b.I(x86.Inst{Op: x86.RET, W: 32})

		b.Label("g2") // add esi, eax; ret
		b.I(rr(x86.ADD, x86.ESI, x86.EAX))
		b.I(x86.Inst{Op: x86.RET, W: 32})

		b.Label("done") // mov eax, esi; ret — return to sentinel
		b.I(rr(x86.MOV, x86.EAX, x86.ESI))
		b.I(ri(x86.MOV, x86.ESP, int32(testDataBase+0x100)))
		b.I(x86.Inst{Op: x86.RET, W: 32})

		a, _ := b.LabelAddr("g1")
		g1 = a
		a, _ = b.LabelAddr("g2")
		g2 = a
		a, _ = b.LabelAddr("done")
		done = a
	})

	run := func(tamper bool) (*CPU, error) {
		c := testCPU(t, code)
		// Chain: g1, 40, g2, g1, 2, g2, done  => esi = 42.
		words := []uint32{g1, 40, g2, g1, 2, g2, done}
		for i, w := range words {
			if err := c.Mem.Store32(testDataBase+uint32(i*4), w, 0); err != nil {
				t.Fatal(err)
			}
		}
		// Exit continuation at testDataBase+0x100... actually on the
		// stack segment: store sentinel where "done" re-pivots.
		if err := c.Mem.Store32(testDataBase+0x100, ExitSentinel, 0); err != nil {
			t.Fatal(err)
		}
		if tamper {
			// Overwrite g2's add with a nop-like byte pair: destroys
			// the gadget semantics exactly as code patching would.
			if err := c.Mem.Poke(g2, []byte{0x90, 0x90}); err != nil {
				t.Fatal(err)
			}
		}
		err := c.Run()
		return c, err
	}

	clean, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Status != 42 {
		t.Fatalf("clean chain result = %d, want 42", clean.Status)
	}

	tampered, err := run(true)
	if err == nil && tampered.Status == 42 {
		t.Error("tampered chain still produced the correct result")
	}
}

// TestFetchOverlay exercises the Wurster et al. split-cache view: the
// executed bytes differ from the bytes data reads observe.
func TestFetchOverlay(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 1)) // will be overlaid to mov eax, 2
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	// Overlay replaces the immediate of the first mov.
	over, err := x86.Encode(ri(x86.MOV, x86.EAX, 2), testTextBase)
	if err != nil {
		t.Fatal(err)
	}
	c.SetOverlay(testTextBase, over)

	// A data read of the same bytes still sees the original immediate.
	b, err := c.Mem.Read(testTextBase, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b[1] != 1 {
		t.Errorf("data view byte = %d, want original 1", b[1])
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 2 {
		t.Errorf("status = %d, want overlaid 2", c.Status)
	}
}

func TestLahfSahf(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 0))
		b.I(ri(x86.CMP, x86.EAX, 0)) // ZF=1
		b.I(x86.Inst{Op: x86.LAHF, W: 8})
		b.I(x86.Inst{Op: x86.SHR, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(8)})
		b.I(ri(x86.AND, x86.EAX, 0x40)) // isolate ZF bit
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 0x40 {
		t.Errorf("status = %#x, want 0x40", uint32(c.Status))
	}
}

func TestSetccMovzx(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 3))
		b.I(ri(x86.CMP, x86.EAX, 5))
		b.I(x86.Inst{Op: x86.SETCC, W: 8, Cond: x86.CondL, Dst: x86.RegOp(x86.CL)})
		b.I(x86.Inst{Op: x86.MOVZX, W: 8, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.CL)})
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 1 {
		t.Errorf("status = %d, want 1", c.Status)
	}
}

func TestRetf(t *testing.T) {
	// Far return pops EIP and then a discarded CS word, so the CS
	// dummy is pushed first.
	code := asm(t, func(b *x86.Builder) {
		b.I(x86.Inst{Op: x86.PUSH, W: 32, Dst: x86.ImmOp(0x23)}) // CS (popped second)
		b.PushLabel("after", 0)                                  // EIP (popped first)
		b.I(x86.Inst{Op: x86.RETF, W: 32})
		b.Label("dead")
		b.I(ri(x86.MOV, x86.EAX, 1))
		b.I(x86.Inst{Op: x86.RET, W: 32})
		b.Label("after")
		b.I(ri(x86.MOV, x86.EAX, 7))
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 7 {
		t.Errorf("status = %d, want 7", c.Status)
	}
}

func TestProfileCounts(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.ECX, 5))
		b.Label("loop")
		b.I(x86.Inst{Op: x86.DEC, W: 32, Dst: x86.RegOp(x86.ECX)})
		b.JccL(x86.CondNE, "loop")
		b.I(ri(x86.MOV, x86.EAX, 0))
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	c.EnableProfile()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	decAddr := uint32(testTextBase + 5) // after the 5-byte mov
	if got := c.Profile()[decAddr]; got != 5 {
		t.Errorf("dec executed %d times, want 5", got)
	}
}

func TestSegmentOverlapRejected(t *testing.T) {
	m := NewMemory()
	if _, err := m.Map("a", 0x1000, 0x1000, image.PermR); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("b", 0x1800, 0x1000, image.PermR); err == nil {
		t.Error("overlapping Map succeeded")
	}
	if _, err := m.Map("c", 0, 0, image.PermR); err == nil {
		t.Error("zero-size Map succeeded")
	}
}
