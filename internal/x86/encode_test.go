package x86

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// encodeGolden pairs instructions with their expected encodings.
var encodeGolden = []struct {
	name string
	inst Inst
	addr uint32
	want []byte
}{
	{"push ebp", Inst{Op: PUSH, W: 32, Dst: RegOp(EBP)}, 0, []byte{0x55}},
	{"mov ebp,esp", Inst{Op: MOV, W: 32, Dst: RegOp(EBP), Src: RegOp(ESP)}, 0,
		[]byte{0x89, 0xE5}},
	{"sub esp,0x18", Inst{Op: SUB, W: 32, Dst: RegOp(ESP), Src: ImmOp(0x18)}, 0,
		[]byte{0x83, 0xEC, 0x18}},
	{"add esp,0x1000", Inst{Op: ADD, W: 32, Dst: RegOp(ESP), Src: ImmOp(0x1000)}, 0,
		[]byte{0x81, 0xC4, 0x00, 0x10, 0x00, 0x00}},
	{"ret", Inst{Op: RET, W: 32}, 0, []byte{0xC3}},
	{"retf", Inst{Op: RETF, W: 32}, 0, []byte{0xCB}},
	{"xor eax,eax", Inst{Op: XOR, W: 32, Dst: RegOp(EAX), Src: RegOp(EAX)}, 0,
		[]byte{0x31, 0xC0}},
	{"mov eax,imm", Inst{Op: MOV, W: 32, Dst: RegOp(EAX), Src: ImmOp(0x1234)}, 0,
		[]byte{0xB8, 0x34, 0x12, 0x00, 0x00}},
	{"call forward", Inst{Op: CALL, W: 32, Rel: true, Target: 0x100A}, 0x1000,
		[]byte{0xE8, 0x05, 0x00, 0x00, 0x00}},
	{"call backward", Inst{Op: CALL, W: 32, Rel: true, Target: 0xFFB}, 0x1000,
		[]byte{0xE8, 0xF6, 0xFF, 0xFF, 0xFF}},
	{"jne", Inst{Op: JCC, W: 32, Cond: CondNE, Rel: true, Target: 0x10}, 0,
		[]byte{0x0F, 0x85, 0x0A, 0x00, 0x00, 0x00}},
	{"mov [esp],eax", Inst{Op: MOV, W: 32, Dst: MemOp(ESP, 0), Src: RegOp(EAX)}, 0,
		[]byte{0x89, 0x04, 0x24}},
	{"mov [ebp-8],eax", Inst{Op: MOV, W: 32, Dst: MemOp(EBP, -8), Src: RegOp(EAX)}, 0,
		[]byte{0x89, 0x45, 0xF8}},
	{"mov [ebp],eax", Inst{Op: MOV, W: 32, Dst: MemOp(EBP, 0), Src: RegOp(EAX)}, 0,
		[]byte{0x89, 0x45, 0x00}},
	{"mov eax,[abs]", Inst{Op: MOV, W: 32, Dst: RegOp(EAX), Src: MemAbs(0x2000)}, 0,
		[]byte{0x8B, 0x05, 0x00, 0x20, 0x00, 0x00}},
	{"lea full sib", Inst{Op: LEA, W: 32, Dst: RegOp(EAX),
		Src: MemSIB(EDX, true, ECX, true, 4, 0x10)}, 0,
		[]byte{0x8D, 0x44, 0x8A, 0x10}},
	{"pop esp", Inst{Op: POP, W: 32, Dst: RegOp(ESP)}, 0, []byte{0x5C}},
	{"sete al", Inst{Op: SETCC, W: 8, Cond: CondE, Dst: RegOp(EAX)}, 0,
		[]byte{0x0F, 0x94, 0xC0}},
	{"shl eax,4", Inst{Op: SHL, W: 32, Dst: RegOp(EAX), Src: ImmOp(4)}, 0,
		[]byte{0xC1, 0xE0, 0x04}},
	{"shr ebx,cl", Inst{Op: SHR, W: 32, Dst: RegOp(EBX), Src: RegOp(ECX)}, 0,
		[]byte{0xD3, 0xEB}},
	{"neg eax", Inst{Op: NEG, W: 32, Dst: RegOp(EAX)}, 0, []byte{0xF7, 0xD8}},
	{"rep movsd", Inst{Op: MOVS, W: 32, Rep: true}, 0, []byte{0xF3, 0xA5}},
	{"pushad", Inst{Op: PUSHAD, W: 32}, 0, []byte{0x60}},
}

func TestEncodeGolden(t *testing.T) {
	for _, tt := range encodeGolden {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Encode(tt.inst, tt.addr)
			if err != nil {
				t.Fatalf("Encode(%v) error: %v", tt.inst, err)
			}
			if !bytes.Equal(got, tt.want) {
				t.Errorf("Encode(%v) = % x, want % x", tt.inst, got, tt.want)
			}
		})
	}
}

// TestAppendEncode: appending to a non-empty prefix yields the prefix
// followed by Encode's bytes, so relative displacements are computed
// from addr, not from the prefix length. A failed append returns the
// prefix unextended.
func TestAppendEncode(t *testing.T) {
	type tcase struct {
		name string
		inst Inst
		addr uint32
	}
	cases := []tcase{
		{"rel call", Inst{Op: CALL, W: 32, Rel: true, Target: 0x0804_9000}, 0x0804_8123},
		{"rel jmp back", Inst{Op: JMP, W: 32, Rel: true, Target: 0x0804_8000}, 0x0804_8123},
		{"rel jcc", Inst{Op: JCC, W: 32, Cond: CondL, Rel: true, Target: 0x10}, 0x7FFF_FFF0},
	}
	for _, g := range encodeGolden {
		cases = append(cases, tcase{g.name, g.inst, g.addr})
	}
	prefixes := [][]byte{{0xCC}, bytes.Repeat([]byte{0x90}, 37)}
	for _, tc := range cases {
		want, err := Encode(tc.inst, tc.addr)
		if err != nil {
			t.Fatalf("%s: Encode: %v", tc.name, err)
		}
		for _, prefix := range prefixes {
			// Full capacity forces a grow; spare capacity appends in place.
			for _, dst := range [][]byte{bytes.Clone(prefix), append(make([]byte, 0, 64), prefix...)} {
				got, err := AppendEncode(dst, tc.inst, tc.addr)
				if err != nil {
					t.Fatalf("%s: AppendEncode: %v", tc.name, err)
				}
				if !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
					t.Errorf("%s: AppendEncode(% x) = % x, want prefix ++ % x", tc.name, prefix, got, want)
				}
			}
		}
	}
	prefix := []byte{1, 2, 3}
	got, err := AppendEncode(prefix, Inst{Op: MOV, W: 32, Dst: MemOp(EAX, 0), Src: MemOp(EBX, 0)}, 0)
	if err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("AppendEncode(mem-to-mem mov) = % x, %v; want the prefix and an error", got, err)
	}
}

func TestEncodeErrors(t *testing.T) {
	tests := []struct {
		name string
		inst Inst
	}{
		{"mem to mem mov", Inst{Op: MOV, W: 32, Dst: MemOp(EAX, 0), Src: MemOp(EBX, 0)}},
		{"esp index", Inst{Op: MOV, W: 32, Dst: RegOp(EAX),
			Src: MemSIB(EAX, true, ESP, true, 1, 0)}},
		{"bad scale", Inst{Op: MOV, W: 32, Dst: RegOp(EAX),
			Src: MemSIB(EAX, true, EBX, true, 3, 0)}},
		{"shift by ebx", Inst{Op: SHL, W: 32, Dst: RegOp(EAX), Src: RegOp(EBX)}},
		{"lea from reg", Inst{Op: LEA, W: 32, Dst: RegOp(EAX), Src: RegOp(EBX)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Encode(tt.inst, 0); err == nil {
				t.Errorf("Encode(%v) succeeded, want error", tt.inst)
			}
		})
	}
}

// randInst generates a random but encodable instruction in canonical
// operand form (destination r/m, source reg — matching what Decode
// produces), so that encode→decode is an exact round trip.
func randInst(r *rand.Rand) Inst {
	reg := func() Operand { return RegOp(Reg(r.Intn(8))) }
	mem := func() Operand {
		switch r.Intn(4) {
		case 0:
			return MemAbs(r.Uint32())
		case 1:
			return MemOp(Reg(r.Intn(8)), int32(int8(r.Uint32())))
		case 2:
			return MemOp(Reg(r.Intn(8)), int32(r.Uint32())|0x100000) // force disp32
		default:
			idx := Reg(r.Intn(8))
			for idx == ESP {
				idx = Reg(r.Intn(8))
			}
			return MemSIB(Reg(r.Intn(8)), true, idx, true,
				uint8(1<<r.Intn(4)), int32(int8(r.Uint32())))
		}
	}
	rm := func() Operand {
		if r.Intn(2) == 0 {
			return reg()
		}
		return mem()
	}
	immFor := func(w uint8) int32 {
		switch w {
		case 8:
			return int32(int8(r.Uint32()))
		case 16:
			return int32(int16(r.Uint32()))
		default:
			return int32(r.Uint32())
		}
	}

	widths := []uint8{8, 16, 32}
	w := widths[r.Intn(3)]
	switch r.Intn(12) {
	case 0: // ALU r/m, r
		return Inst{Op: aluOps[r.Intn(8)], W: w, Dst: rm(), Src: reg()}
	case 1: // ALU reg, mem
		return Inst{Op: aluOps[r.Intn(8)], W: w, Dst: reg(), Src: mem()}
	case 2: // ALU r/m, imm
		return Inst{Op: aluOps[r.Intn(8)], W: w, Dst: rm(), Src: ImmOp(immFor(w))}
	case 3: // MOV forms
		switch r.Intn(4) {
		case 0:
			return Inst{Op: MOV, W: w, Dst: rm(), Src: reg()}
		case 1:
			return Inst{Op: MOV, W: w, Dst: reg(), Src: mem()}
		case 2:
			return Inst{Op: MOV, W: w, Dst: reg(), Src: ImmOp(immFor(w))}
		default:
			return Inst{Op: MOV, W: w, Dst: mem(), Src: ImmOp(immFor(w))}
		}
	case 4: // TEST
		if r.Intn(2) == 0 {
			return Inst{Op: TEST, W: w, Dst: rm(), Src: reg()}
		}
		return Inst{Op: TEST, W: w, Dst: rm(), Src: ImmOp(immFor(w))}
	case 5: // PUSH/POP (32-bit only)
		if r.Intn(2) == 0 {
			return Inst{Op: PUSH, W: 32, Dst: rm()}
		}
		return Inst{Op: POP, W: 32, Dst: rm()}
	case 6: // INC/DEC
		op := INC
		if r.Intn(2) == 0 {
			op = DEC
		}
		return Inst{Op: op, W: w, Dst: rm()}
	case 7: // group 3
		ops := []Op{NOT, NEG, MUL, DIV, IDIV}
		return Inst{Op: ops[r.Intn(len(ops))], W: w, Dst: rm()}
	case 8: // shifts
		ops := []Op{ROL, ROR, RCL, RCR, SHL, SHR, SAR}
		src := ImmOp(int32(r.Intn(31) + 1))
		if r.Intn(2) == 0 {
			src = RegOp(ECX)
		}
		return Inst{Op: ops[r.Intn(len(ops))], W: w, Dst: rm(), Src: src}
	case 9: // movzx/movsx
		op := MOVZX
		if r.Intn(2) == 0 {
			op = MOVSX
		}
		sw := uint8(8)
		if r.Intn(2) == 0 {
			sw = 16
		}
		return Inst{Op: op, W: sw, Dst: reg(), Src: rm()}
	case 10: // lea
		return Inst{Op: LEA, W: 32, Dst: reg(), Src: mem()}
	default: // setcc
		return Inst{Op: SETCC, W: 8, Cond: Cond(r.Intn(16)), Dst: rm()}
	}
}

// TestEncodeDecodeRoundTrip encodes random canonical instructions and
// checks that decoding reproduces them exactly.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const n = 50000
	for i := 0; i < n; i++ {
		want := randInst(r)
		addr := r.Uint32()
		enc, err := Encode(want, addr)
		if err != nil {
			t.Fatalf("Encode(%v) error: %v", want, err)
		}
		got, err := Decode(enc, addr)
		if err != nil {
			t.Fatalf("Decode(% x) (from %v) error: %v", enc, want, err)
		}
		if got.Len != len(enc) {
			t.Fatalf("Len = %d, want %d for %v", got.Len, len(enc), want)
		}
		got.Len = 0
		if got != want {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v\nbytes: % x", want, got, enc)
		}
	}
}

// TestBranchRoundTrip round-trips relative control transfers across
// random addresses.
func TestBranchRoundTrip(t *testing.T) {
	f := func(addr, target uint32, condRaw uint8, kind uint8) bool {
		var want Inst
		switch kind % 3 {
		case 0:
			want = Inst{Op: CALL, W: 32, Rel: true, Target: target}
		case 1:
			want = Inst{Op: JMP, W: 32, Rel: true, Target: target}
		default:
			want = Inst{Op: JCC, W: 32, Cond: Cond(condRaw % 16), Rel: true, Target: target}
		}
		enc, err := Encode(want, addr)
		if err != nil {
			return false
		}
		got, err := Decode(enc, addr)
		if err != nil {
			return false
		}
		got.Len = 0
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderLabels(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Label("start")
	b.JmpL("end") // forward reference
	b.Label("mid")
	b.I(Inst{Op: NOP, W: 32})
	b.JccL(CondE, "mid") // backward reference
	b.Label("end")
	b.I(Inst{Op: RET, W: 32})
	code, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// jmp at 0x1000 must land on "end".
	inst, err := Decode(code, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	endAddr, _ := b.LabelAddr("end")
	if inst.Target != endAddr {
		t.Errorf("jmp target = %#x, want %#x", inst.Target, endAddr)
	}

	// je must land on "mid".
	midAddr, _ := b.LabelAddr("mid")
	je, err := Decode(code[6:], 0x1006)
	if err != nil {
		t.Fatal(err)
	}
	if je.Op != JCC || je.Target != midAddr {
		t.Errorf("jcc = %v, want target %#x", je, midAddr)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("undefined label", func(t *testing.T) {
		b := NewBuilder(0)
		b.JmpL("nowhere")
		if _, err := b.Finish(); err == nil {
			t.Error("Finish succeeded with undefined label")
		}
	})
	t.Run("duplicate label", func(t *testing.T) {
		b := NewBuilder(0)
		b.Label("x")
		b.Label("x")
		if _, err := b.Finish(); err == nil {
			t.Error("Finish succeeded with duplicate label")
		}
	})
	t.Run("sticky encode error", func(t *testing.T) {
		b := NewBuilder(0)
		b.I(Inst{Op: MOV, W: 32, Dst: MemOp(EAX, 0), Src: MemOp(EBX, 0)})
		b.I(Inst{Op: RET, W: 32})
		if _, err := b.Finish(); err == nil {
			t.Error("Finish succeeded after bad instruction")
		}
	})
}

func TestBuilderAbsLabel(t *testing.T) {
	b := NewBuilder(0x400000)
	b.I(Inst{Op: NOP, W: 32})
	b.Label("data")
	b.MovRegLabel(EAX, "data", 8)
	code, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 6 {
		t.Fatalf("unexpected code size %d", len(code))
	}
	dataAddr, _ := b.LabelAddr("data")
	if dataAddr != 0x400001 {
		t.Errorf("label at %#x, want 0x400001", dataAddr)
	}
	inst, err := Decode(code[1:], dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Op != MOV || uint32(inst.Src.Imm) != dataAddr+8 {
		t.Errorf("mov = %v, want imm %#x", inst, dataAddr+8)
	}
}
