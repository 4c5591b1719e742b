package x86

import (
	"errors"
	"testing"
	"testing/quick"
)

// TestDecodeGolden checks decoding of hand-verified byte sequences
// against their expected disassembly text.
func TestDecodeGolden(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
		addr uint32
		want string
	}{
		{"push ebp", []byte{0x55}, 0, "push ebp"},
		{"mov ebp,esp", []byte{0x89, 0xE5}, 0, "mov ebp,esp"},
		{"sub esp,24", []byte{0x83, 0xEC, 0x18}, 0, "sub esp,0x18"},
		{"mov eax,0", []byte{0xB8, 0x00, 0x00, 0x00, 0x00}, 0, "mov eax,0x0"},
		{"mov [esp],eax", []byte{0x89, 0x04, 0x24}, 0, "mov dword [esp],eax"},
		{"ret", []byte{0xC3}, 0, "ret"},
		{"retf", []byte{0xCB}, 0, "retf"},
		{"ret imm", []byte{0xC2, 0x08, 0x00}, 0, "ret 0x8"},
		{"leave", []byte{0xC9}, 0, "leave"},
		{"nop", []byte{0x90}, 0, "nop"},
		{"int3", []byte{0xCC}, 0, "int3"},
		{"int 0x80", []byte{0xCD, 0x80}, 0, "int 0x80"},
		{"call rel", []byte{0xE8, 0x05, 0x00, 0x00, 0x00}, 0x1000, "call 0x100a"},
		{"call neg rel", []byte{0xE8, 0xF6, 0xFF, 0xFF, 0xFF}, 0x1000, "call 0xffb"},
		{"jmp rel8", []byte{0xEB, 0x10}, 0x2000, "jmp 0x2012"},
		{"jmp rel32", []byte{0xE9, 0x00, 0x01, 0x00, 0x00}, 0x2000, "jmp 0x2105"},
		{"jne rel8", []byte{0x75, 0x06}, 0x100, "jne 0x108"},
		{"js rel8", []byte{0x78, 0xFE}, 0x100, "js 0x100"},
		{"je rel32", []byte{0x0F, 0x84, 0x10, 0x00, 0x00, 0x00}, 0, "je 0x16"},
		{"lea eax,[esp+4]", []byte{0x8D, 0x44, 0x24, 0x04}, 0, "lea eax,[esp+0x4]"},
		{"lea sib full", []byte{0x8D, 0x84, 0x8A, 0x10, 0x00, 0x00, 0x00}, 0,
			"lea eax,[edx+ecx*4+0x10]"},
		{"movzx", []byte{0x0F, 0xB6, 0x45, 0xFF}, 0, "movzx eax,byte(ignored)"},
		{"div ecx", []byte{0xF7, 0xF1}, 0, "div ecx"},
		{"idiv mem", []byte{0xF7, 0x3D, 0x00, 0x10, 0x00, 0x00}, 0, "idiv dword [0x1000]"},
		{"shl eax,4", []byte{0xC1, 0xE0, 0x04}, 0, "shl eax,0x4"},
		{"sar eax,1", []byte{0xD1, 0xF8}, 0, "sar eax,0x1"},
		{"shr ebx,cl", []byte{0xD3, 0xEB}, 0, "shr ebx,cl"},
		{"add [ecx],eax", []byte{0x01, 0x01}, 0, "add dword [ecx],eax"},
		{"add al,0", []byte{0x04, 0x00}, 0, "add al,0x0"},
		{"add [eax],al", []byte{0x00, 0x00}, 0, "add byte [eax],al"},
		{"add al,ch", []byte{0x00, 0xE8}, 0, "add al,ch"},
		{"add bl,ch", []byte{0x00, 0xEB}, 0, "add bl,ch"},
		{"xor eax,eax", []byte{0x31, 0xC0}, 0, "xor eax,eax"},
		{"cmp eax,imm", []byte{0x3D, 0x39, 0x05, 0x00, 0x00}, 0, "cmp eax,0x539"},
		{"test eax,eax", []byte{0x85, 0xC0}, 0, "test eax,eax"},
		{"inc eax", []byte{0x40}, 0, "inc eax"},
		{"dec edi", []byte{0x4F}, 0, "dec edi"},
		{"push imm8", []byte{0x6A, 0x01}, 0, "push 0x1"},
		{"push imm32", []byte{0x68, 0x00, 0x02, 0x00, 0x00}, 0, "push 0x200"},
		{"push imm8 signext", []byte{0x6A, 0xFF}, 0, "push 0xffffffff"},
		{"pop ebx", []byte{0x5B}, 0, "pop ebx"},
		{"pushad", []byte{0x60}, 0, "pushad"},
		{"popad", []byte{0x61}, 0, "popad"},
		{"pushfd", []byte{0x9C}, 0, "pushfd"},
		{"popfd", []byte{0x9D}, 0, "popfd"},
		{"lahf", []byte{0x9F}, 0, "lahf"},
		{"sahf", []byte{0x9E}, 0, "sahf"},
		{"cdq", []byte{0x99}, 0, "cdq"},
		{"cwde", []byte{0x98}, 0, "cwde"},
		{"cwd", []byte{0x66, 0x99}, 0, "cwd"},
		{"cbw", []byte{0x66, 0x98}, 0, "cbw"},
		{"sete al", []byte{0x0F, 0x94, 0xC0}, 0, "sete al"},
		{"setl dl", []byte{0x0F, 0x9C, 0xC2}, 0, "setl dl"},
		{"imul ebx,ecx", []byte{0x0F, 0xAF, 0xD9}, 0, "imul ebx,ecx"},
		{"imul 3op imm8", []byte{0x6B, 0xC3, 0x07}, 0, "imul eax,ebx,0x7"},
		{"imul 3op imm32", []byte{0x69, 0xC3, 0x00, 0x01, 0x00, 0x00}, 0,
			"imul eax,ebx,0x100"},
		{"neg eax", []byte{0xF7, 0xD8}, 0, "neg eax"},
		{"not ecx", []byte{0xF7, 0xD1}, 0, "not ecx"},
		{"xchg eax,ebx short", []byte{0x93}, 0, "xchg eax,ebx"},
		{"mov al,imm", []byte{0xB0, 0x41}, 0, "mov al,0x41"},
		{"mov ch,imm", []byte{0xB5, 0x42}, 0, "mov ch,0x42"},
		{"mov moffs load", []byte{0xA1, 0x00, 0x20, 0x00, 0x00}, 0, "mov eax,dword(ignored)"},
		{"mov mem imm", []byte{0xC7, 0x45, 0xF8, 0x0A, 0x00, 0x00, 0x00}, 0,
			"mov dword [ebp-0x8],0xa"},
		{"call indirect reg", []byte{0xFF, 0xD0}, 0, "call eax"},
		{"jmp indirect mem", []byte{0xFF, 0x25, 0x00, 0x10, 0x00, 0x00}, 0,
			"jmp dword [0x1000]"},
		{"push mem", []byte{0xFF, 0x35, 0x44, 0x33, 0x22, 0x11}, 0, "push dword [0x11223344]"},
		{"pop mem", []byte{0x8F, 0x00}, 0, "pop dword [eax]"},
		{"rep movsd", []byte{0xF3, 0xA5}, 0, "rep movsd"},
		{"rep stosb", []byte{0xF3, 0xAA}, 0, "rep stosb"},
		{"hlt", []byte{0xF4}, 0, "hlt"},
		{"clc", []byte{0xF8}, 0, "clc"},
		{"std", []byte{0xFD}, 0, "std"},
		{"sar mem8", []byte{0xC0, 0x79, 0x07, 0x8B}, 0, "sar byte [ecx+0x7],0x8b"},
		{"16-bit add", []byte{0x66, 0x01, 0xC3}, 0, "add bx,ax"},
		{"seg prefix ignored", []byte{0x65, 0x8B, 0x00}, 0, "mov eax,dword [eax]"},
		{"multibyte nop", []byte{0x0F, 0x1F, 0x44, 0x00, 0x00}, 0, "nop"},
		{"ebp base no disp", []byte{0x8B, 0x45, 0x00}, 0, "mov eax,dword [ebp]"},
		{"abs without base", []byte{0x8B, 0x1D, 0x78, 0x56, 0x34, 0x12}, 0,
			"mov ebx,dword [0x12345678]"},
		{"index no base", []byte{0x8B, 0x04, 0x8D, 0x00, 0x10, 0x00, 0x00}, 0,
			"mov eax,[ecx*4+0x1000](ignored)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			inst, err := Decode(tt.b, tt.addr)
			if err != nil {
				t.Fatalf("Decode(% x) error: %v", tt.b, err)
			}
			if inst.Len != len(tt.b) {
				t.Errorf("Len = %d, want %d", inst.Len, len(tt.b))
			}
			// A few entries only pin down structure, not exact text.
			switch tt.name {
			case "movzx":
				if inst.Op != MOVZX || inst.W != 8 || !inst.Dst.IsReg(EAX) {
					t.Errorf("got %+v", inst)
				}
			case "mov moffs load":
				if inst.Op != MOV || !inst.Dst.IsReg(EAX) || inst.Src.Kind != KMem ||
					inst.Src.Disp != 0x2000 || inst.Src.HasBase {
					t.Errorf("got %+v", inst)
				}
			case "index no base":
				if inst.Src.HasBase || !inst.Src.HasIndex || inst.Src.Scale != 4 ||
					inst.Src.Disp != 0x1000 {
					t.Errorf("got %+v", inst)
				}
			default:
				if got := inst.String(); got != tt.want {
					t.Errorf("String() = %q, want %q", got, tt.want)
				}
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"truncated modrm", []byte{0x8B}, ErrTruncated},
		{"truncated imm", []byte{0xB8, 0x01, 0x02}, ErrTruncated},
		{"truncated sib", []byte{0x8B, 0x04}, ErrTruncated},
		{"truncated disp", []byte{0x8B, 0x80, 0x01}, ErrTruncated},
		{"truncated two-byte", []byte{0x0F}, ErrTruncated},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode(tt.b, 0)
			if !errors.Is(err, tt.want) {
				t.Errorf("Decode error = %v, want %v", err, tt.want)
			}
		})
	}

	t.Run("unsupported", func(t *testing.T) {
		for _, tt := range []struct {
			b    []byte
			want UnsupportedError
		}{
			{[]byte{0x27}, UnsupportedError{Opcode: 0x27, Position: 0x1000}},                      // daa
			{[]byte{0x0F, 0x05}, UnsupportedError{Opcode: 0x05, TwoByte: true, Position: 0x1000}}, // syscall
			{[]byte{0xD8, 0xC0}, UnsupportedError{Opcode: 0xD8, Position: 0x1000}},                // x87
			{[]byte{0x66, 0x67, 0x8B, 0x00}, UnsupportedError{Opcode: 0x67, Position: 0x1000}},
			{[]byte{0xFF, 0xF8}, UnsupportedError{Opcode: 0xFF, Position: 0x1000}}, // group 5 /7
		} {
			_, err := Decode(tt.b, 0x1000)
			var ue *UnsupportedError
			if !errors.As(err, &ue) || *ue != tt.want {
				t.Errorf("Decode(% x) error = %v, want %v", tt.b, err, &tt.want)
			}
			if _, ok := TryDecode(tt.b, 0x1000); ok {
				t.Errorf("TryDecode(% x) succeeded, want failure", tt.b)
			}
		}
	})

	t.Run("too long", func(t *testing.T) {
		b := make([]byte, 20)
		for i := range b {
			b[i] = 0x66 // endless prefixes
		}
		if _, err := Decode(b, 0); !errors.Is(err, ErrTooLong) {
			t.Errorf("Decode error = %v, want ErrTooLong", err)
		}
	})
}

// TestDecodeNeverPanics drives the decoder with random byte soup; any
// outcome other than a panic is acceptable. This mirrors what the gadget
// scanner does at every byte offset of a text section.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte, addr uint32) bool {
		inst, err := Decode(b, addr)
		if err == nil && (inst.Len <= 0 || inst.Len > MaxInstLen || inst.Len > len(b)) {
			t.Logf("bad length %d for % x", inst.Len, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestDisassembleProgress(t *testing.T) {
	// Junk interleaved with valid instructions must still advance.
	code := []byte{0x55, 0x27, 0x89, 0xE5, 0xD8, 0xC3, 0xC3}
	insts := Disassemble(code, 0x1000)
	total := 0
	for _, in := range insts {
		if in.Len <= 0 {
			t.Fatalf("non-positive length in %v", in)
		}
		total += in.Len
	}
	if total != len(code) {
		t.Errorf("disassembly covered %d bytes, want %d", total, len(code))
	}
	if insts[0].Op != PUSH || insts[1].Op != BAD {
		t.Errorf("unexpected leading instructions: %v %v", insts[0], insts[1])
	}
}
