package rewrite

import (
	"encoding/binary"
	"fmt"

	"parallax/internal/image"
	"parallax/internal/x86"
)

// splitPatterns is the rotation of gadget byte sequences embedded into
// split immediates. Together they cover the ROP compiler's whole
// canonical basis, so a binary with enough splittable immediates needs
// no fallback pool gadgets at all — every chain slot can use a gadget
// overlapping protected code.
// The rotation is ordered so the most load-bearing chain primitives
// (constant loaders, memory access, ALU, chain control) are crafted
// first even in binaries with few splittable sites.
var splitPatterns = [][4]byte{
	{0x58, 0xC3, 0x90, 0x90}, // pop eax; ret
	{0x5B, 0xC3, 0x90, 0x90}, // pop ebx; ret
	{0x8B, 0x03, 0xC3, 0x90}, // mov eax, [ebx]; ret (load)
	{0x89, 0x03, 0xC3, 0x90}, // mov [ebx], eax; ret (store)
	{0x01, 0xD8, 0xC3, 0x90}, // add eax, ebx; ret
	{0x89, 0xC1, 0xC3, 0x90}, // mov ecx, eax; ret
	{0x89, 0xCB, 0xC3, 0x90}, // mov ebx, ecx; ret
	{0x01, 0xC4, 0xC3, 0x90}, // add esp, eax; ret (chain branch)
	{0x5C, 0xC3, 0x90, 0x90}, // pop esp; ret (chain epilogue)
	{0x31, 0xD8, 0xC3, 0x90}, // xor eax, ebx; ret
	{0x29, 0xD8, 0xC3, 0x90}, // sub eax, ebx; ret
	{0xF7, 0xD8, 0xC3, 0x90}, // neg eax; ret
	{0x59, 0xC3, 0x90, 0x90}, // pop ecx; ret
	{0x89, 0xC3, 0xC3, 0x90}, // mov ebx, eax; ret
	{0x89, 0xC8, 0xC3, 0x90}, // mov eax, ecx; ret
	{0x89, 0xD0, 0xC3, 0x90}, // mov eax, edx; ret
	{0x21, 0xD8, 0xC3, 0x90}, // and eax, ebx; ret
	{0x09, 0xD8, 0xC3, 0x90}, // or  eax, ebx; ret
	{0xF7, 0xD0, 0xC3, 0x90}, // not eax; ret
	{0xD3, 0xE0, 0xC3, 0x90}, // shl eax, cl; ret
	{0xD3, 0xE8, 0xC3, 0x90}, // shr eax, cl; ret
	{0xD3, 0xF8, 0xC3, 0x90}, // sar eax, cl; ret
	{0x0F, 0xAF, 0xC3, 0xC3}, // imul eax, ebx; ret
}

// SplitResult reports what SplitImmediates did.
type SplitResult struct {
	// Sites is the number of instructions split.
	Sites int
	// PerFunc maps function names to their split counts.
	PerFunc map[string]int
}

// SplitImmediates applies the §IV-B2 instruction-splitting rule to an
// object in place: eligible immediate-carrying instructions are
// rewritten into a pair whose first immediate embeds a gadget byte
// pattern and whose second compensates, preserving semantics.
//
//	mov dword [m], imm   →  mov dword [m], pat ; xor dword [m], imm^pat
//	add x, imm           →  add x, pat ; add x, imm-pat
//	sub x, imm           →  sub x, pat ; sub x, imm-pat
//
// The rewritten pairs set CPU flags where the originals may not have;
// this is safe for this repository's generated code, which never keeps
// flags live across instruction statements (the §IV-B2 caveat about
// saving the status register applies to arbitrary binaries).
//
// funcs selects the functions to rewrite; nil means all. Functions
// that are toolchain-internal (image.Internal: Parallax stubs) are
// skipped.
func SplitImmediates(obj *image.Object, funcs []string) (*SplitResult, error) {
	want := map[string]bool{}
	for _, f := range funcs {
		want[f] = true
	}
	res := &SplitResult{PerFunc: make(map[string]int)}
	patIdx := 0
	for _, fn := range obj.Funcs {
		if image.Internal(fn.Name) {
			continue
		}
		if len(want) > 0 && !want[fn.Name] {
			continue
		}
		n := 0
		for i := range fn.Items {
			if splittable(&fn.Items[i]) {
				n++
			}
		}
		if n == 0 {
			continue
		}
		out := make([]image.Item, 0, len(fn.Items)+n)
		for _, it := range fn.Items {
			pair, ok := trySplit(it, splitPatterns[patIdx%len(splitPatterns)])
			if !ok {
				out = append(out, it)
				continue
			}
			patIdx++
			out = append(out, pair[:]...)
		}
		res.Sites += n
		res.PerFunc[fn.Name] += n
		fn.Items = out
	}
	if res.Sites == 0 {
		return res, fmt.Errorf("rewrite: no splittable immediates found")
	}
	return res, nil
}

// splittable reports whether trySplit rewrites it.
func splittable(it *image.Item) bool {
	if it.Raw != nil || it.Ref.Slot != image.RefNone {
		return false
	}
	in := &it.Inst
	if in.W != 32 || in.Src.Kind != x86.KImm {
		return false
	}
	switch in.Op {
	case x86.MOV:
		// Register moves would need a scratch-free compensation;
		// memory destinations (the common case for constants in this
		// compiler) xor in place.
		return in.Dst.Kind == x86.KMem
	case x86.ADD, x86.SUB:
		// Never touch stack-pointer arithmetic: the intermediate value
		// must stay a valid pointer-free quantity, and prologue frame
		// setup is too hot to double anyway.
		return !in.Dst.IsReg(x86.ESP)
	}
	return false
}

// trySplit rewrites one item if it is splittable, returning the
// replacement pair.
func trySplit(it image.Item, pat [4]byte) ([2]image.Item, bool) {
	if !splittable(&it) {
		return [2]image.Item{}, false
	}
	in := it.Inst
	patImm := binary.LittleEndian.Uint32(pat[:])
	first := in
	first.Src = x86.ImmOp(int32(patImm))
	second := in
	if in.Op == x86.MOV {
		second.Op = x86.XOR
		second.Src = x86.ImmOp(int32(uint32(in.Src.Imm) ^ patImm))
	} else {
		second.Src = x86.ImmOp(int32(uint32(in.Src.Imm) - patImm))
	}
	return [2]image.Item{{Label: it.Label, Inst: first}, {Inst: second}}, true
}
