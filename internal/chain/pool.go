// Package chain provides the runtime scaffolding around compiled ROP
// chains: the fallback gadget pool, the loader stub that bootstraps a
// chain (§V-A), and chain installation into a linked image.
package chain

import (
	"fmt"

	"parallax/internal/image"
)

// PoolFuncName names the fallback gadget pool function inserted into
// protected binaries.
const PoolFuncName = "..parallax.pool"

// poolGadgets is the canonical gadget basis the ROP compiler relies
// on. Each entry is an independent byte sequence ending in ret; the
// pool is never reached by the program's own control flow.
//
// Several specs appear in multiple encodings so that probabilistic
// chain generation (§V-B) has distinct interchangeable gadgets to
// choose between.
var poolGadgets = [][]byte{
	// Constant loaders: pop r; ret.
	{0x58, 0xC3},       // pop eax
	{0x59, 0xC3},       // pop ecx
	{0x5A, 0xC3},       // pop edx
	{0x5B, 0xC3},       // pop ebx
	{0x5E, 0xC3},       // pop esi
	{0x5F, 0xC3},       // pop edi
	{0x58, 0x90, 0xC3}, // pop eax; nop — equivalent variant
	{0x5B, 0x90, 0xC3}, // pop ebx; nop
	{0x90, 0x58, 0xC3}, // nop; pop eax
	{0x90, 0x5B, 0xC3}, // nop; pop ebx

	// Register moves.
	{0x89, 0xC1, 0xC3},       // mov ecx, eax
	{0x89, 0xCB, 0xC3},       // mov ebx, ecx
	{0x89, 0xC3, 0xC3},       // mov ebx, eax
	{0x89, 0xC8, 0xC3},       // mov eax, ecx
	{0x89, 0xD0, 0xC3},       // mov eax, edx
	{0x89, 0xD8, 0xC3},       // mov eax, ebx
	{0x8D, 0x01, 0xC3},       // lea eax, [ecx] — mov eax, ecx variant
	{0x8D, 0x0B, 0xC3},       // lea ecx, [ebx] — mov ecx, ebx variant
	{0x89, 0xC1, 0x90, 0xC3}, // mov ecx, eax; nop — variant
	{0x89, 0xCB, 0x90, 0xC3}, // mov ebx, ecx; nop — variant
	{0x89, 0xC3, 0x90, 0xC3}, // mov ebx, eax; nop — variant

	// Memory access.
	{0x8B, 0x03, 0xC3}, // mov eax, [ebx]   (load)
	{0x89, 0x03, 0xC3}, // mov [ebx], eax   (store)

	// ALU.
	{0x01, 0xD8, 0xC3},             // add eax, ebx
	{0x29, 0xD8, 0xC3},             // sub eax, ebx
	{0x21, 0xD8, 0xC3},             // and eax, ebx
	{0x09, 0xD8, 0xC3},             // or  eax, ebx
	{0x31, 0xD8, 0xC3},             // xor eax, ebx
	{0x01, 0xD8, 0x90, 0xC3},       // add eax, ebx; nop — variant
	{0x31, 0xD8, 0x90, 0xC3},       // xor eax, ebx; nop — variant
	{0xF7, 0xD8, 0xC3},             // neg eax
	{0xF7, 0xD0, 0xC3},             // not eax
	{0x0F, 0xAF, 0xC3, 0xC3},       // imul eax, ebx
	{0xD3, 0xE0, 0xC3},             // shl eax, cl
	{0xD3, 0xE8, 0xC3},             // shr eax, cl
	{0xD3, 0xF8, 0xC3},             // sar eax, cl
	{0x31, 0xD2, 0xF7, 0xF3, 0xC3}, // xor edx,edx; div ebx
	{0x99, 0xF7, 0xFB, 0xC3},       // cdq; idiv ebx

	// Chain control.
	{0x01, 0xC4, 0xC3}, // add esp, eax (branch pivot)
	{0x5C, 0xC3},       // pop esp      (epilogue)
}

// Pool returns the fallback gadget pool as a linkable function. The
// copies parameter replicates the whole basis (at distinct addresses),
// widening each equivalence class for probabilistic generation; values
// below 1 mean 1.
func Pool(copies int) *image.Func {
	if copies < 1 {
		copies = 1
	}
	f := &image.Func{Name: PoolFuncName, Align: 4}
	// A leading ret guards against stray fall-through into the pool.
	f.Items = append(f.Items, image.RawItem(0xC3))
	for c := 0; c < copies; c++ {
		for _, g := range poolGadgets {
			f.Items = append(f.Items, image.RawItem(g...))
		}
	}
	return f
}

// AddPool appends the fallback pool to an object, failing on duplicate
// insertion.
func AddPool(obj *image.Object, copies int) error {
	if obj.Func(PoolFuncName) != nil {
		return fmt.Errorf("chain: object already has a gadget pool")
	}
	return obj.AddFunc(Pool(copies))
}
