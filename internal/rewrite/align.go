package rewrite

import (
	"fmt"

	"parallax/internal/image"
	"parallax/internal/x86"
)

// AlignResult describes a successful §IV-B3 application.
type AlignResult struct {
	// Target is the branch destination whose displacement now encodes
	// a ret; Padded is the function whose leading pad was adjusted.
	Target string
	Padded string
	// Pad is the chosen leading padding in bytes.
	Pad uint32
	// SiteAddr is the protected branch instruction's address in the
	// final image, and RetAddr the crafted 0xC3 inside its
	// displacement.
	SiteAddr uint32
	RetAddr  uint32
	// Image is the relinked image containing the crafted gadget.
	Image *image.Image
}

// AlignForGadget applies the rearranged-code rule: it searches for a
// leading pad (0..255 bytes) of the named target function that makes
// the displacement low byte of some call/jmp/jcc referencing it equal
// 0xC3, creating a return — and thus a gadget — inside the branch
// instruction. This mirrors the paper's Listing 1, where
// cleanup_and_exit is relocated so a jump offset encodes ret.
//
// The object is not modified; each candidate pad is linked into a fresh
// image. The first pad that both produces the 0xC3 and yields at least
// one scanner-visible gadget ending at it wins.
func AlignForGadget(obj *image.Object, target string, layout image.Layout) (*AlignResult, error) {
	tf := obj.Func(target)
	if tf == nil {
		return nil, fmt.Errorf("rewrite: function %q not in object", target)
	}
	// Padding only changes a site→target distance when it shifts one of
	// them relative to the other. Try the target first (the paper's
	// Listing 1 relocates the callee); when the callee precedes its
	// callers, pad the callers (or any function between) instead.
	var candidates []*image.Func
	candidates = append(candidates, tf)
	for _, f := range obj.Funcs {
		if f != tf {
			candidates = append(candidates, f)
		}
	}
	for _, pf := range candidates {
		if res, err := alignWith(obj, pf, target, layout); err == nil {
			return res, nil
		}
	}
	return nil, fmt.Errorf("rewrite: no alignment creates a displacement gadget for %q", target)
}

// alignWith searches pads of one function for a displacement gadget on
// branches to target.
func alignWith(obj *image.Object, padFunc *image.Func, target string,
	layout image.Layout) (*AlignResult, error) {
	origPad := padFunc.Pad
	origAlign := padFunc.Align
	// Byte-granular placement: the default 16-byte function alignment
	// would quantize the displacement to 16 of its 256 values.
	padFunc.Align = 1
	defer func() { padFunc.Pad, padFunc.Align = origPad, origAlign }()

	for pad := uint32(0); pad < 256; pad++ {
		padFunc.Pad = origPad + pad
		img, err := image.Link(obj, layout)
		if err != nil {
			return nil, err
		}
		site, retAddr, ok := findC3Displacement(img, target)
		if !ok {
			continue
		}
		// The 0xC3 is in place; require a real decode chain ending at
		// it so the byte is actually a gadget, not just a ret-valued
		// displacement.
		text := img.Text()
		cover := make([]bool, len(text.Data))
		if !markGadgetsEndingAt(text.Data, 0, int(retAddr-text.Addr), cover) {
			continue
		}
		res := &AlignResult{
			Target:   target,
			Padded:   padFunc.Name,
			Pad:      padFunc.Pad,
			SiteAddr: site,
			RetAddr:  retAddr,
			Image:    img,
		}
		return res, nil
	}
	return nil, fmt.Errorf("rewrite: no pad of %q creates a displacement gadget for %q",
		padFunc.Name, target)
}

// findC3Displacement looks for a relative branch to target whose rel32
// low byte equals 0xC3 in the linked image.
func findC3Displacement(img *image.Image, target string) (site, retAddr uint32, ok bool) {
	sym, found := img.Symbol(target)
	if !found {
		return 0, 0, false
	}
	text := img.Text()
	insts := x86.Disassemble(text.Data, text.Addr)
	addr := text.Addr
	for i := range insts {
		in := &insts[i]
		a := addr
		addr += uint32(in.Len)
		if !in.Rel || in.Len < 5 {
			continue
		}
		if in.Target != sym.Addr {
			continue
		}
		dispLo := a + uint32(in.Len) - 4
		off := dispLo - text.Addr
		if int(off) < len(text.Data) && text.Data[off] == 0xC3 {
			return a, dispLo, true
		}
	}
	return 0, 0, false
}
