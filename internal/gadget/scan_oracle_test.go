package gadget

import "parallax/internal/x86"

// The oracle tests over generated programs live in package gadget_test,
// because the generator imports this package through core.
var (
	NaiveScan      = naiveScan
	GadgetRichCode = gadgetRichCode
)

// naiveScan is the reference scanner the production one is held to:
// every byte offset decodes its own candidate from scratch, and the
// Aligned bits come from a separate decoding sweep.
func naiveScan(code []byte, base uint32) []*Gadget {
	aligned := make([]bool, len(code))
	for off := 0; off < len(code); {
		aligned[off] = true
		inst, err := x86.Decode(code[off:], base+uint32(off))
		if err != nil {
			off++
			continue
		}
		off += inst.Len
	}
	var out []*Gadget
	for off := range code {
		if g := scanAt(code, base, off); g != nil {
			g.Aligned = aligned[off]
			out = append(out, g)
		}
	}
	return out
}

// scanAt decodes a gadget candidate starting at offset off.
func scanAt(code []byte, base uint32, off int) *Gadget {
	var insts []x86.Inst
	pos := off
	for len(insts) < maxInsts {
		if pos-off >= maxBytes || pos >= len(code) {
			return nil
		}
		inst, err := x86.Decode(code[pos:], base+uint32(pos))
		if err != nil {
			return nil
		}
		if pos-off+inst.Len > maxBytes {
			return nil
		}
		insts = append(insts, inst)
		pos += inst.Len
		if inst.Op == x86.RET || inst.Op == x86.RETF {
			g := &Gadget{
				Addr:  base + uint32(off),
				Len:   pos - off,
				Insts: insts,
			}
			if !new(evaluator).classify(g) {
				return nil
			}
			return g
		}
	}
	return nil
}
