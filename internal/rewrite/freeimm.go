package rewrite

import (
	"encoding/binary"

	"parallax/internal/image"
	"parallax/internal/x86"
)

// FreeStatusImmediates applies the second half of §IV-B2: "it is
// generally possible to freely modify immediates which set eax before
// a return ... because return value and exit status semantics commonly
// distinguish only between zero and non-zero."
//
// Eligible sites are `mov eax, imm` instructions with a non-zero
// immediate whose next instructions are (optionally `leave` then)
// `ret`. The immediate is replaced wholesale by a gadget byte pattern
// (always non-zero), preserving the zero/non-zero contract with *no
// compensation instruction* — unlike splitting, this rule costs
// nothing at run time.
//
// The paper notes "this rule can be disabled for conflicting
// semantics"; callers that compare exact return values must not apply
// it, which is why it is a separate opt-in pass rather than part of
// SplitImmediates.
func FreeStatusImmediates(obj *image.Object, funcs []string) (*SplitResult, error) {
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
		for i := range fn.Items {
			if !isFreeStatusSite(fn.Items, i) {
				continue
			}
			pat := splitPatterns[patIdx%len(splitPatterns)]
			patIdx++
			fn.Items[i].Inst.Src = x86.ImmOp(int32(binary.LittleEndian.Uint32(pat[:])))
			res.Sites++
			res.PerFunc[fn.Name]++
		}
	}
	return res, nil
}

// isFreeStatusSite matches `mov eax, imm(!=0)` directly followed by
// (leave)? ret.
func isFreeStatusSite(items []image.Item, i int) bool {
	it := items[i]
	if it.Raw != nil || it.Ref.Slot != image.RefNone {
		return false
	}
	in := it.Inst
	if in.Op != x86.MOV || in.W != 32 || !in.Dst.IsReg(x86.EAX) ||
		in.Src.Kind != x86.KImm || in.Src.Imm == 0 {
		return false
	}
	j := i + 1
	if j < len(items) && items[j].Raw == nil && items[j].Inst.Op == x86.LEAVE {
		j++
	}
	return j < len(items) && items[j].Raw == nil && items[j].Inst.Op == x86.RET
}
