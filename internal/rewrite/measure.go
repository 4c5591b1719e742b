// Package rewrite implements the paper's §IV-B binary rewriting rules:
// measuring which code bytes can be protected by overlapping gadgets
// (Figure 6), and applying the modifications that craft those gadgets
// (immediate splitting, function alignment, spurious instructions).
package rewrite

import (
	"fmt"

	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/x86"
)

// Rule identifies one §IV-B rewriting rule.
type Rule uint8

// The measured rules of Figure 6.
const (
	// RuleExisting counts bytes overlapped by gadgets already present
	// (near returns), §IV-B1.
	RuleExisting Rule = iota
	// RuleFarRet counts bytes overlapped by existing far-return
	// gadgets, §IV-B5.
	RuleFarRet
	// RuleImmMod counts bytes protectable by modifying immediate
	// operands of add/adc/sub/sbb/mov instructions, §IV-B2 (and B6).
	RuleImmMod
	// RuleJumpMod counts bytes protectable by re-aligning code and
	// data so jump/call offsets encode gadget bytes, §IV-B3.
	RuleJumpMod
	numRules
)

var ruleNames = [numRules]string{"existing", "far-ret", "imm-mod", "jump-mod"}

func (r Rule) String() string {
	if int(r) < len(ruleNames) {
		return ruleNames[r]
	}
	return fmt.Sprintf("rule(%d)", uint8(r))
}

// Coverage is one rule's protectable-byte count.
type Coverage struct {
	Rule Rule
	// Bytes counts strictly-verified coverage: bytes inside a decode
	// chain that provably ends at a (crafted or existing) return.
	Bytes int
	// ReachBytes counts compositional coverage: bytes within gadget
	// reach (one maximal instruction) of a craftable return, on the
	// assumption that rule composition (splitting or spurious bytes in
	// the intervening instructions) can complete the decode chain.
	// This matches the paper's more liberal protectable-byte
	// accounting.
	ReachBytes int
	Sites      int
}

// Report is the Figure 6 measurement for one binary.
type Report struct {
	TextBytes int
	Rules     [numRules]Coverage
	// AnyBytes / AnyReachBytes are the union coverages over all rules
	// ("any" in Fig. 6), in strict and compositional accounting.
	AnyBytes      int
	AnyReachBytes int
}

// Percent returns a rule's strict coverage as a percentage of text
// bytes.
func (r *Report) Percent(rule Rule) float64 {
	if r.TextBytes == 0 {
		return 0
	}
	return 100 * float64(r.Rules[rule].Bytes) / float64(r.TextBytes)
}

// PercentReach returns a rule's compositional coverage percentage.
func (r *Report) PercentReach(rule Rule) float64 {
	if r.TextBytes == 0 {
		return 0
	}
	return 100 * float64(r.Rules[rule].ReachBytes) / float64(r.TextBytes)
}

// AnyPercent returns the strict union coverage percentage.
func (r *Report) AnyPercent() float64 {
	if r.TextBytes == 0 {
		return 0
	}
	return 100 * float64(r.AnyBytes) / float64(r.TextBytes)
}

// AnyReachPercent returns the compositional union coverage percentage.
func (r *Report) AnyReachPercent() float64 {
	if r.TextBytes == 0 {
		return 0
	}
	return 100 * float64(r.AnyReachBytes) / float64(r.TextBytes)
}

// immPatterns are the gadget byte sequences the immediate-modification
// rule tries to embed. Each ends with 0xC3 (ret) — possibly with
// trailing filler.
var immPatterns = [][]byte{
	{0x58, 0xC3},       // pop eax; ret
	{0x5B, 0xC3},       // pop ebx; ret
	{0x59, 0xC3},       // pop ecx; ret
	{0x01, 0xD8, 0xC3}, // add eax, ebx; ret
	{0x29, 0xD8, 0xC3}, // sub eax, ebx; ret
	{0x31, 0xD8, 0xC3}, // xor eax, ebx; ret
	{0x21, 0xD8, 0xC3}, // and eax, ebx; ret
	{0x89, 0xC1, 0xC3}, // mov ecx, eax; ret
	{0x8B, 0x03, 0xC3}, // mov eax, [ebx]; ret
	{0x89, 0x03, 0xC3}, // mov [ebx], eax; ret
	{0xF7, 0xD8, 0xC3}, // neg eax; ret
	{0xD3, 0xE8, 0xC3}, // shr eax, cl; ret
	{0x01, 0xC4, 0xC3}, // add esp, eax; ret
	{0x5C, 0xC3},       // pop esp; ret
	{0x90, 0xC3},       // nop; ret
	{0xC3},             // ret
}

// backWindow bounds the hypothetical-scan windows: how far before a
// crafted ret a gadget's start may lie.
const backWindow = 24

// Measure computes the Figure 6 protectability report for an image.
func Measure(img *image.Image) (*Report, error) {
	text := img.Text()
	if text == nil {
		return nil, fmt.Errorf("rewrite: image has no text section")
	}
	code := text.Data
	rep := &Report{TextBytes: len(code)}

	covers := [numRules][]bool{}
	reaches := [numRules][]bool{}
	for i := range covers {
		covers[i] = make([]bool, len(code))
		reaches[i] = make([]bool, len(code))
	}
	// A gadget's final pre-ret instruction begins at most one
	// instruction length before the return.
	markReach := func(rule Rule, retOff int) {
		lo := retOff - (x86.MaxInstLen - 1)
		if lo < 0 {
			lo = 0
		}
		for a := lo; a <= retOff && a < len(code); a++ {
			reaches[rule][a] = true
		}
	}

	// Existing near/far gadgets: strict and reach coincide with the
	// scanner's spans plus the one-instruction reach before each ret.
	for _, g := range gadget.ScanBytes(code, text.Addr) {
		lo, hi := g.Range()
		rule := RuleExisting
		if g.FarRet {
			rule = RuleFarRet
		}
		for a := lo; a < hi; a++ {
			covers[rule][a-text.Addr] = true
			reaches[rule][a-text.Addr] = true
		}
		rep.Rules[rule].Sites++
	}

	// Immediate-modification and jump-modification rules need the
	// instruction stream.
	insts := x86.Disassemble(code, text.Addr)
	off := uint32(0)
	for i := range insts {
		in := &insts[i]
		start := int(off)
		off += uint32(in.Len)
		switch {
		case isImmModCandidate(in):
			pos, size := immField(in, start)
			if size > 0 && measureEmbed(code, pos, size, covers[RuleImmMod][:]) {
				rep.Rules[RuleImmMod].Sites++
				// The crafted ret can sit at any immediate byte.
				markReach(RuleImmMod, pos+size-1)
			}
		case isJumpModCandidate(in):
			// The rel32 low byte can be steered to 0xC3 by padding the
			// branch target (§IV-B3): it is at instruction end - 4.
			pos := start + in.Len - 4
			if measureForcedRet(code, pos, covers[RuleJumpMod][:]) {
				rep.Rules[RuleJumpMod].Sites++
				markReach(RuleJumpMod, pos)
			}
		}
	}

	any := make([]bool, len(code))
	anyReach := make([]bool, len(code))
	for r := Rule(0); r < numRules; r++ {
		n, nr := 0, 0
		for i, v := range covers[r] {
			if v {
				n++
				any[i] = true
			}
			if reaches[r][i] {
				nr++
				anyReach[i] = true
			}
		}
		rep.Rules[r].Rule = r
		rep.Rules[r].Bytes = n
		rep.Rules[r].ReachBytes = nr
	}
	for i := range any {
		if any[i] {
			rep.AnyBytes++
		}
		if anyReach[i] {
			rep.AnyReachBytes++
		}
	}
	return rep, nil
}

// isImmModCandidate reports whether the §IV-B2 rule applies: an
// add/adc/sub/sbb/mov instruction with an immediate operand that
// instruction splitting can compensate.
func isImmModCandidate(in *x86.Inst) bool {
	switch in.Op {
	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.MOV:
	default:
		return false
	}
	return in.Src.Kind == x86.KImm && (in.W == 32 || in.W == 8)
}

// isJumpModCandidate reports whether §IV-B3 applies: a relative
// jmp/jcc/call whose displacement can be steered by re-aligning the
// target.
func isJumpModCandidate(in *x86.Inst) bool {
	switch in.Op {
	case x86.JMP, x86.JCC, x86.CALL:
		return in.Rel && in.Len >= 5
	}
	return false
}

// immField locates the trailing immediate field of an eligible
// instruction. Returns its offset in the code and byte size.
func immField(in *x86.Inst, start int) (pos, size int) {
	size = int(in.W) / 8
	if in.W == 32 {
		// 0x83-form sign-extended immediates are one byte.
		if in.Op != x86.MOV && in.Src.Imm >= -128 && in.Src.Imm <= 127 {
			size = 1
		}
	}
	return start + in.Len - size, size
}

// hypoWindow copies the slice of code a hypothetical gadget at
// [pos, pos+size) can possibly involve: chains start at most backWindow
// bytes before the crafted ret (which sits inside the field), and a
// decode from any candidate start can read at most one architectural
// instruction length past it. Copying only this window is what keeps
// Measure linear in text size — the previous whole-code copy per
// (site, pattern, shift) attempt made Figure 6 measurement quadratic,
// which the multi-MiB generated corpus turned from invisible into
// hours.
func hypoWindow(code []byte, pos, size int) (work []byte, base int) {
	lo := pos - backWindow
	if lo < 0 {
		lo = 0
	}
	hi := pos + size + x86.MaxInstLen
	if hi > len(code) {
		hi = len(code)
	}
	return append([]byte(nil), code[lo:hi]...), lo
}

// measureEmbed tries the pattern library inside an immediate field at
// [pos, pos+size) and accumulates the best hypothetical gadget
// coverage. Returns true if any pattern yields a gadget.
func measureEmbed(code []byte, pos, size int, cover []bool) bool {
	work, base := hypoWindow(code, pos, size)
	rel := pos - base
	found := false
	for _, pat := range immPatterns {
		if len(pat) > size {
			continue
		}
		// Place the pattern at every offset inside the field.
		for shift := 0; shift+len(pat) <= size; shift++ {
			for i := 0; i < size; i++ {
				work[rel+i] = 0x90 // filler decodes as nop
			}
			copy(work[rel+shift:], pat)
			retPos := rel + shift + len(pat) - 1
			if markGadgetsEndingAt(work, base, retPos, cover) {
				found = true
			}
		}
	}
	return found
}

// measureForcedRet forces code[pos] to 0xC3 and accumulates coverage of
// gadgets ending exactly there.
func measureForcedRet(code []byte, pos int, cover []bool) bool {
	if pos < 0 || pos >= len(code) {
		return false
	}
	work, base := hypoWindow(code, pos, 1)
	work[pos-base] = 0xC3
	return markGadgetsEndingAt(work, base, pos-base, cover)
}

// markGadgetsEndingAt finds every decode chain of at most six
// instructions that terminates in the ret at retPos (an offset into
// work; base maps it back into the full code for coverage marking).
func markGadgetsEndingAt(work []byte, base, retPos int, cover []bool) bool {
	if retPos >= len(work) || work[retPos] != 0xC3 {
		return false
	}
	found := false
	lo := retPos - backWindow
	if lo < 0 {
		lo = 0
	}
	for start := lo; start <= retPos; start++ {
		if decodesToRetAt(work, start, retPos) {
			for i := start; i <= retPos; i++ {
				cover[base+i] = true
			}
			found = true
		}
	}
	return found
}

// decodesToRetAt checks whether decoding from start walks cleanly to a
// return whose final byte is at retPos, within the six-instruction
// gadget limit.
func decodesToRetAt(work []byte, start, retPos int) bool {
	pos := start
	for n := 0; n < 6; n++ {
		if pos > retPos {
			return false
		}
		in, err := x86.Decode(work[pos:], uint32(pos))
		if err != nil {
			return false
		}
		switch in.Op {
		case x86.CALL, x86.JMP, x86.JCC, x86.INT, x86.INT3, x86.HLT:
			return false
		}
		end := pos + in.Len - 1
		if in.IsRet() {
			return end == retPos
		}
		if end >= retPos {
			return false
		}
		pos += in.Len
	}
	return false
}
