// Package corpus provides the six benchmark programs standing in for
// the paper's evaluation set (wget, nginx, bzip2, gzip, gcc, lame —
// §VII). Each is a complete IR program implementing a real algorithm
// whose instruction mix models its namesake: byte scanning and header
// hashing for the network tools, block compression loops for bzip2 and
// gzip, branchy expression evaluation for gcc, and fixed-point DSP for
// lame.
//
// Absolute sizes are far smaller than the real programs, but the
// properties the experiments depend on are reproduced: immediate-rich
// stores, dense branches and calls, repeatedly-called small helper
// functions suitable as verification code, and deterministic
// workloads.
package corpus

import (
	"fmt"

	"parallax/internal/ir"
)

// Program is one corpus entry.
type Program struct {
	Name string
	// Build constructs a fresh module (builders are cheap and pure).
	Build func() *ir.Module
	// Stdin is the deterministic workload input.
	Stdin []byte
	// VerifyFunc is the hand-picked verification-function candidate;
	// the §VII-B automatic selection is exercised separately.
	VerifyFunc string
	// Workloads maps named workload profiles to alternative stdin
	// inputs. The implicit "idle" profile is Stdin itself; generated
	// programs add "heavy" (drives the coldflag-guarded call sites).
	Workloads map[string][]byte
}

// Workload resolves a named workload profile to its stdin bytes.
// "idle" (or "") always resolves to the program's default Stdin.
func (p Program) Workload(name string) ([]byte, bool) {
	if name == "" || name == "idle" {
		return p.Stdin, true
	}
	in, ok := p.Workloads[name]
	return in, ok
}

// All returns the six programs in the paper's order.
func All() []Program {
	return []Program{
		{Name: "wget", Build: BuildWget, Stdin: nil, VerifyFunc: "mix32"},
		{Name: "nginx", Build: BuildNginx, Stdin: nil, VerifyFunc: "bucket"},
		{Name: "bzip2", Build: BuildBzip2, Stdin: nil, VerifyFunc: "freqmix"},
		{Name: "gzip", Build: BuildGzip, Stdin: nil, VerifyFunc: "crcstep"},
		{Name: "gcc", Build: BuildGcc, Stdin: nil, VerifyFunc: "fold"},
		{Name: "lame", Build: BuildLame, Stdin: nil, VerifyFunc: "quant"},
	}
}

// ByName returns the named program.
func ByName(name string) (Program, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Program{}, fmt.Errorf("corpus: unknown program %q", name)
}

// --- shared IR-building helpers -------------------------------------

// loop emits `for i := from; i <u to; i++ { body(i) }` into fb using
// blocks named after tag. The induction variable is a fresh value.
func loop(fb *ir.FuncBuilder, tag string, from, to int32, body func(i ir.Value)) {
	i := fb.Const(from)
	fb.Jmp(tag + ".head")
	fb.Block(tag + ".head")
	lim := fb.Const(to)
	c := fb.Cmp(ir.ULt, i, lim)
	fb.Br(c, tag+".body", tag+".done")
	fb.Block(tag + ".body")
	body(i)
	one := fb.Const(1)
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp(tag + ".head")
	fb.Block(tag + ".done")
}

// loopVal is loop with a dynamic upper bound.
func loopVal(fb *ir.FuncBuilder, tag string, from int32, to ir.Value, body func(i ir.Value)) {
	i := fb.Const(from)
	fb.Jmp(tag + ".head")
	fb.Block(tag + ".head")
	c := fb.Cmp(ir.ULt, i, to)
	fb.Br(c, tag+".body", tag+".done")
	fb.Block(tag + ".body")
	body(i)
	one := fb.Const(1)
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp(tag + ".head")
	fb.Block(tag + ".done")
}

// ifElse emits a diamond: cond ? then() : els(), both joining after.
func ifElse(fb *ir.FuncBuilder, tag string, cond ir.Value, then, els func()) {
	fb.Br(cond, tag+".then", tag+".else")
	fb.Block(tag + ".then")
	then()
	fb.Jmp(tag + ".join")
	fb.Block(tag + ".else")
	if els != nil {
		els()
	}
	fb.Jmp(tag + ".join")
	fb.Block(tag + ".join")
}

// testData generates deterministic pseudo-random bytes.
func testData(seed uint32, n int) []byte {
	out := make([]byte, n)
	s := seed | 1
	for i := range out {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		out[i] = byte(s >> 7)
	}
	return out
}

// textData generates deterministic ASCII-ish bytes (for the parsing
// workloads).
func textData(seed uint32, n int) []byte {
	const alphabet = "abcdefghij klmnop/qrst=uvwx&yz0123456789\r\n"
	raw := testData(seed, n)
	out := make([]byte, n)
	for i, b := range raw {
		out[i] = alphabet[int(b)%len(alphabet)]
	}
	return out
}

// sysWrite/sysExit mirror the kernel ABI.
const (
	sysExit  = 1
	sysWrite = 4
)

// emitExit emits exit(status & 0x7F) — corpus programs report a small
// positive status so differential comparisons are easy.
func emitExit(fb *ir.FuncBuilder, status ir.Value) {
	mask := fb.Const(0x7F)
	st := fb.And(status, mask)
	fb.Syscall(sysExit, st)
	fb.RetVoid()
}
