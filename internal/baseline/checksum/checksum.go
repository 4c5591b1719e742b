// Package checksum implements the classic self-checksumming baseline
// (after Chang & Atallah's cross-verifying checksum networks): checker
// routines read the program's own text section as data and compare
// FNV-1a hashes against expected values embedded at protect time.
//
// The baseline exists to reproduce the paper's security argument: it
// detects static patching, but the Wurster et al. split-cache attack
// defeats it completely — which Parallax, reading nothing, is immune
// to.
package checksum

import (
	"encoding/binary"
	"fmt"
	"strings"

	"parallax/internal/codegen"
	"parallax/internal/image"
	"parallax/internal/ir"
)

// TamperStatus is the exit status of the tamper response.
const TamperStatus = 86

// fnv32 constants.
const (
	fnvBasis uint32 = 2166136261
	fnvPrime uint32 = 16777619
	// fnvBasisI32 is the basis reinterpreted as a signed immediate.
	fnvBasisI32 int32 = -2128831035
)

// checkers is the network size: the text is split into this many
// regions, each verified by its own checker; the checkers' own code
// falls inside regions covered by other checkers (cross-verification).
const checkers = 3

// Protected is a checksum-protected build.
type Protected struct {
	Image    *image.Image
	Baseline *image.Image
	// Regions records [lo, hi) per checker for analysis.
	Regions [][2]uint32
}

// Owns reports whether name is one of the functions and tables either
// checker network adds, all named "..cs.*".
func Owns(name string) bool { return strings.HasPrefix(name, "..cs.") }

func loSym(i int) string   { return fmt.Sprintf("..cs.lo%d", i) }
func hiSym(i int) string   { return fmt.Sprintf("..cs.hi%d", i) }
func wantSym(i int) string { return fmt.Sprintf("..cs.want%d", i) }
func checkerName(i int) string {
	return fmt.Sprintf("..cs.check%d", i)
}

// Protect builds a module with a startup checksum network over its
// text section.
func Protect(m *ir.Module) (*Protected, error) {
	baseline, err := codegen.Build(m)
	if err != nil {
		return nil, err
	}

	work := m.Clone()
	entry := work.Entry
	if entry == "" {
		entry = work.Funcs[0].Name
	}
	for i := 0; i < checkers; i++ {
		work.Globals = append(work.Globals,
			&ir.Global{Name: loSym(i), Init: make([]byte, 4)},
			&ir.Global{Name: hiSym(i), Init: make([]byte, 4)},
			&ir.Global{Name: wantSym(i), Init: make([]byte, 4)},
		)
		work.Funcs = append(work.Funcs, buildChecker(i))
	}
	work.Funcs = append(work.Funcs, buildStart(entry, checkers))
	work.Entry = "..cs.start"
	if err := ir.Validate(work); err != nil {
		return nil, err
	}

	img, err := codegen.Build(work)
	if err != nil {
		return nil, err
	}

	// Split the text into regions and embed bounds and expected
	// hashes. The expected values live in .data, so writing them does
	// not perturb what is being hashed.
	text := img.Text()
	p := &Protected{Image: img, Baseline: baseline}
	chunk := (int(text.Size) + checkers - 1) / checkers
	for i := 0; i < checkers; i++ {
		lo := text.Addr + uint32(i*chunk)
		hi := lo + uint32(chunk)
		if hi > text.End() {
			hi = text.End()
		}
		want := Hash(text.Data[lo-text.Addr : hi-text.Addr])
		for _, w := range []struct {
			sym string
			v   uint32
		}{{loSym(i), lo}, {hiSym(i), hi}, {wantSym(i), want}} {
			sym, err := img.Lookup(w.sym)
			if err != nil {
				return nil, fmt.Errorf("checksum: install checker %d: %w", i, err)
			}
			buf := make([]byte, 4)
			binary.LittleEndian.PutUint32(buf, w.v)
			if err := img.WriteAt(sym.Addr, buf); err != nil {
				return nil, err
			}
		}
		p.Regions = append(p.Regions, [2]uint32{lo, hi})
	}
	return p, nil
}

// Hash is the checker's FNV-1a, exposed so tests can cross-check.
func Hash(b []byte) uint32 {
	h := fnvBasis
	for _, c := range b {
		h = (h ^ uint32(c)) * fnvPrime
	}
	return h
}

// buildChecker emits: hash text[lo,hi) via byte loads (data reads of
// code!), exit(TamperStatus) on mismatch.
func buildChecker(i int) *ir.Func {
	fb := ir.NewFunc(checkerName(i), 0)
	lo := fb.Load(fb.Addr(loSym(i), 0))
	hi := fb.Load(fb.Addr(hiSym(i), 0))
	want := fb.Load(fb.Addr(wantSym(i), 0))
	h := fb.Const(fnvBasisI32)
	p := fb.Copy(lo)
	one := fb.Const(1)
	prime := fb.Const(int32(fnvPrime))
	fb.Jmp("head")

	fb.Block("head")
	c := fb.Cmp(ir.ULt, p, hi)
	fb.Br(c, "body", "check")

	fb.Block("body")
	b := fb.Load8(p)
	fb.Assign(h, fb.Mul(fb.Xor(h, b), prime))
	fb.Assign(p, fb.Add(p, one))
	fb.Jmp("head")

	fb.Block("check")
	ok := fb.Cmp(ir.Eq, h, want)
	fb.Br(ok, "pass", "tamper")

	fb.Block("tamper")
	st := fb.Const(TamperStatus)
	fb.Syscall(1, st) // exit
	fb.RetVoid()      // unreachable

	fb.Block("pass")
	fb.RetVoid()
	return fb.Fn()
}

// buildStart wraps the original entry with the checker calls.
func buildStart(entry string, n int) *ir.Func {
	return buildStartNamed("..cs.start", entry, n, checkerName)
}
