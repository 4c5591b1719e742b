package difftest

import (
	"fmt"
	"strings"
	"testing"

	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/x86"
)

// TestLockstepGenerated runs the gadget-biased generator batch in
// lockstep — interpreter, reference interpreter, and the
// translation-block engine stepping three-way — and requires zero
// divergences. The full batch is the ISSUE's 10k-program gate; -short
// runs a 500-program slice on the same seed so the fast path still
// exercises every program class.
func TestLockstepGenerated(t *testing.T) {
	n := 10000
	if testing.Short() || raceEnabled {
		n = 500
	}
	var insts uint64
	g := NewGenerator(1)
	for i := 0; i < n; i++ {
		p := g.Next()
		res, err := RunProgram(p, Options{MaxInst: 1 << 16, TB: true})
		if err != nil {
			t.Fatalf("program %s: harness error: %v", p.Name, err)
		}
		if res.Div != nil {
			min := Minimize(p, func(q *Program) bool {
				r, err := RunProgram(q, Options{MaxInst: 1 << 16})
				return err == nil && r.Div != nil
			})
			mres, _ := RunProgram(min, Options{MaxInst: 1 << 16})
			t.Fatalf("program %s diverged:\n%s\nminimized (%d insts, %d raw bytes):\n%s\n%v",
				p.Name, res.Div, len(min.Insts), len(min.Raw), describe(min), mres.Div)
		}
		insts += res.Insts
	}
	t.Logf("lockstep: %d programs, %d instructions, 0 divergences", n, insts)
}

// describe renders a program for divergence reports.
func describe(p *Program) string {
	if p.Insts == nil {
		return fmt.Sprintf("raw % x entry+%d", p.Raw, p.EntryOff)
	}
	s := ""
	for i, pi := range p.Insts {
		if pi.JccSkip > 0 {
			s += fmt.Sprintf("  %2d: j%v +%d\n", i, pi.Inst.Cond, pi.JccSkip)
		} else {
			s += fmt.Sprintf("  %2d: %s\n", i, pi.Inst.String())
		}
	}
	return s
}

// TestLockstepCorpus replays the benchmark corpus — both the clean
// baseline and the Parallax-protected binary, whose verification runs
// execute the actual ROP gadget chains — through the oracle. Under
// -short only wget runs; the full suite covers all six programs.
func TestLockstepCorpus(t *testing.T) {
	for _, p := range corpus.All() {
		if (testing.Short() || raceEnabled) && p.Name != "wget" {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prot, err := core.Protect(p.Build(), core.Options{
				VerifyFuncs: []string{p.VerifyFunc},
			})
			if err != nil {
				t.Fatalf("protect: %v", err)
			}
			for _, variant := range []string{"baseline", "protected"} {
				img := prot.Baseline
				if variant == "protected" {
					img = prot.Image
				}
				res, err := Run(img, Options{MaxInst: 5_000_000, Stdin: p.Stdin, TB: true})
				if err != nil {
					t.Fatalf("%s: harness error: %v", variant, err)
				}
				if res.Div != nil {
					t.Fatalf("%s diverged after %d insts:\n%s", variant, res.Insts, res.Div)
				}
				if res.Exited {
					t.Logf("%s: %d insts in lockstep, exit %d", variant, res.Insts, res.Status)
				} else {
					// The longer corpus programs run past the lockstep
					// budget; the gate is zero divergences over the
					// compared prefix, which already covers every
					// verification chain many times.
					t.Logf("%s: %d insts in lockstep, budget reached", variant, res.Insts)
				}
			}
		})
	}
}

// TestLockstepTBUnalignedEntry pins the translation-block engine on
// the generator's unaligned-entry class: structured programs re-entered
// mid-instruction, where block boundaries never line up with the
// assembler's and every translation starts at a skewed decode.
func TestLockstepTBUnalignedEntry(t *testing.T) {
	g := NewGenerator(7)
	ran := 0
	for i := 0; ran < 60 && i < 5000; i++ {
		p := g.Next()
		if !strings.HasSuffix(p.Name, "-unaligned") {
			continue
		}
		ran++
		res, err := RunProgram(p, Options{MaxInst: 1 << 16, TB: true})
		if err != nil {
			t.Fatalf("program %s: harness error: %v", p.Name, err)
		}
		if res.Div != nil {
			t.Fatalf("program %s (entry+%d) diverged:\n%s", p.Name, p.EntryOff, res.Div)
		}
	}
	if ran == 0 {
		t.Fatal("generator produced no unaligned-entry programs")
	}
}

// TestLockstepCatchesLegacyRCROF reverts the RCR overflow-flag fix on
// the reference side and checks the oracle reports the flags
// divergence — the demonstration required by the ISSUE that the
// historical emulator bug could not have survived this oracle.
func TestLockstepCatchesLegacyRCROF(t *testing.T) {
	// STC; RCR EAX,1 with EAX=0 rotates the carry into the MSB:
	// result 0x80000000, so fixed OF = MSB^MSB-1 = 1 but the legacy
	// formula (MSB-1 alone) says 0.
	p := &Program{
		Name: "rcr-of",
		Insts: []ProgInst{
			{Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(0)}},
			{Inst: x86.Inst{Op: x86.STC, W: 32}},
			{Inst: x86.Inst{Op: x86.RCR, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(1)}},
			{Inst: x86.Inst{Op: x86.RET, W: 32}},
		},
	}
	res, err := RunProgram(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Div != nil {
		t.Fatalf("fixed engines should agree: %s", res.Div)
	}

	res, err = RunProgram(p, Options{LegacyRefRCROF: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Div == nil {
		t.Fatal("oracle missed the reverted RCR OF bug")
	}
	if res.Div.Kind != "flags" {
		t.Fatalf("divergence kind = %q, want flags:\n%s", res.Div.Kind, res.Div)
	}
	t.Logf("oracle caught reverted bug:\n%s", res.Div)
}

// TestMinimize shrinks an RCR-divergent program buried in noise down
// to the minimal reproducer.
func TestMinimize(t *testing.T) {
	var insts []ProgInst
	emit := func(in x86.Inst) { insts = append(insts, ProgInst{Inst: in}) }
	// Noise prologue and epilogue around the two essential
	// instructions (STC; RCR).
	for i := 0; i < 8; i++ {
		emit(x86.Inst{Op: x86.ADD, W: 32, Dst: x86.RegOp(x86.EBX), Src: x86.ImmOp(int32(i))})
	}
	emit(x86.Inst{Op: x86.STC, W: 32})
	emit(x86.Inst{Op: x86.RCR, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(1)})
	for i := 0; i < 8; i++ {
		emit(x86.Inst{Op: x86.INC, W: 32, Dst: x86.RegOp(x86.ECX)})
	}
	emit(x86.Inst{Op: x86.RET, W: 32})
	p := &Program{Name: "min-demo", Insts: insts}

	failing := func(q *Program) bool {
		res, err := RunProgram(q, Options{MaxInst: 1 << 12, LegacyRefRCROF: true})
		return err == nil && res.Div != nil && res.Div.Kind == "flags"
	}
	if !failing(p) {
		t.Fatal("seed program does not reproduce")
	}
	min := Minimize(p, failing)
	if !failing(min) {
		t.Fatal("minimized program no longer reproduces")
	}
	// STC + RCR are both essential (RCR alone sees CF=0 and both
	// formulas agree); everything else should be gone.
	if len(min.Insts) > 2 {
		t.Fatalf("minimized to %d insts, want <= 2:\n%s", len(min.Insts), describe(min))
	}
	t.Logf("minimized %d -> %d insts:\n%s", len(insts), len(min.Insts), describe(min))
}

// TestMinimizeRaw shrinks a raw byte program with a byte-level
// predicate.
func TestMinimizeRaw(t *testing.T) {
	raw := []byte{0x90, 0x90, 0xF9, 0x90, 0xD1, 0xD8, 0x90, 0xC3} // nops around stc; rcr eax,1; ret
	p := &Program{Name: "min-raw", Raw: raw}
	failing := func(q *Program) bool {
		res, err := RunProgram(q, Options{MaxInst: 1 << 12, LegacyRefRCROF: true})
		return err == nil && res.Div != nil && res.Div.Kind == "flags"
	}
	if !failing(p) {
		t.Fatal("seed raw program does not reproduce")
	}
	min := Minimize(p, failing)
	if len(min.Raw) > 3 {
		t.Fatalf("minimized to %d bytes (% x), want <= 3", len(min.Raw), min.Raw)
	}
}

// TestGeneratorDeterminism pins that a seed reproduces the same
// program stream — minimized divergences stay replayable.
func TestGeneratorDeterminism(t *testing.T) {
	a, b := NewGenerator(42), NewGenerator(42)
	for i := 0; i < 50; i++ {
		pa, pb := a.Next(), b.Next()
		ia, _ := pa.Build()
		ib, _ := pb.Build()
		if pa.Name != pb.Name {
			t.Fatalf("name drift at %d: %s vs %s", i, pa.Name, pb.Name)
		}
		if (ia == nil) != (ib == nil) {
			t.Fatalf("build drift at %d", i)
		}
		if ia != nil && !equalBytes(ia.Sections[0].Data, ib.Sections[0].Data) {
			t.Fatalf("text drift at %d (%s)", i, pa.Name)
		}
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
