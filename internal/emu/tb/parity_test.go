package tb_test

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/corpus"
	"parallax/internal/emu"
	"parallax/internal/emu/tb"
	"parallax/internal/image"
	"parallax/internal/x86"
)

// The deep per-instruction equivalence gate lives in internal/difftest
// (three-way lockstep, ci.sh hard gate). These tests hold the engine to
// the same end state as the interpreter from inside the package, over
// real corpus programs, exercising the translator and executor fast
// paths directly: whole-run parity, step-by-step parity, and mixed
// Step/Run cursor handoff.

const parityBudget = 1_500_000

// runInterp executes img to exit or budget on the interpreter.
func runInterp(t *testing.T, img *image.Image, stdin []byte) *emu.CPU {
	t.Helper()
	c, err := emu.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	c.OS = emu.NewOS(stdin)
	c.MaxInst = parityBudget
	if err := c.Run(); err != nil && !errors.Is(err, emu.ErrInstLimit) {
		t.Fatal(err)
	}
	return c
}

// compareState requires identical architectural end state between the
// interpreter and the tb-driven CPU.
func compareState(t *testing.T, name string, ci, ct *emu.CPU) {
	t.Helper()
	if ci.Icount != ct.Icount {
		t.Errorf("%s: icount %d (interp) vs %d (tb)", name, ci.Icount, ct.Icount)
	}
	if ci.EIP != ct.EIP {
		t.Errorf("%s: eip %#x vs %#x", name, ci.EIP, ct.EIP)
	}
	if ci.Exited != ct.Exited || ci.Status != ct.Status {
		t.Errorf("%s: exit %v/%d vs %v/%d", name, ci.Exited, ci.Status, ct.Exited, ct.Status)
	}
	if ci.Reg != ct.Reg {
		t.Errorf("%s: regs %v vs %v", name, ci.Reg, ct.Reg)
	}
	if ci.Flags() != ct.Flags() {
		t.Errorf("%s: eflags %#x vs %#x", name, ci.Flags(), ct.Flags())
	}
	if ci.Cycles != ct.Cycles {
		t.Errorf("%s: cycles %d vs %d", name, ci.Cycles, ct.Cycles)
	}
}

// TestCorpusRunParity runs every corpus program to exit (or budget) on
// both engines and compares the full architectural end state.
func TestCorpusRunParity(t *testing.T) {
	for _, p := range corpus.All() {
		img, err := codegen.Build(p.Build())
		if err != nil {
			t.Fatal(err)
		}
		ci := runInterp(t, img, p.Stdin)

		ct, err := emu.LoadImage(img)
		if err != nil {
			t.Fatal(err)
		}
		ct.OS = emu.NewOS(p.Stdin)
		ct.MaxInst = parityBudget
		e := tb.New(ct, nil)
		runErr := e.Run()
		e.Close()
		if runErr != nil && !errors.Is(runErr, emu.ErrInstLimit) {
			t.Fatalf("%s: tb run: %v", p.Name, runErr)
		}
		compareState(t, p.Name, ci, ct)
	}
}

// TestCorpusStepParity single-steps the tb engine against the
// interpreter's Step, comparing the hot architectural state after every
// retired instruction — the engine's Step contract (exact Icount/EIP,
// flags materialized between steps) over real code.
func TestCorpusStepParity(t *testing.T) {
	const steps = 120_000
	for _, name := range []string{"wget", "gcc"} {
		p, err := corpus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		img, err := codegen.Build(p.Build())
		if err != nil {
			t.Fatal(err)
		}
		ci, err := emu.LoadImage(img)
		if err != nil {
			t.Fatal(err)
		}
		ci.OS = emu.NewOS(p.Stdin)
		ct, err := emu.LoadImage(img)
		if err != nil {
			t.Fatal(err)
		}
		ct.OS = emu.NewOS(p.Stdin)
		e := tb.New(ct, nil)

		for i := 0; i < steps && !ci.Exited; i++ {
			if err := ci.Step(); err != nil {
				t.Fatalf("%s: interp step %d: %v", name, i, err)
			}
			if err := e.Step(); err != nil {
				t.Fatalf("%s: tb step %d: %v", name, i, err)
			}
			if ci.Icount != ct.Icount || ci.EIP != ct.EIP ||
				ci.Reg != ct.Reg || ci.Flags() != ct.Flags() {
				t.Fatalf("%s: diverged at step %d: eip %#x/%#x icount %d/%d flags %#x/%#x",
					name, i, ci.EIP, ct.EIP, ci.Icount, ct.Icount, ci.Flags(), ct.Flags())
			}
		}
		e.Close()
	}
}

// TestStepThenRunHandoff steps partway into a block, then finishes the
// program with Run on the same engine: the step cursor must not leak
// stale position into the run path.
func TestStepThenRunHandoff(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	img, err := codegen.Build(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	ci := runInterp(t, img, p.Stdin)

	ct, err := emu.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	ct.OS = emu.NewOS(p.Stdin)
	ct.MaxInst = parityBudget
	e := tb.New(ct, nil)
	defer e.Close()
	for i := 0; i < 777; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil && !errors.Is(err, emu.ErrInstLimit) {
		t.Fatal(err)
	}
	compareState(t, p.Name, ci, ct)
}

// TestRunContextDeadline mirrors the interpreter's watchdog contract:
// a canceled context surfaces as *emu.DeadlineError from block
// boundaries, and an already-canceled context fails before executing.
func TestRunContextDeadline(t *testing.T) {
	p, err := corpus.ByName("lame")
	if err != nil {
		t.Fatal(err)
	}
	img, err := codegen.Build(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	c, err := emu.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	c.OS = emu.NewOS(p.Stdin)
	c.CheckStride = 1024
	e := tb.New(c, nil)
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var dl *emu.DeadlineError
	if err := e.RunContext(ctx); !errors.As(err, &dl) {
		t.Fatalf("canceled context: got %v, want *emu.DeadlineError", err)
	}
	if c.Icount != 0 {
		t.Fatalf("pre-canceled run retired %d insts", c.Icount)
	}
}

// TestProfileParity checks the engine replicates Step's per-address hit
// counting: profiles must be identical between backends (the property
// TestFallbackRateBudget relies on when it weighs fallback opcodes by
// tb-recorded hit counts).
func TestProfileParity(t *testing.T) {
	p, err := corpus.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	img, err := codegen.Build(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	run := func(useTB bool) map[uint32]uint64 {
		c, err := emu.LoadImage(img)
		if err != nil {
			t.Fatal(err)
		}
		c.OS = emu.NewOS(p.Stdin)
		c.MaxInst = 200_000
		c.EnableProfile()
		if useTB {
			e := tb.New(c, nil)
			defer e.Close()
			if err := e.Run(); err != nil && !errors.Is(err, emu.ErrInstLimit) {
				t.Fatal(err)
			}
		} else if err := c.Run(); err != nil && !errors.Is(err, emu.ErrInstLimit) {
			t.Fatal(err)
		}
		return c.Profile()
	}
	pi, pt := run(false), run(true)
	if len(pi) != len(pt) {
		t.Fatalf("profile sizes differ: %d vs %d", len(pi), len(pt))
	}
	for addr, n := range pi {
		if pt[addr] != n {
			t.Fatalf("profile differs at %#x: %d vs %d", addr, n, pt[addr])
		}
	}
}

// TestFaultParity: a program that loads from unmapped memory must fail
// with the same fault class and attribution on both engines.
func TestFaultParity(t *testing.T) {
	// mov eax, [0x00000040] — unmapped low page.
	prog := []byte{0xA1, 0x40, 0x00, 0x00, 0x00, 0xC3}
	run := func(useTB bool) error {
		c := loadWX(t, prog)
		if useTB {
			e := tb.New(c, nil)
			defer e.Close()
			return e.Run()
		}
		return c.Run()
	}
	errI, errT := run(false), run(true)
	var fi, ft *emu.FaultError
	if !errors.As(errI, &fi) || !errors.As(errT, &ft) {
		t.Fatalf("want *emu.FaultError from both, got %v / %v", errI, errT)
	}
	if *fi != *ft {
		t.Fatalf("fault mismatch: %+v vs %+v", *fi, *ft)
	}
	if ft.EIP != testBase {
		t.Fatalf("fault attributed to %#x, want %#x", ft.EIP, uint32(testBase))
	}
}

// TestStackFaultParity: pushing below the stack guard classifies as
// *emu.StackOverflowError with interpreter-identical attribution, on
// both the push and call paths.
func TestStackFaultParity(t *testing.T) {
	base := emu.DefaultStackTop - emu.DefaultStackSize
	movEsp := []byte{0xBC, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(movEsp[1:], base+4)
	progs := map[string][]byte{
		// mov esp, base+4; push eax; push eax — the second push dips
		// below the stack base, inside the guard span.
		"push": append(append([]byte{}, movEsp...), 0x50, 0x50, 0xC3),
		// mov esp, base+4; push eax; call +0 — the call's return-address
		// push is the faulting store.
		"call": append(append([]byte{}, movEsp...), 0x50, 0xE8, 0x00, 0x00, 0x00, 0x00, 0xC3),
	}
	for name, prog := range progs {
		run := func(useTB bool) error {
			c := loadWX(t, prog)
			if useTB {
				e := tb.New(c, nil)
				defer e.Close()
				return e.Run()
			}
			return c.Run()
		}
		errI, errT := run(false), run(true)
		var si, st *emu.StackOverflowError
		if !errors.As(errI, &si) || !errors.As(errT, &st) {
			t.Fatalf("%s: want *emu.StackOverflowError from both, got %v / %v", name, errI, errT)
		}
		if si.ESP != st.ESP || si.EIP != st.EIP {
			t.Fatalf("%s: attribution mismatch: esp %#x/%#x eip %#x/%#x",
				name, si.ESP, st.ESP, si.EIP, st.EIP)
		}
	}
}

// TestExitSentinelReturn: returning to the exit sentinel from a
// translated RET ends the run with EAX as the status, exactly like the
// interpreter's sentinel check.
func TestExitSentinelReturn(t *testing.T) {
	// mov eax, 42; ret  (the loader's initial stack frame returns to
	// the sentinel)
	prog := []byte{0xB8, 0x2A, 0x00, 0x00, 0x00, 0xC3}
	c := loadWX(t, prog)
	e := tb.New(c, nil)
	defer e.Close()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Exited || c.Status != 42 {
		t.Fatalf("exited=%v status=%d, want true/42", c.Exited, c.Status)
	}
	if c.Reg[x86.EAX] != 42 {
		t.Fatalf("eax=%d", c.Reg[x86.EAX])
	}
}
