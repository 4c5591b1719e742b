package emu

import (
	"bytes"
	"testing"

	"parallax/internal/image"
	"parallax/internal/x86"
)

const (
	forkBuf  = testDataBase        // stdin/stdout staging buffer
	forkRand = testDataBase + 0x40 // getrandom destination
)

// forkProgram exercises every piece of state a fork point carries: it
// reads 3 of its 8 stdin bytes and echoes them, draws getrandom bytes,
// calls ptrace(TRACEME), then loops 40 times over an add whose
// immediate it rewrites each pass (self-modifying code), and finally
// reads and echoes the remaining 5 stdin bytes and exits with EAX.
func forkProgram(t *testing.T) *image.Image {
	t.Helper()
	sys := func(b *x86.Builder, num, a1, a2, a3 int32) {
		b.I(ri(x86.MOV, x86.EAX, num))
		b.I(ri(x86.MOV, x86.EBX, a1))
		b.I(ri(x86.MOV, x86.ECX, a2))
		b.I(ri(x86.MOV, x86.EDX, a3))
		b.I(x86.Inst{Op: x86.INT, W: 32, Imm: 0x80})
	}
	build := func(immAddr uint32) ([]byte, uint32) {
		b := x86.NewBuilder(testTextBase)
		sys(b, SysRead, 0, forkBuf, 3)
		sys(b, SysWrite, 1, forkBuf, 3)
		sys(b, SysGetrand, forkRand, 4, 0)
		sys(b, SysPtrace, PtraceTraceme, 0, 0)
		b.I(ri(x86.MOV, x86.ESI, 0))
		b.I(ri(x86.MOV, x86.ECX, 40))
		b.Label("loop")
		b.I(ri(x86.ADD, x86.ESI, 500))
		b.Label("after")
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(immAddr), Src: x86.RegOp(x86.ECX)})
		b.I(x86.Inst{Op: x86.DEC, W: 32, Dst: x86.RegOp(x86.ECX)})
		b.JccL(x86.CondNE, "loop")
		sys(b, SysRead, 0, forkBuf, 5)
		sys(b, SysWrite, 1, forkBuf, 5)
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.ESI)})
		b.I(x86.Inst{Op: x86.RET, W: 32})
		code, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		after, _ := b.LabelAddr("after")
		return code, after - 4
	}
	_, immAddr := build(0)
	code, _ := build(immAddr)
	return &image.Image{Entry: testTextBase, Sections: []*image.Section{
		{Name: ".text", Addr: testTextBase, Data: code, Size: uint32(len(code)),
			Perm: image.PermR | image.PermW | image.PermX},
		{Name: ".data", Addr: testDataBase, Data: make([]byte, 0x80), Size: 0x1000,
			Perm: image.PermR | image.PermW},
	}}
}

const forkStdin = "abcdefgh"

// runFrom loads img, applies fp (nil: start at the entry point) and runs
// to exit on the interpreter.
func runFrom(t *testing.T, img *image.Image, fp *ForkPoint) (*CPU, *OS) {
	t.Helper()
	c, err := LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	os := NewOS([]byte(forkStdin))
	if fp != nil {
		c.ApplyFork(fp)
		if err := os.Resume(fp.Kernel); err != nil {
			t.Fatal(err)
		}
	}
	c.OS = os
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c, os
}

// sameRun requires two finished runs to agree on registers, flags,
// counters, exit state, stdout and every mapped byte.
func sameRun(t *testing.T, name string, want, got *CPU, wantOut, gotOut string) {
	t.Helper()
	if want.Reg != got.Reg || want.EIP != got.EIP || want.Flags() != got.Flags() {
		t.Errorf("%s: registers %v eip %#x flags %#x, want %v eip %#x flags %#x",
			name, got.Reg, got.EIP, got.Flags(), want.Reg, want.EIP, want.Flags())
	}
	if want.Icount != got.Icount || want.Cycles != got.Cycles {
		t.Errorf("%s: icount %d cycles %d, want %d and %d", name, got.Icount, got.Cycles, want.Icount, want.Cycles)
	}
	if want.Exited != got.Exited || want.Status != got.Status || wantOut != gotOut {
		t.Errorf("%s: exit %t status %d stdout %q, want %t %d %q",
			name, got.Exited, got.Status, gotOut, want.Exited, want.Status, wantOut)
	}
	for i, seg := range want.Mem.segs {
		if !bytes.Equal(seg.Data, got.Mem.segs[i].Data) {
			t.Errorf("%s: segment %s differs", name, seg.Name)
		}
	}
}

// TestForkPointRoundTrip records a run with a fork point every 7
// instructions, then resumes a fresh CPU from each one: every resumed
// run must end in exactly the uninterrupted run's state, and recording
// must not perturb the run it watches.
func TestForkPointRoundTrip(t *testing.T) {
	img := forkProgram(t)
	plain, plainOS := runFrom(t, img, nil)

	c, err := LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Record(testTextBase, testDataBase+0x80)
	rec.every, rec.next = 7, 7
	os := NewOS([]byte(forkStdin))
	c.OS = os
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	sameRun(t, "recorded run", plain, c, plainOS.Stdout.String(), os.Stdout.String())

	forks := rec.Forks()
	last := forks[len(forks)-1]
	if !last.exited || last.Icount != plain.Icount {
		t.Fatalf("last fork point: exited %t icount %d, want the exit state at %d", last.exited, last.Icount, plain.Icount)
	}
	var partialStdin, afterStdout, midSMC bool
	for _, fp := range forks {
		k := fp.Kernel
		partialStdin = partialStdin || k.StdinOff == 3
		afterStdout = afterStdout || (len(k.Stdout) == 3 && !fp.exited)
		midSMC = midSMC || (k.Traced && fp.reg[x86.ECX] > 1 && fp.reg[x86.ECX] < 40)
		got, gotOS := runFrom(t, img, fp)
		sameRun(t, "resumed", plain, got, plainOS.Stdout.String(), gotOS.Stdout.String())
	}
	if !partialStdin || !afterStdout || !midSMC {
		t.Errorf("fork points miss a case: partial stdin %t, after stdout %t, mid self-modifying loop %t",
			partialStdin, afterStdout, midSMC)
	}
	if len(forks) > maxForks+1 {
		t.Errorf("%d fork points, want at most %d plus the exit state", len(forks), maxForks)
	}
}

// TestRecordingFirstTouch pins the first-touch map: the entry
// instruction's bytes are touched by instruction 1, data bytes by the
// read(2) that fills them, unused bytes never, and bytes outside the
// recorded span read as touched at once.
func TestRecordingFirstTouch(t *testing.T) {
	img := forkProgram(t)
	c, err := LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Record(testTextBase, testDataBase+0x80)
	c.OS = NewOS([]byte(forkStdin))
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	entry, err := c.DecodeAt(testTextBase)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.FirstTouch(testTextBase, uint32(entry.Len)); got != 1 {
		t.Errorf("entry instruction first touched by %d, want 1", got)
	}
	// The first read(2) is the fifth instruction (four register loads,
	// then int 0x80): it writes stdin into forkBuf.
	if got := rec.FirstTouch(forkBuf, 3); got != 5 {
		t.Errorf("stdin buffer first touched by %d, want 5", got)
	}
	if got := rec.FirstTouch(forkBuf+8, 8); got != 0 {
		t.Errorf("unused data first touched by %d, want never", got)
	}
	if got := rec.FirstTouch(testDataBase+0x80, 1); got != 1 {
		t.Errorf("byte outside the span reads as touched by %d, want 1", got)
	}
	if fp := rec.Before(0); fp != rec.Forks()[len(rec.Forks())-1] {
		t.Error("Before(never) is not the exit state")
	}
	if fp := rec.Before(1); fp != nil {
		t.Errorf("Before(1) = fork at %d, want none", fp.Icount)
	}
}

// TestResumeStdinShort: a kernel cannot resume past the end of its
// stdin, and a resume leaves the offset where the recorded run had it.
func TestResumeStdinShort(t *testing.T) {
	os := NewOS([]byte("ab"))
	if err := os.Resume(KernelState{StdinOff: 3}); err == nil {
		t.Error("resume past the end of stdin succeeded")
	}
	os = NewOS([]byte("abcd"))
	if err := os.Resume(KernelState{StdinOff: 3, Stdout: []byte("x"), RandState: 7, Traced: true}); err != nil {
		t.Fatal(err)
	}
	if os.stdinOff != 3 || os.Stdout.String() != "x" || os.RandState != 7 || !os.traced {
		t.Errorf("resumed kernel: off %d stdout %q rand %d traced %t", os.stdinOff, os.Stdout.String(), os.RandState, os.traced)
	}
	rest := make([]byte, 4)
	if n, _ := os.Stdin.Read(rest); n != 1 || rest[0] != 'd' {
		t.Errorf("stdin after resume reads %q, want %q", rest[:n], "d")
	}
}
