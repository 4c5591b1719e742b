package tb_test

import (
	"bytes"
	"fmt"
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/dyngen"
	"parallax/internal/emu"
	"parallax/internal/emu/forktest"
	"parallax/internal/emu/tb"
	"parallax/internal/image"
	"parallax/internal/x86"
)

// forkTarget is a real image with its workload.
type forkTarget struct {
	name  string
	img   *image.Image
	stdin []byte
}

// forkTargets are forktest.Phased, a generated program under its heavy
// workload and an xor-protected corpus program, which decrypts its
// chain into memory before every verification call.
func forkTargets(t *testing.T) []forkTarget {
	t.Helper()
	fam, err := gen.FamilyByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.FamilyProgram(fam, 3)
	if err != nil {
		t.Fatal(err)
	}
	heavy, _ := p.Workload("heavy")
	genImg, err := codegen.Build(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	w, err := corpus.ByName("wget")
	if err != nil {
		t.Fatal(err)
	}
	prot, err := core.Protect(w.Build(), core.Options{VerifyFuncs: []string{w.VerifyFunc}, ChainMode: dyngen.ModeXor})
	if err != nil {
		t.Fatal(err)
	}
	return []forkTarget{
		{"phased", forktest.Phased(), []byte(forktest.Stdin)},
		{p.Name + "/heavy", genImg, heavy},
		{"wget/xor", prot.Image, w.Stdin},
	}
}

// TestForkPointRoundTripEngines records each target's clean run on tb,
// then resumes a fresh CPU from every fork point under both engines;
// each resumed run must end in the uninterrupted run's registers,
// flags, counters, stdout and memory. forktest.Phased's fork points
// fall after partial stdin reads, after stdout writes and inside its
// self-modifying loops; every target's last is the exit state.
func TestForkPointRoundTripEngines(t *testing.T) {
	for _, tg := range forkTargets(t) {
		c, os, rec := recordTB(t, tg.img, tg.stdin)
		out := os.Stdout.Len()

		forks := rec.Forks()
		if len(forks) < 5 || len(forks) > maxForks+1 {
			t.Fatalf("%s: %d fork points over %d instructions, want 5 to %d", tg.name, len(forks), c.Icount, maxForks+1)
		}
		var midStdin, midStdout bool
		for i, fp := range forks {
			if i > 0 && fp.Icount <= forks[i-1].Icount {
				t.Errorf("%s: fork point %d at %d follows one at %d", tg.name, i, fp.Icount, forks[i-1].Icount)
			}
			k := fp.Kernel
			midStdin = midStdin || (k.StdinOff > 0 && k.StdinOff < int64(len(tg.stdin)))
			midStdout = midStdout || (len(k.Stdout) > 0 && len(k.Stdout) < out)
			for _, engine := range []emu.Engine{emu.Interp, emu.TB} {
				got, gos := resume(t, tg.img, tg.stdin, fp, engine)
				sameRun(t, fmt.Sprintf("%s: %s resumed at %d", tg.name, engine, fp.Icount), tg.img, c, got, os, gos)
			}
		}
		if tg.name == "phased" && (!midStdin || !midStdout) {
			t.Errorf("%s: fork points miss a case: stdin partly read %t, stdout partly written %t",
				tg.name, midStdin, midStdout)
		}
		if !forks[len(forks)-1].Kernel.Traced && tg.name == "phased" {
			t.Errorf("%s: exit state lost the ptrace flag", tg.name)
		}
	}
}

// maxForks is emu.Recording's cap on periodic fork points; the exit
// state comes on top.
const maxForks = 32

// recordSpan is the address span of img's initialized sections, the
// span a campaign records.
func recordSpan(img *image.Image) (lo, hi uint32) {
	last := img.Sections[len(img.Sections)-1]
	return img.Sections[0].Addr, last.Addr + uint32(len(last.Data))
}

// recordTB runs img to exit on a tb engine with a Recording attached
// and returns the finished CPU, its kernel and the recording.
func recordTB(t *testing.T, img *image.Image, stdin []byte) (*emu.CPU, *emu.OS, *emu.Recording) {
	t.Helper()
	c, err := emu.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Record(recordSpan(img))
	os := emu.NewOS(stdin)
	c.OS = os
	e := tb.New(c, nil)
	err = e.Run()
	e.Close()
	if err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	if c.Recording() != nil {
		t.Fatal("Finish left the recording attached")
	}
	return c, os, rec
}

// applyFork loads img and moves it to fp (nil: the entry point) with
// the kernel resumed there.
func applyFork(t *testing.T, img *image.Image, stdin []byte, fp *emu.ForkPoint) (*emu.CPU, *emu.OS) {
	t.Helper()
	c, err := emu.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	os := emu.NewOS(stdin)
	if fp != nil {
		c.ApplyFork(fp)
		if err := os.Resume(fp.Kernel); err != nil {
			t.Fatal(err)
		}
	}
	c.OS = os
	return c, os
}

// resume runs img to exit from fp under engine.
func resume(t *testing.T, img *image.Image, stdin []byte, fp *emu.ForkPoint, engine emu.Engine) (*emu.CPU, *emu.OS) {
	t.Helper()
	c, os := applyFork(t, img, stdin, fp)
	var err error
	if engine == emu.TB {
		e := tb.New(c, nil)
		err = e.Run()
		e.Close()
	} else {
		err = c.Run()
	}
	if err != nil {
		at := uint64(0)
		if fp != nil {
			at = fp.Icount
		}
		t.Fatalf("%s resumed at %d: %v", engine, at, err)
	}
	return c, os
}

// sameRun requires two finished runs of img to agree on registers,
// flags, counters, exit state, stdout and memory: every section and
// the stack.
func sameRun(t *testing.T, name string, img *image.Image, want, got *emu.CPU, wantOS, gotOS *emu.OS) {
	t.Helper()
	compareState(t, name, want, got)
	if w, g := wantOS.Stdout.String(), gotOS.Stdout.String(); w != g {
		t.Errorf("%s: stdout %q, want %q", name, g, w)
	}
	addrs := []uint32{want.Mem.SegmentByName("[stack]").Addr}
	for _, s := range img.Sections {
		addrs = append(addrs, s.Addr)
	}
	for _, a := range addrs {
		if !bytes.Equal(want.Mem.Segment(a).Data, got.Mem.Segment(a).Data) {
			t.Errorf("%s: memory at %#x differs", name, a)
		}
	}
}

// TestForkPointRoundTrip records forktest.Split on tb and resumes a fresh
// interpreter CPU from each fork point: every resumed run must end in
// exactly the uninterrupted run's state, and recording must not
// perturb the run it watches. The fork points must cover a partly read
// stdin, stdout already written, the middle of the self-modifying
// loop and, last, the exit state.
func TestForkPointRoundTrip(t *testing.T) {
	img := forktest.Split()
	stdin := []byte(forktest.Stdin)
	plain, plainOS := resume(t, img, stdin, nil, emu.Interp)
	c, os, rec := recordTB(t, img, stdin)
	sameRun(t, "recorded run", img, plain, c, plainOS, os)

	forks := rec.Forks()
	var partialStdin, afterStdout, midSMC bool
	for i, fp := range forks {
		at, _ := applyFork(t, img, stdin, fp)
		if i == len(forks)-1 && (!at.Exited || fp.Icount != plain.Icount) {
			t.Fatalf("last fork point: exited %t icount %d, want the exit state at %d", at.Exited, fp.Icount, plain.Icount)
		}
		k := fp.Kernel
		partialStdin = partialStdin || k.StdinOff == 3
		afterStdout = afterStdout || (len(k.Stdout) == 3 && !at.Exited)
		ecx := at.Reg[x86.ECX]
		midSMC = midSMC || (k.Traced && ecx > 1 && ecx < forktest.SplitLoops)
		got, gotOS := resume(t, img, stdin, fp, emu.Interp)
		sameRun(t, "resumed", img, plain, got, plainOS, gotOS)
	}
	if !partialStdin || !afterStdout || !midSMC {
		t.Errorf("fork points miss a case: partial stdin %t, after stdout %t, mid self-modifying loop %t",
			partialStdin, afterStdout, midSMC)
	}
	if len(forks) > maxForks+1 {
		t.Errorf("%d fork points, want at most %d plus the exit state", len(forks), maxForks)
	}
}

// TestRecordingFirstTouch pins the first-touch map a tb run records:
// the entry instruction's bytes are touched by instruction 1, data
// bytes by the read(2) that fills them, unused bytes never, and bytes
// outside the recorded span read as touched at once. Stepping the
// interpreter over the same run then checks that no instruction's
// bytes are marked later than the instruction that fetched them.
func TestRecordingFirstTouch(t *testing.T) {
	img := forktest.Split()
	stdin := []byte(forktest.Stdin)
	_, _, rec := recordTB(t, img, stdin)
	_, hi := recordSpan(img)

	if got := rec.FirstTouch(testBase, 5); got != 1 {
		t.Errorf("entry instruction first touched by %d, want 1", got)
	}
	// The first read(2) is the fifth instruction (four register loads,
	// then int 0x80): it writes stdin into forkBuf.
	if got := rec.FirstTouch(forktest.SplitBuf, 3); got != 5 {
		t.Errorf("stdin buffer first touched by %d, want 5", got)
	}
	if got := rec.FirstTouch(forktest.SplitBuf+8, 8); got != 0 {
		t.Errorf("unused data first touched by %d, want never", got)
	}
	if got := rec.FirstTouch(hi, 1); got != 1 {
		t.Errorf("byte outside the span reads as touched by %d, want 1", got)
	}
	if fp := rec.Before(0); fp != rec.Forks()[len(rec.Forks())-1] {
		t.Error("Before(never) is not the exit state")
	}
	if fp := rec.Before(1); fp != nil {
		t.Errorf("Before(1) = fork at %d, want none", fp.Icount)
	}

	c, _ := applyFork(t, img, stdin, nil)
	for !c.Exited {
		inst, err := c.DecodeAt(c.EIP)
		if err != nil {
			t.Fatal(err)
		}
		for a := c.EIP; a < c.EIP+uint32(inst.Len); a++ {
			if f := rec.FirstTouch(a, 1); f == 0 || uint64(f) > c.Icount+1 {
				t.Fatalf("byte %#x fetched by instruction %d recorded as first touched by %d", a, c.Icount+1, f)
			}
		}
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecordingFirstChainData: inside a tb run's first chain the
// published Icount is still 0, the first-touch map's "never touched"
// sentinel. A data word read by the entry block must still read as
// touched (by instruction 1), so a mutant of it replays from the entry
// point instead of resuming at the exit state.
func TestRecordingFirstChainData(t *testing.T) {
	img := forktest.Probe()
	c, _, rec := recordTB(t, img, nil)
	if got := rec.FirstTouch(forktest.ProbeFirst, 4); got != 1 {
		t.Errorf("word read by the entry block first touched by %d, want 1", got)
	}
	if fp := rec.Before(rec.FirstTouch(forktest.ProbeFirst, 1)); fp != nil {
		t.Errorf("a mutant of the entry block's word resumes at %d, want the entry point", fp.Icount)
	}
	if got := rec.FirstTouch(forktest.ProbeLoop, 4); got < 1 || got > 3 {
		t.Errorf("word the first loop pass reads first touched by %d, want 1 to 3", got)
	}
	// The store follows 2 + 3×1500 instructions.
	if got := rec.FirstTouch(forktest.ProbeOut, 4); got < 1 || got > 4503 {
		t.Errorf("result word first touched by %d, want 1 to 4503", got)
	}
	if got := rec.FirstTouch(forktest.ProbeIdle, 4); got != 0 {
		t.Errorf("idle data first touched by %d, want never", got)
	}
	text := img.Sections[0]
	end := text.Addr + uint32(len(text.Data))
	if got := rec.FirstTouch(end-6, 6); got != 0 {
		t.Errorf("uncalled function first touched by %d, want never", got)
	}
	if c.Status == 0 {
		t.Error("probe program exited 0")
	}
}
