package tb_test

import (
	"bytes"
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/dyngen"
	"parallax/internal/emu"
	"parallax/internal/emu/tb"
	"parallax/internal/image"
	"parallax/internal/x86"
)

const (
	phasedBuf  = testBase + 0x1000 // stdin/stdout staging buffer
	phasedRand = testBase + 0x1040 // getrandom destination
)

// phasedProgram runs four phases, each reading 2 stdin bytes, echoing
// them, drawing getrandom bytes and then looping 600 times over an add
// whose immediate it rewrites every pass (self-modifying code); the
// second phase also calls ptrace(TRACEME). About 8000 instructions,
// so fork points fall between the phases' reads and writes.
func phasedProgram(t *testing.T) *image.Image {
	t.Helper()
	ri := func(op x86.Op, r x86.Reg, v int32) x86.Inst {
		return x86.Inst{Op: op, W: 32, Dst: x86.RegOp(r), Src: x86.ImmOp(v)}
	}
	sys := func(b *x86.Builder, num, a1, a2, a3 int32) {
		b.I(ri(x86.MOV, x86.EAX, num))
		b.I(ri(x86.MOV, x86.EBX, a1))
		b.I(ri(x86.MOV, x86.ECX, a2))
		b.I(ri(x86.MOV, x86.EDX, a3))
		b.I(x86.Inst{Op: x86.INT, W: 32, Imm: 0x80})
	}
	build := func(imm []uint32) ([]byte, []uint32) {
		b := x86.NewBuilder(testBase)
		b.I(ri(x86.MOV, x86.ESI, 0))
		var next []uint32
		for ph := 0; ph < 4; ph++ {
			sys(b, emu.SysRead, 0, phasedBuf, 2)
			sys(b, emu.SysWrite, 1, phasedBuf, 2)
			sys(b, emu.SysGetrand, phasedRand, 4, 0)
			if ph == 1 {
				sys(b, emu.SysPtrace, emu.PtraceTraceme, 0, 0)
			}
			loop, after := string(rune('a'+ph)), string(rune('A'+ph))
			b.I(ri(x86.MOV, x86.ECX, 600))
			b.Label(loop)
			b.I(ri(x86.ADD, x86.ESI, 500))
			b.Label(after)
			target := uint32(0)
			if imm != nil {
				target = imm[ph]
			}
			b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(target), Src: x86.RegOp(x86.ECX)})
			b.I(x86.Inst{Op: x86.DEC, W: 32, Dst: x86.RegOp(x86.ECX)})
			b.JccL(x86.CondNE, loop)
		}
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.ESI)})
		b.I(x86.Inst{Op: x86.RET, W: 32})
		code, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for ph := 0; ph < 4; ph++ {
			a, _ := b.LabelAddr(string(rune('A' + ph)))
			next = append(next, a-4) // the add's trailing imm32
		}
		return code, next
	}
	_, imm := build(nil)
	code, _ := build(imm)
	return &image.Image{Entry: testBase, Sections: []*image.Section{
		{Name: ".text", Addr: testBase, Data: code, Size: uint32(len(code)),
			Perm: image.PermR | image.PermW | image.PermX},
		{Name: ".data", Addr: phasedBuf, Data: make([]byte, 0x80), Size: 0x1000,
			Perm: image.PermR | image.PermW},
	}}
}

// forkTarget is a real image with its workload.
type forkTarget struct {
	name  string
	img   *image.Image
	stdin []byte
}

// forkTargets are phasedProgram, a generated program under its heavy
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
	genImg, err := codegen.Build(p.Build(), image.Layout{})
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
		{"phased", phasedProgram(t), []byte("abcdefgh")},
		{p.Name + "/heavy", genImg, heavy},
		{"wget/xor", prot.Image, w.Stdin},
	}
}

// finalState is everything a finished run leaves behind.
type finalState struct {
	cpu    *emu.CPU
	stdout string
	mem    [][]byte
}

func capture(c *emu.CPU, img *image.Image, os *emu.OS) finalState {
	st := finalState{cpu: c, stdout: os.Stdout.String()}
	for _, s := range img.Sections {
		st.mem = append(st.mem, c.Mem.Segment(s.Addr).Data)
	}
	st.mem = append(st.mem, c.Mem.SegmentByName("[stack]").Data)
	return st
}

// TestForkPointRoundTripEngines records each target's clean run on the
// interpreter, then resumes a fresh CPU from every fork point under
// both engines; each resumed run must end in the uninterrupted run's
// registers, flags, counters, stdout and memory. phasedProgram's fork
// points fall after partial stdin reads, after stdout writes and inside
// its self-modifying loops; every target's last is the exit state.
func TestForkPointRoundTripEngines(t *testing.T) {
	for _, tg := range forkTargets(t) {
		c, err := emu.LoadImage(tg.img)
		if err != nil {
			t.Fatal(err)
		}
		lo := tg.img.Sections[0].Addr
		last := tg.img.Sections[len(tg.img.Sections)-1]
		rec := c.Record(lo, last.Addr+uint32(len(last.Data)))
		os := emu.NewOS(tg.stdin)
		c.OS = os
		if err := c.Run(); err != nil {
			t.Fatalf("%s: recorded run: %v", tg.name, err)
		}
		if err := rec.Finish(); err != nil {
			t.Fatalf("%s: %v", tg.name, err)
		}
		want := capture(c, tg.img, os)

		forks := rec.Forks()
		if len(forks) < 5 {
			t.Fatalf("%s: only %d fork points over %d instructions", tg.name, len(forks), c.Icount)
		}
		var midStdin, midStdout bool
		for _, fp := range forks {
			k := fp.Kernel
			midStdin = midStdin || (k.StdinOff > 0 && k.StdinOff < int64(len(tg.stdin)))
			midStdout = midStdout || (len(k.Stdout) > 0 && len(k.Stdout) < len(want.stdout))
			for _, engine := range []string{"interp", "tb"} {
				got, err := emu.LoadImage(tg.img)
				if err != nil {
					t.Fatal(err)
				}
				got.ApplyFork(fp)
				gos := emu.NewOS(tg.stdin)
				if err := gos.Resume(fp.Kernel); err != nil {
					t.Fatal(err)
				}
				got.OS = gos
				if engine == "tb" {
					e := tb.New(got, nil)
					err = e.Run()
					e.Close()
				} else {
					err = got.Run()
				}
				if err != nil {
					t.Fatalf("%s: %s resumed at %d: %v", tg.name, engine, fp.Icount, err)
				}
				compareState(t, tg.name+"/"+engine, want.cpu, got)
				gst := capture(got, tg.img, gos)
				if gst.stdout != want.stdout {
					t.Errorf("%s: %s resumed at %d: stdout differs", tg.name, engine, fp.Icount)
				}
				for i := range want.mem {
					if !bytes.Equal(want.mem[i], gst.mem[i]) {
						t.Errorf("%s: %s resumed at %d: memory region %d differs", tg.name, engine, fp.Icount, i)
					}
				}
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
