// Package forktest builds the small hand-written images the fork-point
// tests share: the emu/tb recorder tests and the campaign's dense
// fork-versus-replay differential. Each program is fixed, so a builder
// error is a bug in this package and panics.
package forktest

import (
	"parallax/internal/emu"
	"parallax/internal/image"
	"parallax/internal/x86"
)

// Base is the address of every program's .text.
const Base = 0x08048000

const (
	phasedBuf  = Base + 0x1000 // stdin/stdout staging buffer
	phasedRand = Base + 0x1040 // getrandom destination
)

// Stdin is the workload Phased and Split read in pieces.
const Stdin = "abcdefgh"

func ri(op x86.Op, r x86.Reg, v int32) x86.Inst {
	return x86.Inst{Op: op, W: 32, Dst: x86.RegOp(r), Src: x86.ImmOp(v)}
}

func sys(b *x86.Builder, num, a1, a2, a3 int32) {
	b.I(ri(x86.MOV, x86.EAX, num))
	b.I(ri(x86.MOV, x86.EBX, a1))
	b.I(ri(x86.MOV, x86.ECX, a2))
	b.I(ri(x86.MOV, x86.EDX, a3))
	b.I(x86.Inst{Op: x86.INT, W: 32, Imm: 0x80})
}

func finish(b *x86.Builder) []byte {
	code, err := b.Finish()
	if err != nil {
		panic("forktest: " + err.Error())
	}
	return code
}

// Phased runs four phases, each reading 2 stdin bytes, echoing them,
// drawing getrandom bytes and then looping 600 times over an add
// whose immediate it rewrites every pass (self-modifying code); the
// second phase also calls ptrace(TRACEME). About 8000 instructions, so
// fork points fall between the phases' reads and writes. Its exit
// status is the sum the adds build.
func Phased() *image.Image {
	build := func(imm []uint32) ([]byte, []uint32) {
		b := x86.NewBuilder(Base)
		b.I(ri(x86.MOV, x86.ESI, 0))
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
		code := finish(b)
		var next []uint32
		for ph := 0; ph < 4; ph++ {
			a, _ := b.LabelAddr(string(rune('A' + ph)))
			next = append(next, a-4) // the add's trailing imm32
		}
		return code, next
	}
	_, imm := build(nil)
	code, _ := build(imm)
	return &image.Image{Entry: Base, Sections: []*image.Section{
		{Name: ".text", Addr: Base, Data: code, Size: uint32(len(code)),
			Perm: image.PermR | image.PermW | image.PermX},
		{Name: ".data", Addr: phasedBuf, Data: make([]byte, 0x80), Size: 0x1000,
			Perm: image.PermR | image.PermW},
	}}
}

const (
	// SplitBuf is Split's stdin/stdout staging buffer.
	SplitBuf   = Base + 0x1000
	splitRand  = Base + 0x1040 // getrandom destination
	SplitLoops = 1200          // passes of Split's self-modifying loop
)

// Split exercises every piece of state a fork point carries: it reads
// 3 of its 8 stdin bytes and echoes them, draws getrandom bytes, calls
// ptrace(TRACEME), then loops SplitLoops times over an add whose
// immediate it rewrites each pass (self-modifying code), and finally
// reads and echoes the remaining 5 stdin bytes and exits with the sum
// the adds build. The loop is long enough for several fork points.
func Split() *image.Image {
	build := func(immAddr uint32) ([]byte, uint32) {
		b := x86.NewBuilder(Base)
		sys(b, emu.SysRead, 0, SplitBuf, 3)
		sys(b, emu.SysWrite, 1, SplitBuf, 3)
		sys(b, emu.SysGetrand, splitRand, 4, 0)
		sys(b, emu.SysPtrace, emu.PtraceTraceme, 0, 0)
		b.I(ri(x86.MOV, x86.ESI, 0))
		b.I(ri(x86.MOV, x86.ECX, SplitLoops))
		b.Label("loop")
		b.I(ri(x86.ADD, x86.ESI, 500))
		b.Label("after")
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(immAddr), Src: x86.RegOp(x86.ECX)})
		b.I(x86.Inst{Op: x86.DEC, W: 32, Dst: x86.RegOp(x86.ECX)})
		b.JccL(x86.CondNE, "loop")
		sys(b, emu.SysRead, 0, SplitBuf, 5)
		sys(b, emu.SysWrite, 1, SplitBuf, 5)
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.ESI)})
		b.I(x86.Inst{Op: x86.RET, W: 32})
		code := finish(b)
		after, _ := b.LabelAddr("after")
		return code, after - 4 // the add's trailing imm32
	}
	_, immAddr := build(0)
	code, _ := build(immAddr)
	return &image.Image{Entry: Base, Sections: []*image.Section{
		{Name: ".text", Addr: Base, Data: code, Size: uint32(len(code)),
			Perm: image.PermR | image.PermW | image.PermX},
		{Name: ".data", Addr: SplitBuf, Data: make([]byte, 0x80), Size: 0x1000,
			Perm: image.PermR | image.PermW},
	}}
}

// Probe data layout: the word the entry block reads, the word the loop
// adds, the word the result is stored to, then bytes nothing touches.
const (
	ProbeData  = Base + 0x1000
	ProbeFirst = ProbeData      // read by the entry block
	ProbeLoop  = ProbeData + 4  // read on every loop pass
	ProbeOut   = ProbeData + 8  // written late, then echoed
	ProbeIdle  = ProbeData + 12 // never touched
	probeSize  = 0x20
)

// Probe reads a data word in its very first block, before any block
// boundary (inside a tb run's first chain the published Icount is still
// 0), adds a second word 1500 times, stores the sum and writes it to
// stdout, exiting with the sum as its status. The tail of its .data
// and a function after the exit are never touched. Its data is
// symbolized as a parallax block, so a campaign enumerates mutants
// over it.
func Probe() *image.Image {
	b := x86.NewBuilder(Base)
	b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.ESI), Src: x86.MemAbs(ProbeFirst)})
	b.I(ri(x86.MOV, x86.ECX, 1500))
	b.Label("loop")
	b.I(x86.Inst{Op: x86.ADD, W: 32, Dst: x86.RegOp(x86.ESI), Src: x86.MemAbs(ProbeLoop)})
	b.I(x86.Inst{Op: x86.DEC, W: 32, Dst: x86.RegOp(x86.ECX)})
	b.JccL(x86.CondNE, "loop")
	b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(ProbeOut), Src: x86.RegOp(x86.ESI)})
	sys(b, emu.SysWrite, 1, ProbeOut, 4)
	b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.ESI)})
	b.I(x86.Inst{Op: x86.RET, W: 32})
	// Never called.
	b.I(ri(x86.MOV, x86.EAX, 0x77))
	b.I(x86.Inst{Op: x86.RET, W: 32})
	code := finish(b)
	data := make([]byte, probeSize)
	copy(data, []byte{0x11, 0x22, 0x33, 0x04, 0x05, 0x06, 0x07, 0x08})
	return &image.Image{Entry: Base,
		Sections: []*image.Section{
			{Name: ".text", Addr: Base, Data: code, Size: uint32(len(code)),
				Perm: image.PermR | image.PermX},
			{Name: ".data", Addr: ProbeData, Data: data, Size: 0x1000,
				Perm: image.PermR | image.PermW},
		},
		Symbols: []image.Symbol{
			{Name: "..parallax.probe", Addr: ProbeData, Size: probeSize, Kind: image.SymObject},
		},
	}
}
