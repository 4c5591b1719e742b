package codegen

import (
	"bytes"
	"math/rand"
	"testing"

	"parallax/internal/emu"
	"parallax/internal/ir"
)

// runBoth executes a module under the IR interpreter and as compiled
// x86 under the emulator, with mirrored kernels, and requires identical
// exit status and stdout.
func runBoth(t *testing.T, m *ir.Module, stdin []byte, debugger bool) (int32, string) {
	t.Helper()

	ik := &ir.StdKernel{DebuggerAttached: debugger}
	if stdin != nil {
		ik.Stdin = bytes.NewReader(stdin)
	}
	ip := ir.NewInterp(m, ik)
	wantStatus, err := ip.Run()
	if err != nil {
		t.Fatalf("interp: %v", err)
	}

	img, err := Build(m)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ek := emu.NewOS(stdin)
	ek.DebuggerAttached = debugger
	cpu, err := emu.RunImage(img, ek)
	if err != nil {
		t.Fatalf("emulate: %v\n%s", err, cpu)
	}
	if cpu.Status != wantStatus {
		t.Fatalf("status: emu=%d interp=%d", cpu.Status, wantStatus)
	}
	if got, want := ek.Stdout.String(), ik.Stdout.String(); got != want {
		t.Fatalf("stdout: emu=%q interp=%q", got, want)
	}
	return wantStatus, ek.Stdout.String()
}

func TestCompileFib(t *testing.T) {
	mb := ir.NewModule("fib")
	fb := mb.Func("fib", 1)
	n := fb.Param(0)
	two := fb.Const(2)
	c := fb.Cmp(ir.ULt, n, two)
	fb.Br(c, "base", "rec")
	fb.Block("base")
	fb.Ret(n)
	fb.Block("rec")
	one := fb.Const(1)
	r1 := fb.Call("fib", fb.Sub(n, one))
	r2 := fb.Call("fib", fb.Sub(n, two))
	fb.Ret(fb.Add(r1, r2))

	fb = mb.Func("main", 0)
	fb.Ret(fb.Call("fib", fb.Const(12)))
	mb.SetEntry("main")
	m := mb.MustBuild()

	status, _ := runBoth(t, m, nil, false)
	if status != 144 {
		t.Errorf("fib(12) = %d, want 144", status)
	}
}

func TestCompileMemoryOps(t *testing.T) {
	mb := ir.NewModule("mem")
	mb.GlobalZero("table", 256)
	mb.Global("seed", []byte{7, 0, 0, 0})
	fb := mb.Func("main", 0)
	// table[i] = i*i for i in 0..31, then hash it.
	i := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	lim := fb.Const(32)
	c := fb.Cmp(ir.ULt, i, lim)
	fb.Br(c, "body", "sum")
	fb.Block("body")
	sq := fb.Mul(i, i)
	four := fb.Const(4)
	off := fb.Mul(i, four)
	base := fb.Addr("table", 0)
	fb.Store(fb.Add(base, off), sq)
	one := fb.Const(1)
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp("head")
	fb.Block("sum")
	h := fb.Load(fb.Addr("seed", 0))
	fb.AssignConst(i, 0)
	fb.Jmp("shead")
	fb.Block("shead")
	lim2 := fb.Const(32)
	c2 := fb.Cmp(ir.ULt, i, lim2)
	fb.Br(c2, "sbody", "done")
	fb.Block("sbody")
	four2 := fb.Const(4)
	base2 := fb.Addr("table", 0)
	v := fb.Load(fb.Add(base2, fb.Mul(i, four2)))
	mulc := fb.Const(31)
	fb.Assign(h, fb.Add(fb.Mul(h, mulc), v))
	one2 := fb.Const(1)
	fb.Assign(i, fb.Add(i, one2))
	fb.Jmp("shead")
	fb.Block("done")
	mask := fb.Const(0x7FFFFFFF)
	fb.Ret(fb.And(h, mask))
	mb.SetEntry("main")
	m := mb.MustBuild()
	runBoth(t, m, nil, false)
}

func TestCompileSyscallsAndPtrace(t *testing.T) {
	mb := ir.NewModule("sys")
	mb.Global("msg", []byte("out!"))
	fb := mb.Func("main", 0)
	fd := fb.Const(1)
	buf := fb.Addr("msg", 0)
	n := fb.Const(4)
	fb.Syscall(4, fd, buf, n) // write
	req := fb.Const(0)
	r := fb.Syscall(26, req) // ptrace(TRACEME)
	zero := fb.Const(0)
	ok := fb.Cmp(ir.Eq, r, zero)
	fb.Br(ok, "clean", "debugged")
	fb.Block("clean")
	fb.Ret(fb.Const(0))
	fb.Block("debugged")
	fb.Ret(fb.Const(77))
	mb.SetEntry("main")
	m := mb.MustBuild()

	status, out := runBoth(t, m, nil, false)
	if status != 0 || out != "out!" {
		t.Errorf("clean: status=%d out=%q", status, out)
	}
	status, _ = runBoth(t, m, nil, true)
	if status != 77 {
		t.Errorf("debugged: status=%d, want 77", status)
	}
}

func TestCompileAllBinOps(t *testing.T) {
	ops := []ir.BinKind{
		ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor,
		ir.Shl, ir.Shr, ir.Sar, ir.UDiv, ir.URem, ir.SDiv, ir.SRem,
	}
	vals := [][2]int32{
		{100, 7}, {-100, 7}, {-100, -7}, {0x7FFFFFFF, 2},
		{5, 31}, {1, 1}, {-1, 3},
	}
	for _, op := range ops {
		for _, v := range vals {
			mb := ir.NewModule("binop")
			fb := mb.Func("main", 0)
			a := fb.Const(v[0])
			b := fb.Const(v[1])
			fb.Ret(fb.Bin(op, a, b))
			mb.SetEntry("main")
			runBoth(t, mb.MustBuild(), nil, false)
		}
	}
}

func TestCompileAllPreds(t *testing.T) {
	preds := []ir.Pred{
		ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.ULt, ir.ULe, ir.UGt, ir.UGe,
	}
	vals := [][2]int32{{1, 2}, {2, 1}, {3, 3}, {-5, 5}, {5, -5}, {-5, -6}}
	for _, p := range preds {
		for _, v := range vals {
			mb := ir.NewModule("pred")
			fb := mb.Func("main", 0)
			a := fb.Const(v[0])
			b := fb.Const(v[1])
			fb.Ret(fb.Cmp(p, a, b))
			mb.SetEntry("main")
			runBoth(t, mb.MustBuild(), nil, false)
		}
	}
}

// randModule generates a terminating random program: a chain of
// arithmetic on a value pool, a bounded loop, and masked stores/loads
// into a scratch global.
func randModule(r *rand.Rand) *ir.Module {
	mb := ir.NewModule("rand")
	mb.GlobalZero("scratch", 256)
	fb := mb.Func("main", 0)
	pool := []ir.Value{fb.Const(int32(r.Uint32())), fb.Const(int32(r.Uint32())), fb.Const(1)}
	pick := func() ir.Value { return pool[r.Intn(len(pool))] }
	binops := []ir.BinKind{ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Sar}

	nops := 5 + r.Intn(20)
	for i := 0; i < nops; i++ {
		switch r.Intn(6) {
		case 0, 1, 2:
			v := fb.Bin(binops[r.Intn(len(binops))], pick(), pick())
			pool = append(pool, v)
		case 3: // masked store
			mask := fb.Const(0xFC)
			off := fb.And(pick(), mask)
			addr := fb.Add(fb.Addr("scratch", 0), off)
			fb.Store(addr, pick())
		case 4: // masked load
			mask := fb.Const(0xFC)
			off := fb.And(pick(), mask)
			addr := fb.Add(fb.Addr("scratch", 0), off)
			pool = append(pool, fb.Load(addr))
		case 5:
			pool = append(pool, fb.Cmp(ir.Pred(r.Intn(10)), pick(), pick()))
		}
	}

	// A bounded loop accumulating a hash.
	acc := fb.Copy(pick())
	i := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	lim := fb.Const(int32(1 + r.Intn(16)))
	c := fb.Cmp(ir.ULt, i, lim)
	fb.Br(c, "body", "end")
	fb.Block("body")
	k := fb.Const(0x9E3779B9 - (1 << 31)) // arbitrary odd constant
	fb.Assign(acc, fb.Xor(fb.Mul(acc, k), i))
	one := fb.Const(1)
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp("head")
	fb.Block("end")
	fb.Ret(acc)
	mb.SetEntry("main")
	return mb.MustBuild()
}

// TestCompileRandomDifferential cross-checks the interpreter and the
// compiled binary on many random programs.
func TestCompileRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for i := 0; i < 200; i++ {
		m := randModule(r)
		runBoth(t, m, nil, false)
	}
}

func TestCompileParams(t *testing.T) {
	mb := ir.NewModule("params")
	fb := mb.Func("weird", 5)
	// ((a+b)*c - d) ^ e
	s := fb.Add(fb.Param(0), fb.Param(1))
	p := fb.Mul(s, fb.Param(2))
	d := fb.Sub(p, fb.Param(3))
	fb.Ret(fb.Xor(d, fb.Param(4)))
	fb = mb.Func("main", 0)
	args := []ir.Value{fb.Const(3), fb.Const(4), fb.Const(5), fb.Const(6), fb.Const(0xF)}
	fb.Ret(fb.Call("weird", args...))
	mb.SetEntry("main")
	status, _ := runBoth(t, mb.MustBuild(), nil, false)
	want := int32(((3+4)*5 - 6) ^ 0xF)
	if status != want {
		t.Errorf("status = %d, want %d", status, want)
	}
}

func TestCompileReadsStdin(t *testing.T) {
	mb := ir.NewModule("echo")
	mb.GlobalZero("buf", 32)
	fb := mb.Func("main", 0)
	fd0 := fb.Const(0)
	buf := fb.Addr("buf", 0)
	n := fb.Const(5)
	got := fb.Syscall(3, fd0, buf, n) // read
	fd1 := fb.Const(1)
	fb.Syscall(4, fd1, buf, got) // write back what was read
	fb.Ret(got)
	mb.SetEntry("main")
	status, out := runBoth(t, mb.MustBuild(), []byte("abcdefgh"), false)
	if status != 5 || out != "abcde" {
		t.Errorf("status=%d out=%q", status, out)
	}
}
