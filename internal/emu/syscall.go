package emu

import (
	"bytes"
	"fmt"
	"io"

	"parallax/internal/x86"
)

// Kernel handles int 0x80 system calls. Arguments follow the Linux
// i386 convention: EAX holds the syscall number, EBX/ECX/EDX/ESI/EDI
// the arguments, and the result is returned in EAX (negative errno on
// failure).
type Kernel interface {
	Syscall(c *CPU) error
}

// SysCPU is the machine surface a kernel model needs: register file,
// data memory, and an exit latch. The kernel is part of the test
// harness rather than the ISA, so alternative execution engines (the
// difftest reference interpreter) implement this to share one kernel
// model with the CPU — any drift between engines' syscall behaviour
// would show up as false lockstep divergences.
type SysCPU interface {
	GetReg(r x86.Reg) uint32
	SetReg(r x86.Reg, v uint32)
	// MemRead reads n bytes at addr as a data read.
	MemRead(addr, n uint32) ([]byte, error)
	MemStore8(addr uint32, v uint8) error
	MemStore32(addr, v uint32) error
	// Exit latches the exited state with the given status.
	Exit(status int32)
}

// sysCPUAdapter presents a *CPU as a SysCPU.
type sysCPUAdapter struct{ c *CPU }

func (a sysCPUAdapter) GetReg(r x86.Reg) uint32    { return a.c.Reg[r] }
func (a sysCPUAdapter) SetReg(r x86.Reg, v uint32) { a.c.Reg[r] = v }
func (a sysCPUAdapter) MemRead(addr, n uint32) ([]byte, error) {
	return a.c.Mem.Read(addr, n, a.c.EIP)
}
func (a sysCPUAdapter) MemStore8(addr uint32, v uint8) error {
	return a.c.Mem.Store8(addr, v, a.c.EIP)
}
func (a sysCPUAdapter) MemStore32(addr, v uint32) error {
	return a.c.Mem.Store32(addr, v, a.c.EIP)
}
func (a sysCPUAdapter) Exit(status int32) {
	a.c.Exited = true
	a.c.Status = status
}

// Linux i386 syscall numbers used by this repository's programs.
const (
	SysExit    = 1
	SysRead    = 3
	SysWrite   = 4
	SysTime    = 13
	SysGetpid  = 20
	SysPtrace  = 26
	SysGetrand = 355 // getrandom
)

// Ptrace request used by the anti-debugging example (PTRACE_TRACEME).
const PtraceTraceme = 0

// Errno values returned by the kernel model.
const (
	ENOSYS = 38
	EPERM  = 1
	EFAULT = 14
	EBADF  = 9
)

// OS is a small deterministic kernel model. The zero value is a working
// kernel with empty stdin and no debugger attached.
//
// Non-deterministic inputs (time, random bytes, debugger state) are the
// heart of the paper's argument against oblivious hashing: programs
// whose behaviour depends on them cannot be protected by OH but can by
// Parallax.
type OS struct {
	Stdout bytes.Buffer
	Stderr bytes.Buffer
	// Stdin backs read(2) on fd 0. NewOS installs a bytes.Reader;
	// campaign workloads are small in-memory specs, but the interface
	// lets the attack layer interpose a fault-injecting reader
	// (chaos.Reader) without a second kernel path. Read errors other
	// than io.EOF abort the run — they are infrastructure failures,
	// not program behavior.
	Stdin io.Reader

	// DebuggerAttached makes ptrace(PTRACE_TRACEME) fail, as it does
	// when a real debugger already traces the process.
	DebuggerAttached bool
	traced           bool

	// stdinOff counts the bytes read(2) has taken from Stdin.
	stdinOff int64

	// Now is returned by time(2). A fixed default keeps runs
	// deterministic.
	Now int32

	// RandState seeds the getrandom(2) stream (xorshift32). Zero means
	// a fixed default seed.
	RandState uint32

	// Pid is returned by getpid(2). Zero means 4242.
	Pid int32

	// Trace, when non-nil, receives one line per syscall.
	Trace func(string)
}

var _ Kernel = (*OS)(nil)

// errno encodes a kernel error as a negative return value in EAX.
func errno(e int32) uint32 { return uint32(-e) }

// NewOS returns an OS with the given stdin contents.
func NewOS(stdin []byte) *OS {
	return &OS{Stdin: bytes.NewReader(stdin)}
}

// KernelState is the part of an OS that a run's history changed: what
// a resumed run needs to continue one that stopped (see
// ForkPoint.Kernel). Configuration (DebuggerAttached, Now, Pid) stays
// with the kernel that resumes.
type KernelState struct {
	// StdinOff is how many bytes read(2) had taken from stdin.
	StdinOff int64
	// Stdout and Stderr are the output written so far.
	Stdout, Stderr []byte
	// RandState is the getrandom(2) stream state.
	RandState uint32
	// Traced records a successful ptrace(PTRACE_TRACEME).
	Traced bool
}

// Resume moves a fresh kernel to st. It takes st.StdinOff bytes from
// Stdin the way the read(2) calls that consumed them did, so any
// non-EOF reader error on the way (an injected stdin fault among them)
// is the error that would have aborted the run, returned the same way;
// a stdin shorter than st.StdinOff is an error too.
func (os *OS) Resume(st KernelState) error {
	os.Stdout.Write(st.Stdout)
	os.Stderr.Write(st.Stderr)
	os.RandState = st.RandState
	os.traced = st.Traced
	var chunk [4096]byte
	for os.stdinOff < st.StdinOff {
		n, err := os.Stdin.Read(chunk[:min(int64(len(chunk)), st.StdinOff-os.stdinOff)])
		os.stdinOff += int64(n)
		if err != nil && err != io.EOF {
			return fmt.Errorf("emu: read(0): %w", err)
		}
		if n == 0 {
			return fmt.Errorf("emu: read(0): stdin ends %d bytes before the resumed offset %d",
				st.StdinOff-os.stdinOff, st.StdinOff)
		}
	}
	return nil
}

func (os *OS) trace(format string, args ...any) {
	if os.Trace != nil {
		os.Trace(fmt.Sprintf(format, args...))
	}
}

// Syscall implements Kernel.
func (os *OS) Syscall(c *CPU) error { return os.SyscallOn(sysCPUAdapter{c}) }

// SyscallOn services one int 0x80 on any machine exposing SysCPU.
// All engines running the same program against the same *OS instance
// must observe identical kernel behaviour, so the logic lives here
// once rather than per engine.
func (os *OS) SyscallOn(sc SysCPU) error {
	num := sc.GetReg(x86.EAX)
	a1 := sc.GetReg(x86.EBX)
	a2 := sc.GetReg(x86.ECX)
	a3 := sc.GetReg(x86.EDX)
	switch num {
	case SysExit:
		sc.Exit(int32(a1))
		os.trace("exit(%d)", int32(a1))

	case SysWrite:
		buf, err := sc.MemRead(a2, a3)
		if err != nil {
			sc.SetReg(x86.EAX, errno(EFAULT))
			return nil
		}
		switch a1 {
		case 1:
			os.Stdout.Write(buf)
		case 2:
			os.Stderr.Write(buf)
		default:
			sc.SetReg(x86.EAX, errno(EBADF))
			return nil
		}
		sc.SetReg(x86.EAX, a3)
		os.trace("write(%d, %q) = %d", a1, buf, a3)

	case SysRead:
		if a1 != 0 || os.Stdin == nil {
			sc.SetReg(x86.EAX, errno(EBADF))
			return nil
		}
		// Chunked transfer: the count register is attacker-controlled
		// on mutant runs, so never allocate a3 bytes up front — a
		// corrupted read(0, buf, 0xFFFFFFFF) must cost the harness at
		// most one chunk of memory. POSIX short-read semantics: stop at
		// the first short chunk (EOF included) and return the byte
		// count transferred so far; 0 at immediate EOF. Any non-EOF
		// reader error aborts the run, even after partial progress:
		// a dying workload source (or an injected chaos fault) is
		// infrastructure and must never silently alter program
		// behavior — a partial count here would let a campaign
		// misclassify the garbled run as a detection.
		var chunk [4096]byte
		total := uint32(0)
		var readErr error
		for total < a3 {
			want := a3 - total
			if want > uint32(len(chunk)) {
				want = uint32(len(chunk))
			}
			n, err := os.Stdin.Read(chunk[:want])
			os.stdinOff += int64(n)
			for i := 0; i < n; i++ {
				if serr := sc.MemStore8(a2+total+uint32(i), chunk[i]); serr != nil {
					sc.SetReg(x86.EAX, errno(EFAULT))
					return nil
				}
			}
			total += uint32(n)
			if err != nil || n == 0 {
				if err != io.EOF {
					readErr = err
				}
				break
			}
		}
		if readErr != nil {
			return fmt.Errorf("emu: read(0): %w", readErr)
		}
		sc.SetReg(x86.EAX, total)
		os.trace("read(0, %d) = %d", a3, total)

	case SysTime:
		now := os.Now
		if now == 0 {
			now = 1_420_070_400 // 2015-01-01, the paper's year
		}
		if a1 != 0 {
			if err := sc.MemStore32(a1, uint32(now)); err != nil {
				sc.SetReg(x86.EAX, errno(EFAULT))
				return nil
			}
		}
		sc.SetReg(x86.EAX, uint32(now))
		os.trace("time() = %d", now)

	case SysGetpid:
		pid := os.Pid
		if pid == 0 {
			pid = 4242
		}
		sc.SetReg(x86.EAX, uint32(pid))
		os.trace("getpid() = %d", pid)

	case SysPtrace:
		// PTRACE_TRACEME fails when a tracer is already attached —
		// the classic anti-debugging check from the paper's §IV-A.
		if a1 == PtraceTraceme {
			if os.DebuggerAttached || os.traced {
				sc.SetReg(x86.EAX, errno(EPERM))
				os.trace("ptrace(TRACEME) = -EPERM")
			} else {
				os.traced = true
				sc.SetReg(x86.EAX, 0)
				os.trace("ptrace(TRACEME) = 0")
			}
		} else {
			sc.SetReg(x86.EAX, errno(ENOSYS))
		}

	case SysGetrand:
		s := os.RandState
		if s == 0 {
			s = 0x9E3779B9
		}
		for i := uint32(0); i < a2; i++ {
			s ^= s << 13
			s ^= s >> 17
			s ^= s << 5
			if err := sc.MemStore8(a1+i, uint8(s)); err != nil {
				sc.SetReg(x86.EAX, errno(EFAULT))
				return nil
			}
		}
		os.RandState = s
		sc.SetReg(x86.EAX, a2)
		os.trace("getrandom(%d) = %d", a2, a2)

	default:
		os.trace("unknown syscall %d", num)
		sc.SetReg(x86.EAX, errno(ENOSYS))
	}
	return nil
}
