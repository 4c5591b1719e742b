package ir

import (
	"bytes"
	"errors"
	"fmt"
)

// Interpreter errors.
var (
	// ErrSteps means the step budget was exhausted.
	ErrSteps = errors.New("ir: step limit exceeded")
	// ErrTrap is an execution trap (divide by zero, bad memory access,
	// call depth).
	ErrTrap = errors.New("ir: trap")
)

// Kernel provides syscall semantics to the interpreter. It mirrors the
// contract of emu.Kernel so a program can be run under both and
// compared.
type Kernel interface {
	// Syscall handles syscall num with up to five arguments, returning
	// the EAX result. exit=true terminates the program with status.
	Syscall(ip *Interp, num uint32, args [5]uint32) (ret uint32, exit bool, status int32)
}

// Interp executes IR modules with reference semantics.
type Interp struct {
	M  *Module
	OS Kernel

	// MaxSteps bounds total executed instructions; 0 means a large
	// default.
	MaxSteps uint64
	// Steps counts executed instructions.
	Steps uint64

	// GlobalBase is the virtual address of the first global. The value
	// is arbitrary; it exists so address arithmetic behaves like the
	// compiled program's.
	GlobalBase uint32

	arena   []byte
	offsets map[string]uint32

	exited bool
	status int32

	depth int
}

const (
	defaultInterpSteps = 200_000_000
	maxCallDepth       = 512
	defaultGlobalBase  = 0x10000000
)

// NewInterp prepares an interpreter for the module. Globals are laid
// out in declaration order at GlobalBase.
func NewInterp(m *Module, os Kernel) *Interp {
	ip := &Interp{M: m, OS: os, GlobalBase: defaultGlobalBase, offsets: make(map[string]uint32)}
	off := uint32(0)
	for _, g := range m.Globals {
		off = (off + 3) &^ 3
		ip.offsets[g.Name] = off
		off += g.ByteSize()
	}
	ip.arena = make([]byte, off)
	for _, g := range m.Globals {
		copy(ip.arena[ip.offsets[g.Name]:], g.Init)
	}
	return ip
}

// GlobalAddr returns the virtual address of a global.
func (ip *Interp) GlobalAddr(name string) (uint32, bool) {
	off, ok := ip.offsets[name]
	return ip.GlobalBase + off, ok
}

// ReadMem copies n bytes at the virtual address addr.
func (ip *Interp) ReadMem(addr, n uint32) ([]byte, error) {
	start := addr - ip.GlobalBase
	if start+n > uint32(len(ip.arena)) || start+n < start {
		return nil, fmt.Errorf("%w: read [%#x,%#x) outside globals", ErrTrap, addr, addr+n)
	}
	return append([]byte(nil), ip.arena[start:start+n]...), nil
}

// WriteMem writes bytes at the virtual address addr.
func (ip *Interp) WriteMem(addr uint32, b []byte) error {
	start := addr - ip.GlobalBase
	if start+uint32(len(b)) > uint32(len(ip.arena)) || start+uint32(len(b)) < start {
		return fmt.Errorf("%w: write [%#x,%#x) outside globals", ErrTrap, addr,
			addr+uint32(len(b)))
	}
	copy(ip.arena[start:], b)
	return nil
}

func (ip *Interp) load32(addr uint32) (uint32, error) {
	b, err := ip.ReadMem(addr, 4)
	if err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

func (ip *Interp) store32(addr, v uint32) error {
	return ip.WriteMem(addr, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// Run executes the module entry function with no arguments and returns
// the exit status (the entry function's return value, or the argument
// of an exit syscall).
func (ip *Interp) Run() (int32, error) {
	f := ip.M.EntryFunc()
	if f == nil {
		return 0, fmt.Errorf("ir: module has no entry function")
	}
	ret, err := ip.call(f, nil)
	if err != nil {
		return 0, err
	}
	if ip.exited {
		return ip.status, nil
	}
	return int32(ret), nil
}

// CallFunc invokes a named function with arguments. The exit flag of a
// previous run is respected: after an exit syscall no more code runs.
func (ip *Interp) CallFunc(name string, args ...uint32) (uint32, error) {
	f := ip.M.Func(name)
	if f == nil {
		return 0, fmt.Errorf("ir: undefined function %q", name)
	}
	return ip.call(f, args)
}

func (ip *Interp) call(f *Func, args []uint32) (uint32, error) {
	if len(args) != f.NumParams {
		return 0, fmt.Errorf("ir: %s called with %d args, want %d",
			f.Name, len(args), f.NumParams)
	}
	if ip.depth++; ip.depth > maxCallDepth {
		ip.depth--
		return 0, fmt.Errorf("%w: call depth exceeded in %s", ErrTrap, f.Name)
	}
	defer func() { ip.depth-- }()

	vals := make([]uint32, f.NumVals)
	copy(vals, args)
	block := f.Entry()
	limit := ip.MaxSteps
	if limit == 0 {
		limit = defaultInterpSteps
	}

	for {
		for i := range block.Insts {
			in := &block.Insts[i]
			if ip.Steps++; ip.Steps > limit {
				return 0, ErrSteps
			}
			if err := ip.exec(f, in, vals); err != nil {
				return 0, err
			}
			if ip.exited {
				return 0, nil
			}
		}
		if ip.Steps++; ip.Steps > limit {
			return 0, ErrSteps
		}
		switch block.Term.Kind {
		case TermRet:
			if block.Term.HasVal {
				return vals[block.Term.Val], nil
			}
			return 0, nil
		case TermJmp:
			block = f.Block(block.Term.Then)
		case TermBr:
			if vals[block.Term.Val] != 0 {
				block = f.Block(block.Term.Then)
			} else {
				block = f.Block(block.Term.Else)
			}
		}
	}
}

func (ip *Interp) exec(f *Func, in *Inst, vals []uint32) error {
	switch in.Kind {
	case OpConst:
		vals[in.Dst] = uint32(in.Imm)
	case OpCopy:
		vals[in.Dst] = vals[in.A]
	case OpNot:
		vals[in.Dst] = ^vals[in.A]
	case OpNeg:
		vals[in.Dst] = -vals[in.A]
	case OpBin:
		a, b := vals[in.A], vals[in.B]
		r, err := evalBin(in.Bin, a, b)
		if err != nil {
			return fmt.Errorf("%w in %s", err, f.Name)
		}
		vals[in.Dst] = r
	case OpCmp:
		vals[in.Dst] = evalCmp(in.Pred, vals[in.A], vals[in.B])
	case OpLoad:
		v, err := ip.load32(vals[in.A])
		if err != nil {
			return err
		}
		vals[in.Dst] = v
	case OpLoad8:
		b, err := ip.ReadMem(vals[in.A], 1)
		if err != nil {
			return err
		}
		vals[in.Dst] = uint32(b[0])
	case OpStore:
		return ip.store32(vals[in.A], vals[in.B])
	case OpStore8:
		return ip.WriteMem(vals[in.A], []byte{byte(vals[in.B])})
	case OpAddr:
		a, ok := ip.GlobalAddr(in.Global)
		if !ok {
			return fmt.Errorf("ir: undefined global %q", in.Global)
		}
		vals[in.Dst] = a + uint32(in.Imm)
	case OpCall:
		callee := ip.M.Func(in.Callee)
		if callee == nil {
			return fmt.Errorf("ir: undefined callee %q", in.Callee)
		}
		args := make([]uint32, len(in.Args))
		for i, a := range in.Args {
			args[i] = vals[a]
		}
		r, err := ip.call(callee, args)
		if err != nil {
			return err
		}
		vals[in.Dst] = r
	case OpSyscall:
		if ip.OS == nil {
			return fmt.Errorf("%w: syscall with no kernel", ErrTrap)
		}
		var args [5]uint32
		for i, a := range in.Args {
			args[i] = vals[a]
		}
		ret, exit, status := ip.OS.Syscall(ip, uint32(in.Imm), args)
		if exit {
			ip.exited = true
			ip.status = status
			return nil
		}
		vals[in.Dst] = ret
	default:
		return fmt.Errorf("ir: unknown instruction kind %d", in.Kind)
	}
	return nil
}

func evalBin(k BinKind, a, b uint32) (uint32, error) {
	switch k {
	case Add:
		return a + b, nil
	case Sub:
		return a - b, nil
	case Mul:
		return a * b, nil
	case And:
		return a & b, nil
	case Or:
		return a | b, nil
	case Xor:
		return a ^ b, nil
	case Shl:
		return a << (b & 31), nil
	case Shr:
		return a >> (b & 31), nil
	case Sar:
		return uint32(int32(a) >> (b & 31)), nil
	case UDiv:
		if b == 0 {
			return 0, fmt.Errorf("%w: divide by zero", ErrTrap)
		}
		return a / b, nil
	case URem:
		if b == 0 {
			return 0, fmt.Errorf("%w: divide by zero", ErrTrap)
		}
		return a % b, nil
	case SDiv:
		if b == 0 || (int32(a) == -1<<31 && int32(b) == -1) {
			return 0, fmt.Errorf("%w: divide error", ErrTrap)
		}
		return uint32(int32(a) / int32(b)), nil
	case SRem:
		if b == 0 || (int32(a) == -1<<31 && int32(b) == -1) {
			return 0, fmt.Errorf("%w: divide error", ErrTrap)
		}
		return uint32(int32(a) % int32(b)), nil
	default:
		return 0, fmt.Errorf("ir: unknown binary op %d", k)
	}
}

func evalCmp(p Pred, a, b uint32) uint32 {
	var v bool
	switch p {
	case Eq:
		v = a == b
	case Ne:
		v = a != b
	case Lt:
		v = int32(a) < int32(b)
	case Le:
		v = int32(a) <= int32(b)
	case Gt:
		v = int32(a) > int32(b)
	case Ge:
		v = int32(a) >= int32(b)
	case ULt:
		v = a < b
	case ULe:
		v = a <= b
	case UGt:
		v = a > b
	case UGe:
		v = a >= b
	}
	if v {
		return 1
	}
	return 0
}

// StdKernel is the interpreter's deterministic kernel model. Its
// semantics deliberately mirror emu.OS so the same program can be run
// under the interpreter and the emulator and compared byte for byte.
type StdKernel struct {
	Stdout bytes.Buffer
	Stderr bytes.Buffer
	Stdin  *bytes.Reader

	DebuggerAttached bool
	traced           bool
	Now              int32
	RandState        uint32
	Pid              int32
}

var _ Kernel = (*StdKernel)(nil)

// Syscall numbers must match emu's; redeclared here to avoid an import
// cycle (emu does not depend on ir, and ir must not depend on emu).
const (
	sysExit    = 1
	sysRead    = 3
	sysWrite   = 4
	sysTime    = 13
	sysGetpid  = 20
	sysPtrace  = 26
	sysGetrand = 355
)

// Syscall implements Kernel with emu.OS-identical semantics.
func (k *StdKernel) Syscall(ip *Interp, num uint32, a [5]uint32) (uint32, bool, int32) {
	neg := func(e int32) uint32 { return uint32(-e) }
	switch num {
	case sysExit:
		return 0, true, int32(a[0])
	case sysWrite:
		buf, err := ip.ReadMem(a[1], a[2])
		if err != nil {
			return neg(14), false, 0 // EFAULT
		}
		switch a[0] {
		case 1:
			k.Stdout.Write(buf)
		case 2:
			k.Stderr.Write(buf)
		default:
			return neg(9), false, 0 // EBADF
		}
		return a[2], false, 0
	case sysRead:
		if a[0] != 0 || k.Stdin == nil {
			return neg(9), false, 0
		}
		buf := make([]byte, a[2])
		n, _ := k.Stdin.Read(buf)
		if err := ip.WriteMem(a[1], buf[:n]); err != nil {
			return neg(14), false, 0
		}
		return uint32(n), false, 0
	case sysTime:
		now := k.Now
		if now == 0 {
			now = 1_420_070_400
		}
		if a[0] != 0 {
			if err := ip.store32(a[0], uint32(now)); err != nil {
				return neg(14), false, 0
			}
		}
		return uint32(now), false, 0
	case sysGetpid:
		pid := k.Pid
		if pid == 0 {
			pid = 4242
		}
		return uint32(pid), false, 0
	case sysPtrace:
		if a[0] == 0 { // PTRACE_TRACEME
			if k.DebuggerAttached || k.traced {
				return neg(1), false, 0 // EPERM
			}
			k.traced = true
			return 0, false, 0
		}
		return neg(38), false, 0 // ENOSYS
	case sysGetrand:
		s := k.RandState
		if s == 0 {
			s = 0x9E3779B9
		}
		buf := make([]byte, a[1])
		for i := range buf {
			s ^= s << 13
			s ^= s >> 17
			s ^= s << 5
			buf[i] = uint8(s)
		}
		k.RandState = s
		if err := ip.WriteMem(a[0], buf); err != nil {
			return neg(14), false, 0
		}
		return a[1], false, 0
	default:
		return neg(38), false, 0
	}
}
