package difftest

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"parallax/internal/emu"
	"parallax/internal/emu/tb"
	"parallax/internal/image"
	"parallax/internal/x86"
)

// Options configures one lockstep run.
type Options struct {
	// MaxInst bounds the retired-instruction count per engine; 0 means
	// DefaultMaxInst. Hitting the bound is a clean (non-divergent)
	// termination: an infinite loop both engines agree on is not a
	// semantics bug.
	MaxInst uint64

	// Stdin is fed to both engines' kernel models.
	Stdin []byte

	// StackSize is passed to both loaders; 0 means the default stack.
	StackSize uint32

	// LegacyRefRCROF makes the reference interpreter reproduce the
	// seed RCR overflow-flag bug. Test-only: it demonstrates the
	// oracle catches the bug when the fix is (effectively) reverted.
	LegacyRefRCROF bool

	// TB adds the translation-block engine (internal/emu/tb) as a
	// third lockstep participant: a separate CPU stepped through tb
	// and compared against the interpreter after every instruction —
	// EIP, GPRs, full EFLAGS, Icount/Cycles accounting, exit state,
	// and (on clean exit) kernel output and all mapped memory.
	TB bool
}

// DefaultMaxInst bounds one lockstep run.
const DefaultMaxInst = 1 << 20

// Divergence reports the first disagreement between the two engines.
type Divergence struct {
	Step   uint64 // retired instructions before the diverging one
	PC     uint32 // EIP of the diverging instruction
	Inst   string // best-effort disassembly at PC
	Kind   string // "error", "eip", "reg", "flags", "exit", "store", "status", "stdout", "stderr", "memory"
	Detail string
	Fast   string // production-engine state after the step
	Ref    string // reference-interpreter state after the step

	// Program is the generated program that diverged, when the run
	// came from RunProgram; nil for corpus images.
	Program *Program
}

func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "divergence at step %d pc=%#x (%s): %s\n", d.Step, d.PC, d.Inst, d.Detail)
	fmt.Fprintf(&b, "  fast: %s\n", d.Fast)
	fmt.Fprintf(&b, "  ref:  %s", d.Ref)
	return b.String()
}

// Result summarises one lockstep run.
type Result struct {
	Div    *Divergence // nil when the engines stayed in agreement
	Insts  uint64      // instructions retired in lockstep
	Exited bool        // program ran to a clean exit
	Status int32
}

// Run executes img on both engines in lockstep, comparing registers,
// EFLAGS, EIP and every memory store after each retired instruction.
// The returned error reports harness failures (unloadable image), not
// divergences — those are in Result.Div.
func Run(img *image.Image, opts Options) (*Result, error) {
	cfg := emu.LoadConfig{StackSize: opts.StackSize}
	fast, err := emu.LoadImageWith(img, cfg)
	if err != nil {
		return nil, err
	}
	ref, err := NewRef(img, cfg)
	if err != nil {
		return nil, err
	}
	fastOS := emu.NewOS(opts.Stdin)
	refOS := emu.NewOS(opts.Stdin)
	fast.OS = fastOS
	ref.OS = refOS
	ref.legacyRCROF = opts.LegacyRefRCROF

	// Third engine: a separate CPU stepped through the translation-block
	// backend, held to interpreter-identical observable state.
	var tbc *emu.CPU
	var tbe *tb.Engine
	var tbOS *emu.OS
	if opts.TB {
		tbc, err = emu.LoadImageWith(img, cfg)
		if err != nil {
			return nil, err
		}
		tbOS = emu.NewOS(opts.Stdin)
		tbc.OS = tbOS
		tbe = tb.New(tbc, nil)
		defer tbe.Close()
	}

	limit := opts.MaxInst
	if limit == 0 {
		limit = DefaultMaxInst
	}
	res := &Result{}
	for res.Div == nil && !fast.Exited && !ref.Exited && fast.Icount < limit {
		pc := fast.EIP
		instStr := disasmAt(fast.Mem, pc)
		errF := fast.Step()
		errR := ref.Step()
		res.Insts = fast.Icount

		cf, cr := classify(errF), classify(errR)
		if tbe != nil {
			ct := classify(tbe.Step())
			if ct != cf {
				res.Div = divergeTB(fast, tbc, res.Insts, pc, instStr, "tb-error",
					fmt.Sprintf("fast stopped with %q, tb with %q", cf, ct))
				break
			}
			if d := compareTB(fast, tbc, res.Insts, pc, instStr); d != nil {
				res.Div = d
				break
			}
		}
		if cf != cr {
			res.Div = diverge(fast, ref, res.Insts, pc, instStr, "error",
				fmt.Sprintf("fast stopped with %q, ref with %q", cf, cr))
			break
		}
		if cf != "" {
			// Both engines stopped with the same fault class: compare
			// the state they faulted in, then finish.
			res.Div = compareState(fast, ref, res.Insts, pc, instStr)
			break
		}
		res.Div = compareState(fast, ref, res.Insts, pc, instStr)
	}

	if res.Div == nil && fast.Exited != ref.Exited {
		res.Div = diverge(fast, ref, res.Insts, fast.EIP, "",
			"exit", fmt.Sprintf("fast exited=%t, ref exited=%t", fast.Exited, ref.Exited))
	}
	if res.Div == nil && fast.Exited {
		res.Exited = true
		res.Status = fast.Status
		res.Div = compareFinal(fast, ref, fastOS, refOS, img, opts, res.Insts)
	}
	if res.Div == nil && tbc != nil && fast.Exited {
		res.Div = compareTBFinal(fast, tbc, fastOS, tbOS, img, opts, res.Insts)
	}

	return res, nil
}

// RunProgram builds a generated program and runs it in lockstep; a
// divergence carries the program for minimization.
func RunProgram(p *Program, opts Options) (*Result, error) {
	img, err := p.Build()
	if err != nil {
		return nil, fmt.Errorf("difftest: building %s: %w", p.Name, err)
	}
	if opts.Stdin == nil {
		opts.Stdin = p.Stdin
	}
	res, err := Run(img, opts)
	if err != nil {
		return nil, err
	}
	if res.Div != nil {
		res.Div.Program = p
	}
	return res, err
}

// classify normalizes a run-ending error into a comparable class.
// Stack-overflow wrappers unwrap to the underlying fault, and the
// engine prefixes ("emu: ", "ref: ") are stripped so identical
// conditions compare equal.
func classify(err error) string {
	if err == nil {
		return ""
	}
	var fe *emu.FaultError
	if errors.As(err, &fe) {
		return fmt.Sprintf("fault:%s:%#x:eip=%#x", fe.Access, fe.Addr, fe.EIP)
	}
	var df *emu.DecodeFault
	if errors.As(err, &df) {
		return fmt.Sprintf("decode:eip=%#x", df.EIP)
	}
	var de *emu.DivideError
	if errors.As(err, &de) {
		return fmt.Sprintf("divide:eip=%#x", de.EIP)
	}
	if errors.Is(err, emu.ErrHalted) {
		return "halt"
	}
	if errors.Is(err, emu.ErrBreakpoint) {
		return "int3"
	}
	msg := err.Error()
	msg = strings.TrimPrefix(msg, "emu: ")
	msg = strings.TrimPrefix(msg, "ref: ")
	return "err:" + msg
}

// compareState checks the full architectural state after one lockstep
// step: EIP, the eight GPRs, the seven modeled flags, the exit latch,
// and the bytes of every store the reference interpreter logged.
func compareState(fast *emu.CPU, ref *RefCPU, step uint64, pc uint32, instStr string) *Divergence {
	if fast.EIP != ref.EIP {
		return diverge(fast, ref, step, pc, instStr, "eip",
			fmt.Sprintf("eip %#x vs %#x", fast.EIP, ref.EIP))
	}
	for r := x86.Reg(0); r < x86.NumRegs; r++ {
		if fast.Reg[r] != ref.Reg[r] {
			return diverge(fast, ref, step, pc, instStr, "reg",
				fmt.Sprintf("%s %#x vs %#x", r, fast.Reg[r], ref.Reg[r]))
		}
	}
	if fast.Flags() != ref.Flags() {
		return diverge(fast, ref, step, pc, instStr, "flags",
			fmt.Sprintf("eflags %#x vs %#x (%s vs %s)",
				fast.Flags(), ref.Flags(), flagString(fast.Flags()), flagString(ref.Flags())))
	}
	if fast.Exited != ref.Exited || (fast.Exited && fast.Status != ref.Status) {
		return diverge(fast, ref, step, pc, instStr, "exit",
			fmt.Sprintf("exited=%t/%d vs %t/%d", fast.Exited, fast.Status, ref.Exited, ref.Status))
	}
	for _, st := range ref.Stores() {
		fb, errF := fast.Mem.Peek(st.Addr, st.Size)
		rb, errR := ref.Mem.Peek(st.Addr, st.Size)
		if errF != nil || errR != nil {
			continue // the store itself faulted; error class already compared
		}
		if !bytes.Equal(fb, rb) {
			return diverge(fast, ref, step, pc, instStr, "store",
				fmt.Sprintf("store at %#x: % x vs % x", st.Addr, fb, rb))
		}
	}
	return nil
}

// compareFinal checks exit status, kernel output and all mapped
// memory once a program has exited cleanly. The full-memory sweep
// catches stores the production engine performed that the reference
// interpreter did not (the per-step store log only covers the
// reference side).
func compareFinal(fast *emu.CPU, ref *RefCPU, fastOS, refOS *emu.OS,
	img *image.Image, opts Options, step uint64) *Divergence {
	if fast.Status != ref.Status {
		return diverge(fast, ref, step, fast.EIP, "", "status",
			fmt.Sprintf("exit status %d vs %d", fast.Status, ref.Status))
	}
	if !bytes.Equal(fastOS.Stdout.Bytes(), refOS.Stdout.Bytes()) {
		return diverge(fast, ref, step, fast.EIP, "", "stdout",
			fmt.Sprintf("stdout %q vs %q", fastOS.Stdout.Bytes(), refOS.Stdout.Bytes()))
	}
	if !bytes.Equal(fastOS.Stderr.Bytes(), refOS.Stderr.Bytes()) {
		return diverge(fast, ref, step, fast.EIP, "", "stderr",
			fmt.Sprintf("stderr %q vs %q", fastOS.Stderr.Bytes(), refOS.Stderr.Bytes()))
	}
	ranges := make([][2]uint32, 0, len(img.Sections)+1)
	for _, s := range img.Sections {
		ranges = append(ranges, [2]uint32{s.Addr, s.Size})
	}
	stackSize := opts.StackSize
	if stackSize == 0 {
		stackSize = emu.DefaultStackSize
	}
	ranges = append(ranges, [2]uint32{emu.DefaultStackTop - stackSize, stackSize})
	for _, rg := range ranges {
		const chunk = 1 << 16
		for off := uint32(0); off < rg[1]; off += chunk {
			n := rg[1] - off
			if n > chunk {
				n = chunk
			}
			fb, errF := fast.Mem.Peek(rg[0]+off, n)
			rb, errR := ref.Mem.Peek(rg[0]+off, n)
			if errF != nil || errR != nil {
				continue
			}
			if !bytes.Equal(fb, rb) {
				i := 0
				for fb[i] == rb[i] {
					i++
				}
				addr := rg[0] + off + uint32(i)
				return diverge(fast, ref, step, fast.EIP, "", "memory",
					fmt.Sprintf("byte at %#x: %#x vs %#x", addr, fb[i], rb[i]))
			}
		}
	}
	return nil
}

// compareTB checks the translation-block engine's CPU against the
// interpreter's after one lockstep step. Both are emu.CPUs, so the
// comparison is stricter than the reference one: deterministic
// instruction and cycle accounting must match too.
func compareTB(fast, tbc *emu.CPU, step uint64, pc uint32, instStr string) *Divergence {
	if fast.EIP != tbc.EIP {
		return divergeTB(fast, tbc, step, pc, instStr, "tb-eip",
			fmt.Sprintf("eip %#x vs %#x", fast.EIP, tbc.EIP))
	}
	for r := x86.Reg(0); r < x86.NumRegs; r++ {
		if fast.Reg[r] != tbc.Reg[r] {
			return divergeTB(fast, tbc, step, pc, instStr, "tb-reg",
				fmt.Sprintf("%s %#x vs %#x", r, fast.Reg[r], tbc.Reg[r]))
		}
	}
	if fast.Flags() != tbc.Flags() {
		return divergeTB(fast, tbc, step, pc, instStr, "tb-flags",
			fmt.Sprintf("eflags %#x vs %#x (%s vs %s)",
				fast.Flags(), tbc.Flags(), flagString(fast.Flags()), flagString(tbc.Flags())))
	}
	if fast.Icount != tbc.Icount || fast.Cycles != tbc.Cycles {
		return divergeTB(fast, tbc, step, pc, instStr, "tb-count",
			fmt.Sprintf("icount %d/%d vs cycles %d/%d",
				fast.Icount, tbc.Icount, fast.Cycles, tbc.Cycles))
	}
	if fast.Exited != tbc.Exited || (fast.Exited && fast.Status != tbc.Status) {
		return divergeTB(fast, tbc, step, pc, instStr, "tb-exit",
			fmt.Sprintf("exited=%t/%d vs %t/%d", fast.Exited, fast.Status, tbc.Exited, tbc.Status))
	}
	return nil
}

// compareTBFinal checks kernel output and all mapped memory between the
// interpreter and the tb engine after a clean exit.
func compareTBFinal(fast, tbc *emu.CPU, fastOS, tbOS *emu.OS,
	img *image.Image, opts Options, step uint64) *Divergence {
	if !bytes.Equal(fastOS.Stdout.Bytes(), tbOS.Stdout.Bytes()) {
		return divergeTB(fast, tbc, step, fast.EIP, "", "tb-stdout",
			fmt.Sprintf("stdout %q vs %q", fastOS.Stdout.Bytes(), tbOS.Stdout.Bytes()))
	}
	if !bytes.Equal(fastOS.Stderr.Bytes(), tbOS.Stderr.Bytes()) {
		return divergeTB(fast, tbc, step, fast.EIP, "", "tb-stderr",
			fmt.Sprintf("stderr %q vs %q", fastOS.Stderr.Bytes(), tbOS.Stderr.Bytes()))
	}
	ranges := make([][2]uint32, 0, len(img.Sections)+1)
	for _, s := range img.Sections {
		ranges = append(ranges, [2]uint32{s.Addr, s.Size})
	}
	stackSize := opts.StackSize
	if stackSize == 0 {
		stackSize = emu.DefaultStackSize
	}
	ranges = append(ranges, [2]uint32{emu.DefaultStackTop - stackSize, stackSize})
	for _, rg := range ranges {
		const chunk = 1 << 16
		for off := uint32(0); off < rg[1]; off += chunk {
			n := rg[1] - off
			if n > chunk {
				n = chunk
			}
			fb, errF := fast.Mem.Peek(rg[0]+off, n)
			tbb, errT := tbc.Mem.Peek(rg[0]+off, n)
			if errF != nil || errT != nil {
				continue
			}
			if !bytes.Equal(fb, tbb) {
				i := 0
				for fb[i] == tbb[i] {
					i++
				}
				addr := rg[0] + off + uint32(i)
				return divergeTB(fast, tbc, step, fast.EIP, "", "tb-memory",
					fmt.Sprintf("byte at %#x: %#x vs %#x", addr, fb[i], tbb[i]))
			}
		}
	}
	return nil
}

func divergeTB(fast, tbc *emu.CPU, step uint64, pc uint32,
	instStr, kind, detail string) *Divergence {
	return &Divergence{
		Step: step, PC: pc, Inst: instStr, Kind: kind, Detail: detail,
		Fast: fast.String(),
		Ref:  tbc.String(),
	}
}

func diverge(fast *emu.CPU, ref *RefCPU, step uint64, pc uint32,
	instStr, kind, detail string) *Divergence {
	return &Divergence{
		Step: step, PC: pc, Inst: instStr, Kind: kind, Detail: detail,
		Fast: fast.String(),
		Ref:  ref.String(),
	}
}

// String renders the reference state for divergence reports, in the
// same shape as emu.CPU.String.
func (c *RefCPU) String() string {
	return fmt.Sprintf(
		"eax=%08x ebx=%08x ecx=%08x edx=%08x esi=%08x edi=%08x ebp=%08x esp=%08x eip=%08x "+
			"[cf=%t zf=%t sf=%t of=%t]",
		c.Reg[x86.EAX], c.Reg[x86.EBX], c.Reg[x86.ECX], c.Reg[x86.EDX],
		c.Reg[x86.ESI], c.Reg[x86.EDI], c.Reg[x86.EBP], c.Reg[x86.ESP], c.EIP,
		c.CF, c.ZF, c.SF, c.OF)
}

func flagString(f uint32) string {
	var b strings.Builder
	for _, fl := range []struct {
		bit  uint32
		name string
	}{{1 << 0, "CF"}, {1 << 2, "PF"}, {1 << 4, "AF"}, {1 << 6, "ZF"},
		{1 << 7, "SF"}, {1 << 10, "DF"}, {1 << 11, "OF"}} {
		if f&fl.bit != 0 {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(fl.name)
		}
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// disasmAt renders the instruction at pc for divergence reports.
// Best-effort: undecodable bytes render as hex.
func disasmAt(mem *emu.Memory, pc uint32) string {
	b, err := mem.Peek(pc, 15)
	if err != nil {
		if b, err = mem.Peek(pc, 1); err != nil {
			return "??"
		}
	}
	inst, derr := x86.Decode(b, pc)
	if derr != nil {
		return fmt.Sprintf("bytes % x", b[:min(4, len(b))])
	}
	return inst.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
