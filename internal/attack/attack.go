// Package attack implements the adversary's toolbox from the paper's
// threat model (§II-B) and attack-resistance analysis (§VI): static
// code patching (software cracking), code-restore attacks built on
// runtime patching (emu.CPU.Patch, as a debugger writes a breakpoint),
// and the Wurster et al. split
// instruction-/data-cache attack that defeats checksumming.
//
// Everything here operates on images and emulated CPUs; tests and
// examples use it to demonstrate which protections survive which
// attacks.
package attack

import (
	"context"
	"errors"
	"fmt"

	"parallax/internal/chaos"
	"parallax/internal/emu"
	"parallax/internal/emu/tb"
	"parallax/internal/image"
	"parallax/internal/obs"
	"parallax/internal/x86"
)

// NopOut statically overwrites [addr, addr+n) with NOPs in the image —
// the classic Listing 2 attack that disables a jump or call.
func NopOut(img *image.Image, addr, n uint32) error {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0x90
	}
	return img.WriteAt(addr, b)
}

// PatchBytes statically overwrites image bytes (software cracking).
func PatchBytes(img *image.Image, addr uint32, b []byte) error {
	return img.WriteAt(addr, b)
}

// ForceJump rewrites the conditional jump at addr into an unconditional
// one — the §IV-A attack (4): "rewriting the jns instruction to an
// unconditional jmp". Handles both rel8 (2-byte) and 0F 8x rel32
// (6-byte) forms.
func ForceJump(img *image.Image, addr uint32) error {
	text := img.Text()
	if text == nil || !text.Contains(addr) {
		return fmt.Errorf("attack: %#x not in text", addr)
	}
	raw, err := img.ReadAt(addr, 8)
	if err != nil {
		return err
	}
	in, err := x86.Decode(raw, addr)
	if err != nil {
		return err
	}
	if in.Op != x86.JCC {
		return fmt.Errorf("attack: %v at %#x is not a conditional jump", in, addr)
	}
	switch in.Len {
	case 2: // 7x rel8 → EB rel8
		return img.WriteAt(addr, []byte{0xEB, raw[1]})
	case 6: // 0F 8x rel32 → E9 rel32; NOP the spare byte
		out := []byte{0xE9, raw[2], raw[3], raw[4], raw[5], 0x90}
		// Relative displacement is measured from instruction end: the
		// E9 form is one byte shorter, so the displacement grows by 1.
		d := uint32(out[1]) | uint32(out[2])<<8 | uint32(out[3])<<16 | uint32(out[4])<<24
		d++
		out[1], out[2], out[3], out[4] = byte(d), byte(d>>8), byte(d>>16), byte(d>>24)
		return img.WriteAt(addr, out)
	default:
		return fmt.Errorf("attack: unexpected jcc length %d", in.Len)
	}
}

// InvertCond flips the condition of the jump at addr (je→jne, ...).
func InvertCond(img *image.Image, addr uint32) error {
	raw, err := img.ReadAt(addr, 2)
	if err != nil {
		return err
	}
	switch {
	case raw[0] >= 0x70 && raw[0] <= 0x7F:
		return img.WriteAt(addr, []byte{raw[0] ^ 1})
	case raw[0] == 0x0F && raw[1] >= 0x80 && raw[1] <= 0x8F:
		return img.WriteAt(addr+1, []byte{raw[1] ^ 1})
	}
	return fmt.Errorf("attack: no conditional jump at %#x", addr)
}

// Restorer implements the §VI-A code-restore attack: patch code, let it
// execute, then put the original bytes back hoping the verification
// code never sees the modification.
type Restorer struct {
	cpu   *emu.CPU
	addr  uint32
	orig  []byte
	armed bool
}

// NewRestorer patches addr with b and remembers the original bytes.
func NewRestorer(c *emu.CPU, addr uint32, b []byte) (*Restorer, error) {
	orig, err := c.Mem.Peek(addr, uint32(len(b)))
	if err != nil {
		return nil, err
	}
	if err := c.Patch(addr, b); err != nil {
		return nil, err
	}
	return &Restorer{cpu: c, addr: addr, orig: orig, armed: true}, nil
}

// Restore puts the original bytes back.
func (r *Restorer) Restore() error {
	if !r.armed {
		return nil
	}
	r.armed = false
	return r.cpu.Patch(r.addr, r.orig)
}

// Wurster arms the split-cache attack on a CPU: instruction fetches in
// [addr, addr+len(b)) execute b, while data reads (and therefore any
// checksumming code) continue to see the original bytes. This is the
// user-space effect of the kernel patch in Wurster et al. [36].
func Wurster(c *emu.CPU, addr uint32, b []byte) {
	c.SetOverlay(addr, b)
}

// RunResult summarizes an attacked run for comparison against a clean
// one.
type RunResult struct {
	Status int32
	Stdout string
	Err    error
	Icount uint64
	// EIP is the final program counter — for faulting runs, the address
	// of the instruction that died, which campaign analysis attributes
	// to chain gadgets vs. ordinary code.
	EIP uint32
}

// RunConfig tunes Run's environment.
type RunConfig struct {
	Stdin []byte
	// DebuggerAttached makes ptrace(TRACEME) fail, as under a real
	// debugger.
	DebuggerAttached bool
	// MaxInst bounds the run (0 = 50M).
	MaxInst uint64
	// StackSize / MemBudget configure the emulator loader (0 = defaults).
	StackSize uint32
	MemBudget uint64
	// Obs, when non-nil, accumulates run metrics into the shared
	// registry: emu.runs, emu.insts, emu.watchdog_trips,
	// emu.inst_limit_trips, emu.load_failures and emu.faults.
	Obs *obs.Registry
	// Trace attaches an execution trace sink to the run's CPU;
	// TraceEvery is the instruction-event sampling stride (see
	// emu.CPU.TraceEvery).
	Trace      obs.TraceSink
	TraceEvery uint64
	// CPU, when non-nil, reuses an already-loaded emulator instead of
	// loading the image — the snapshot/restore campaign path. The
	// caller owns memory and register state (emu.CPU.Restore rewinds
	// between runs); RunWith still installs a fresh kernel and applies
	// the budgets above on every call. The image argument is ignored.
	CPU *emu.CPU
	// Engine selects the execution backend: "" or emu.Interp is the
	// interpreter, emu.TB the translation-block engine
	// (internal/emu/tb). Any other value fails the run.
	Engine emu.Engine
	// Catalog, when non-nil and Engine is emu.TB, attaches the shared
	// translation catalog to the run's engine: translations of
	// identical code bytes are adopted from (and published for) every
	// other run sharing the catalog. Ignored when Exec drives the run —
	// a persistent engine carries its own catalog.
	Catalog *tb.Catalog
	// Exec, when non-nil, drives the run instead of the backend Engine
	// selects: RunWith calls Exec.RunContext against the (possibly
	// reused) CPU. The campaign path passes a persistent tb.Engine
	// here so translations stay warm across snapshot/restore mutants.
	Exec Runner
	// Chaos, when non-nil, arms fault injection on a freshly loaded
	// emulator (segment-map failures, forced budget trips) and wraps
	// the run's stdin with a PointStdinRead short-read fault. A reused
	// CPU keeps whatever injector its loader armed; the stdin wrap
	// applies to every run.
	Chaos *chaos.Injector
	// ChaosKey keys this run's injection decisions for per-run points
	// (today: the stdin reader). The campaign passes the mutant index
	// so the faulted cell set is scheduling-independent.
	ChaosKey uint64
	// Kernel, when non-nil, resumes the run's fresh kernel at a fork
	// point's kernel state (see emu.OS.Resume) before execution; the
	// caller has moved CPU to the same fork point with
	// emu.CPU.ApplyFork. Stdin is still the whole workload, chaos
	// wrapping included: the resume consumes the bytes the clean run
	// had read, so a stdin fault before that offset ends the run with
	// the error its read(2) would have raised.
	Kernel *emu.KernelState
}

// Runner is an execution backend driving an already-configured CPU —
// satisfied by emu.CPU (the interpreter) and tb.Engine.
type Runner interface {
	RunContext(ctx context.Context) error
}

// RunWith executes an image under a configured kernel. The context is a
// hard watchdog: when it expires or is cancelled, the run stops within
// one poll stride and the result carries an emu.DeadlineError. Load and
// run failures are reported in the result, never panicked, so attacked
// or corrupted images can be swept mechanically.
func RunWith(ctx context.Context, img *image.Image, cfg RunConfig) RunResult {
	cpu := cfg.CPU
	if cpu == nil {
		loaded, err := Load(img, cfg)
		if err != nil {
			return RunResult{Err: err}
		}
		cpu = loaded
	}
	cpu.MaxInst = cfg.MaxInst
	if cpu.MaxInst == 0 {
		// Attacked binaries frequently spin; bound the run so a hang
		// reads as a malfunction rather than stalling the caller.
		cpu.MaxInst = 50_000_000
	}
	cpu.Trace = cfg.Trace
	cpu.TraceEvery = cfg.TraceEvery
	os := emu.NewOS(cfg.Stdin)
	os.Stdin = cfg.Chaos.ReaderN(chaos.PointStdinRead, cfg.ChaosKey, os.Stdin, int64(len(cfg.Stdin)))
	os.DebuggerAttached = cfg.DebuggerAttached
	cpu.OS = os
	var err error
	if cfg.Kernel != nil {
		err = os.Resume(*cfg.Kernel)
	}
	run := cpu.RunContext
	switch {
	case cfg.Exec != nil:
		run = cfg.Exec.RunContext
	case cfg.Engine == emu.TB:
		eng := tb.NewWithCatalog(cpu, cfg.Obs, cfg.Catalog)
		defer eng.Close()
		run = eng.RunContext
	default:
		if verr := cfg.Engine.Validate(); verr != nil {
			cfg.Obs.Counter("emu.load_failures").Inc()
			return RunResult{Err: fmt.Errorf("attack: %w", verr)}
		}
	}
	if err == nil {
		err = run(ctx)
	}
	recordRun(cfg.Obs, cpu, err)
	return RunResult{
		Status: cpu.Status,
		Stdout: os.Stdout.String(),
		Err:    err,
		Icount: cpu.Icount,
		EIP:    cpu.EIP,
	}
}

// Load maps img into a fresh emulator under cfg's budgets and chaos
// plan, exactly as RunWith does when cfg.CPU is nil; a failure counts
// in emu.load_failures.
func Load(img *image.Image, cfg RunConfig) (*emu.CPU, error) {
	cpu, err := emu.LoadImageWith(img, emu.LoadConfig{
		StackSize: cfg.StackSize,
		MemBudget: cfg.MemBudget,
		Chaos:     cfg.Chaos,
	})
	if err != nil {
		cfg.Obs.Counter("emu.load_failures").Inc()
	}
	return cpu, err
}

// recordRun accumulates one finished emulator run into the registry.
// The per-run cost is a handful of map lookups; nothing here runs per
// instruction.
func recordRun(reg *obs.Registry, cpu *emu.CPU, err error) {
	if reg == nil {
		return
	}
	reg.Counter("emu.runs").Inc()
	reg.Counter("emu.insts").Add(cpu.Icount)
	var de *emu.DeadlineError
	switch {
	case err == nil:
	case errors.As(err, &de):
		reg.Counter("emu.watchdog_trips").Inc()
	case errors.Is(err, emu.ErrInstLimit):
		reg.Counter("emu.inst_limit_trips").Inc()
	default:
		reg.Counter("emu.faults").Inc()
	}
}

// Run executes an image under a fresh kernel and reports the outcome;
// never failing, so attacked runs (which may fault) can be compared
// uniformly.
func Run(ctx context.Context, img *image.Image, stdin []byte) RunResult {
	return RunWith(ctx, img, RunConfig{Stdin: stdin})
}

// Same reports whether two run results are observationally identical.
func (r RunResult) Same(o RunResult) bool {
	return r.Status == o.Status && r.Stdout == o.Stdout &&
		(r.Err == nil) == (o.Err == nil)
}

// RunUntil steps the CPU until EIP reaches addr for the n-th time (or
// the program exits). It returns the number of times addr was hit.
func RunUntil(c *emu.CPU, addr uint32, n int, maxInst uint64) (int, error) {
	hits := 0
	for i := uint64(0); i < maxInst && !c.Exited; i++ {
		if c.EIP == addr {
			hits++
			if hits >= n {
				return hits, nil
			}
		}
		if err := c.Step(); err != nil {
			return hits, err
		}
	}
	return hits, nil
}
