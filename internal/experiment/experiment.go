// Package experiment regenerates the paper's evaluation: Figure 6
// (protectable code bytes per rewriting rule), Figures 5a/5b (function
// chain slowdown and whole-program overhead per hardening strategy),
// the §V-C µ-chain ablation, and the §VI security matrix. The
// cmd/parallax-bench tool and the repository benchmarks print these as
// tables; EXPERIMENTS.md records paper-versus-measured values.
//
// Cost numbers come from the emulator's deterministic cycle model, so
// the figures are reproducible bit for bit across hosts.
package experiment

import (
	"fmt"

	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/dyngen"
	"parallax/internal/emu"
	"parallax/internal/image"
	"parallax/internal/rewrite"
	"parallax/internal/x86"
)

// Fig6Row is one program's protectability measurement (Figure 6).
type Fig6Row struct {
	Program   string
	TextBytes int
	// Percent of text bytes protectable per rule, and by any rule.
	// The plain columns use strict (decode-verified) accounting; the
	// Reach columns use the paper-comparable compositional accounting.
	Existing     float64
	FarRet       float64
	ImmMod       float64
	JumpMod      float64
	Any          float64
	ImmModReach  float64
	JumpModReach float64
	AnyReach     float64
}

// Fig6 measures protectable code bytes for every corpus program.
func Fig6() ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, p := range corpus.All() {
		img, err := codegen.Build(p.Build())
		if err != nil {
			return nil, fmt.Errorf("experiment: building %s: %w", p.Name, err)
		}
		rep, err := rewrite.Measure(img)
		if err != nil {
			return nil, fmt.Errorf("experiment: measuring %s: %w", p.Name, err)
		}
		rows = append(rows, Fig6Row{
			Program:      p.Name,
			TextBytes:    rep.TextBytes,
			Existing:     rep.Percent(rewrite.RuleExisting),
			FarRet:       rep.Percent(rewrite.RuleFarRet),
			ImmMod:       rep.Percent(rewrite.RuleImmMod),
			JumpMod:      rep.Percent(rewrite.RuleJumpMod),
			Any:          rep.AnyPercent(),
			ImmModReach:  rep.PercentReach(rewrite.RuleImmMod),
			JumpModReach: rep.PercentReach(rewrite.RuleJumpMod),
			AnyReach:     rep.AnyReachPercent(),
		})
	}
	return rows, nil
}

// Fig5Row is one (program, hardening strategy) measurement: the chain
// slowdown (Figure 5a) and whole-program overhead (Figure 5b).
type Fig5Row struct {
	Program string
	Mode    string
	// NativePerCall / ChainPerCall are modeled cycles per invocation
	// of the verification function before and after translation.
	NativePerCall float64
	ChainPerCall  float64
	Slowdown      float64
	// OverheadPct is the whole-program cycle overhead.
	OverheadPct float64
	Calls       uint64
}

// Fig5Modes are the paper's four hardening strategies in Figure 5.
func Fig5Modes() []dyngen.Mode {
	return []dyngen.Mode{dyngen.ModeStatic, dyngen.ModeXor, dyngen.ModeRC4, dyngen.ModeProb}
}

// ModeLabel renders a mode as the paper names it.
func ModeLabel(m dyngen.Mode) string {
	if m == dyngen.ModeStatic {
		return "cleartext"
	}
	return m.String()
}

// Fig5 measures chain slowdown and program overhead for every corpus
// program under each hardening strategy.
func Fig5(modes []dyngen.Mode) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, p := range corpus.All() {
		base, err := measureBaseline(p)
		if err != nil {
			return nil, err
		}
		for _, mode := range modes {
			row, err := measureMode(p, base, mode, false)
			if err != nil {
				return nil, fmt.Errorf("experiment: %s/%v: %w", p.Name, mode, err)
			}
			rows = append(rows, row.Fig5Row)
		}
	}
	return rows, nil
}

// MuRow is the §V-C ablation: µ-chains versus function chains.
type MuRow struct {
	Program      string
	FuncPerCall  float64
	MuPerCall    float64
	Ratio        float64
	FuncChainLen int
	MuChainLen   int
}

// MuAblation compares instruction-level and function-level
// verification on every corpus program.
func MuAblation() ([]MuRow, error) {
	var rows []MuRow
	for _, p := range corpus.All() {
		base, err := measureBaseline(p)
		if err != nil {
			return nil, err
		}
		fn, err := measureMode(p, base, dyngen.ModeStatic, false)
		if err != nil {
			return nil, err
		}
		mu, err := measureMode(p, base, dyngen.ModeStatic, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, MuRow{
			Program:      p.Name,
			FuncPerCall:  fn.ChainPerCall,
			MuPerCall:    mu.ChainPerCall,
			Ratio:        mu.ChainPerCall / fn.ChainPerCall,
			FuncChainLen: fn.chainWords,
			MuChainLen:   mu.chainWords,
		})
	}
	return rows, nil
}

// baselineRun holds the unprotected measurements of one program.
type baselineRun struct {
	totalCycles   uint64
	nativePerCall float64
	calls         uint64
}

// measureBaseline builds and profiles the unprotected program,
// attributing cycles to the verification candidate.
func measureBaseline(p corpus.Program) (*baselineRun, error) {
	m := p.Build()
	img, err := codegen.Build(m)
	if err != nil {
		return nil, err
	}
	cpu, err := emu.LoadImage(img)
	if err != nil {
		return nil, err
	}
	cpu.EnableProfile()
	cpu.OS = emu.NewOS(p.Stdin)
	if err := cpu.Run(); err != nil {
		return nil, fmt.Errorf("baseline run of %s: %w", p.Name, err)
	}

	sym, err := img.Lookup(p.VerifyFunc)
	if err != nil {
		return nil, fmt.Errorf("baseline of %s: %w", p.Name, err)
	}
	inside := AttribCycles(img, cpu.Profile(), sym.Addr, sym.Addr+sym.Size)
	calls := cpu.Profile()[sym.Addr]
	if calls == 0 {
		return nil, fmt.Errorf("verification function %s never ran", p.VerifyFunc)
	}
	return &baselineRun{
		totalCycles:   cpu.Cycles,
		nativePerCall: float64(inside) / float64(calls),
		calls:         calls,
	}, nil
}

// measureMode protects the program under one strategy and derives the
// per-call chain cost from the whole-program cycle delta:
//
//	chainPerCall = nativePerCall + (protCycles - baseCycles) / calls
//
// (the loader, decoder and chain execution are all attributed to the
// call, and the small §IV-B2 rewrite overhead on other code is
// conservatively included).
func measureMode(p corpus.Program, base *baselineRun, mode dyngen.Mode, mu bool) (*fig5Row2, error) {
	prot, err := core.Protect(p.Build(), core.Options{
		VerifyFuncs: []string{p.VerifyFunc},
		ChainMode:   mode,
		MuChains:    mu,
		Seed:        0x1234ABCD,
	})
	if err != nil {
		return nil, err
	}
	cpu, err := emu.LoadImage(prot.Image)
	if err != nil {
		return nil, err
	}
	cpu.OS = emu.NewOS(p.Stdin)
	if err := cpu.Run(); err != nil {
		return nil, fmt.Errorf("protected run: %w", err)
	}

	delta := float64(int64(cpu.Cycles) - int64(base.totalCycles))
	chainPerCall := base.nativePerCall + delta/float64(base.calls)
	row := &fig5Row2{
		Fig5Row: Fig5Row{
			Program:       p.Name,
			Mode:          ModeLabel(mode),
			NativePerCall: base.nativePerCall,
			ChainPerCall:  chainPerCall,
			Slowdown:      chainPerCall / base.nativePerCall,
			OverheadPct:   100 * delta / float64(base.totalCycles),
			Calls:         base.calls,
		},
		chainWords: len(prot.Chains[p.VerifyFunc].Words),
	}
	return row, nil
}

type fig5Row2 struct {
	Fig5Row
	chainWords int
}

// AttribCycles sums the modeled cost of profiled instructions within
// [lo, hi): per-address execution counts times the static cost of the
// instruction found there.
func AttribCycles(img *image.Image, prof map[uint32]uint64, lo, hi uint32) uint64 {
	text := img.Text()
	var total uint64
	for addr, hits := range prof {
		if addr < lo || addr >= hi || !text.Contains(addr) {
			continue
		}
		inst, err := x86.Decode(text.Data[addr-text.Addr:], addr)
		if err != nil {
			continue
		}
		total += hits * emu.InstCost(&inst)
	}
	return total
}

// Fig5ForProgram measures one program under the given strategies
// (single-program variant of Fig5, used by the benchmarks).
func Fig5ForProgram(p corpus.Program, modes []dyngen.Mode) ([]Fig5Row, error) {
	base, err := measureBaseline(p)
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, mode := range modes {
		row, err := measureMode(p, base, mode, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row.Fig5Row)
	}
	return rows, nil
}

// MuAblationForProgram is the single-program §V-C ablation.
func MuAblationForProgram(p corpus.Program) (*MuRow, error) {
	base, err := measureBaseline(p)
	if err != nil {
		return nil, err
	}
	fn, err := measureMode(p, base, dyngen.ModeStatic, false)
	if err != nil {
		return nil, err
	}
	mu, err := measureMode(p, base, dyngen.ModeStatic, true)
	if err != nil {
		return nil, err
	}
	return &MuRow{
		Program:      p.Name,
		FuncPerCall:  fn.ChainPerCall,
		MuPerCall:    mu.ChainPerCall,
		Ratio:        mu.ChainPerCall / fn.ChainPerCall,
		FuncChainLen: fn.chainWords,
		MuChainLen:   mu.chainWords,
	}, nil
}
