package core

import (
	"fmt"
	"sort"
	"strings"

	"parallax/internal/codegen"
	"parallax/internal/emu"
	"parallax/internal/ir"
	"parallax/internal/ropc"
)

// SelectVerificationFunc implements the paper's §VII-B fully-automatic
// selection algorithm:
//
//  1. analyze the call graph for functions called repeatedly from
//     several locations (so integrity is verified repeatedly);
//  2. profile the program and keep functions contributing less than a
//     threshold (2%) of execution;
//  3. of those, pick the function using the most operation types (best
//     gadget coverage).
//
// Only chain-compilable functions (no calls, no syscalls, not the
// entry) are considered.
func SelectVerificationFunc(m *ir.Module, workload []byte) (string, error) {
	report, err := ProfileModule(m, workload)
	if err != nil {
		return "", err
	}
	return selectFromProfile(m, report)
}

// FuncProfile is one function's share of a profiling run.
type FuncProfile struct {
	Name string
	// StaticCallSites counts distinct call instructions targeting the
	// function across the module.
	StaticCallSites int
	// DynamicCalls counts executed invocations during the profile run.
	DynamicCalls uint64
	// InstShare is the fraction of executed instructions spent inside
	// the function body.
	InstShare float64
	// OpDiversity counts distinct operation kinds in the function.
	OpDiversity int
	// Chainable reports whether ropc can translate the function.
	Chainable bool
}

// ProfileReport is a per-function profile of a module run.
type ProfileReport struct {
	Funcs      map[string]*FuncProfile
	TotalInsts uint64
	Status     int32
}

// SelectThreshold is the §VII-B execution-share cutoff (2%).
const SelectThreshold = 0.02

// ProfileModule builds the module, runs it under the emulator with
// per-address profiling, and aggregates per-function statistics.
func ProfileModule(m *ir.Module, workload []byte) (*ProfileReport, error) {
	img, err := codegen.Build(m)
	if err != nil {
		return nil, err
	}
	cpu, err := emu.LoadImage(img)
	if err != nil {
		return nil, err
	}
	cpu.EnableProfile()
	cpu.OS = emu.NewOS(workload)
	if err := cpu.Run(); err != nil {
		return nil, fmt.Errorf("core: profile run failed: %w", err)
	}

	report := &ProfileReport{
		Funcs:      make(map[string]*FuncProfile, len(m.Funcs)),
		TotalInsts: cpu.Icount,
		Status:     cpu.Status,
	}
	type span struct {
		name   string
		lo, hi uint32
	}
	var spans []span
	for _, s := range img.Funcs() {
		spans = append(spans, span{s.Name, s.Addr, s.Addr + s.Size})
	}
	entryHits := make(map[string]uint64)
	bodyHits := make(map[string]uint64)
	for addr, n := range cpu.Profile() {
		for _, sp := range spans {
			if addr >= sp.lo && addr < sp.hi {
				bodyHits[sp.name] += n
				if addr == sp.lo {
					entryHits[sp.name] += n
				}
				break
			}
		}
	}

	callSites := staticCallSites(m)
	for _, f := range m.Funcs {
		share := 0.0
		if cpu.Icount > 0 {
			share = float64(bodyHits[f.Name]) / float64(cpu.Icount)
		}
		report.Funcs[f.Name] = &FuncProfile{
			Name:            f.Name,
			StaticCallSites: callSites[f.Name],
			DynamicCalls:    entryHits[f.Name],
			InstShare:       share,
			OpDiversity:     len(f.OpKinds()),
			Chainable:       ropc.Chainable(f),
		}
	}
	return report, nil
}

func staticCallSites(m *ir.Module) map[string]int {
	sites := make(map[string]int)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				if b.Insts[i].Kind == ir.OpCall {
					sites[b.Insts[i].Callee]++
				}
			}
		}
	}
	return sites
}

func selectFromProfile(m *ir.Module, report *ProfileReport) (string, error) {
	entry := m.Entry
	if entry == "" && len(m.Funcs) > 0 {
		entry = m.Funcs[0].Name
	}

	var best *FuncProfile
	// excluded names, per rejected candidate, the first criterion that
	// ruled it out; it becomes the error when nothing qualifies.
	var excluded []string
	names := make([]string, 0, len(report.Funcs))
	for n := range report.Funcs {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic tie-breaking
	for _, n := range names {
		p := report.Funcs[n]
		if n == entry || !p.Chainable {
			continue
		}
		// Step 1: called repeatedly — executed more than once at
		// runtime, with at least one static call site.
		if p.StaticCallSites < 1 {
			excluded = append(excluded, n+" has no call site")
			continue
		}
		if p.DynamicCalls < 2 {
			excluded = append(excluded, fmt.Sprintf("%s ran %d times (needs 2)", n, p.DynamicCalls))
			continue
		}
		// Step 2: cheap enough to translate.
		if p.InstShare >= SelectThreshold {
			excluded = append(excluded, fmt.Sprintf("%s takes %.1f%% of executed instructions (limit %g%%)",
				n, 100*p.InstShare, 100*SelectThreshold))
			continue
		}
		// Step 3: maximize operation diversity.
		if best == nil || p.OpDiversity > best.OpDiversity {
			best = p
		}
	}
	if best == nil {
		why := "no chainable function besides the entry"
		if len(excluded) > 0 {
			why = strings.Join(excluded, "; ")
		}
		return "", fmt.Errorf("core: no function satisfies the selection criteria: %s", why)
	}
	return best.Name, nil
}
