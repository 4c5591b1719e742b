// Package oh implements a simplified oblivious hashing baseline
// (Chen et al. / Jacob et al.): protected functions are instrumented
// with hash updates over their computed values; at function exit the
// running hash must match one of the values recorded during a
// calibration (testing) run.
//
// The baseline reproduces the paper's comparison points:
//
//   - OH is immune to the Wurster attack (it never reads code bytes);
//   - OH cannot protect non-deterministic code — inputs outside the
//     calibration set raise false tamper alarms (§VIII-C);
//   - OH's overhead lands on the protected code itself, where Parallax
//     confines overhead to the verification code (§I, advantage 3).
package oh

import (
	"encoding/binary"
	"fmt"

	"parallax/internal/codegen"
	"parallax/internal/emu"
	"parallax/internal/image"
	"parallax/internal/ir"
)

// TamperStatus is the exit status of the tamper response.
const TamperStatus = 87

// Symbols of the instrumentation state.
const (
	tabSym  = "..oh.tab"  // count word + entries
	modeSym = "..oh.mode" // 1 = calibrating, 0 = enforcing
)

const checkFunc = "..oh.check"

// tableCap bounds the calibration table.
const tableCap = 16

// Options configures OH protection.
type Options struct {
	// Funcs are the functions to instrument.
	Funcs []string
}

// Protected is an OH-instrumented build. Call Calibrate before use.
type Protected struct {
	Image    *image.Image
	Baseline *image.Image
	Funcs    []string
}

// Protect instruments the named functions with interspersed hash
// updates and an exit check.
func Protect(m *ir.Module, opts Options) (*Protected, error) {
	if len(opts.Funcs) == 0 {
		return nil, fmt.Errorf("oh: no functions selected")
	}
	baseline, err := codegen.Build(m)
	if err != nil {
		return nil, err
	}

	work := m.Clone()
	for _, fn := range opts.Funcs {
		f := work.Func(fn)
		if f == nil {
			return nil, fmt.Errorf("oh: function %q not in module", fn)
		}
		instrument(f)
	}
	work.Globals = append(work.Globals,
		&ir.Global{Name: tabSym, Init: make([]byte, 4+4*tableCap)},
		&ir.Global{Name: modeSym, Init: []byte{1, 0, 0, 0}}, // starts calibrating
	)
	work.Funcs = append(work.Funcs, buildCheck())
	if err := ir.Validate(work); err != nil {
		return nil, err
	}
	img, err := codegen.Build(work)
	if err != nil {
		return nil, err
	}
	return &Protected{
		Image:    img,
		Baseline: baseline,
		Funcs:    append([]string(nil), opts.Funcs...),
	}, nil
}

// instrument interleaves hash updates with the function body: after
// every value-producing instruction, h = h*31 + value. The hash is
// checked at every return.
func instrument(f *ir.Func) {
	h := ir.Value(f.NumVals)
	f.NumVals++
	tmp := ir.Value(f.NumVals)
	f.NumVals++
	k31 := ir.Value(f.NumVals)
	f.NumVals++

	for bi, b := range f.Blocks {
		var out []ir.Inst
		if bi == 0 {
			out = append(out,
				ir.Inst{Kind: ir.OpConst, Dst: h, Imm: int32(2166136261 - (1 << 32))},
				ir.Inst{Kind: ir.OpConst, Dst: k31, Imm: 31},
			)
		}
		for _, in := range b.Insts {
			out = append(out, in)
			switch in.Kind {
			case ir.OpBin, ir.OpCmp, ir.OpLoad, ir.OpLoad8:
				// h = h*31 + dst — the oblivious hash of the execution
				// state, interspersed with the protected code.
				out = append(out,
					ir.Inst{Kind: ir.OpBin, Bin: ir.Mul, Dst: tmp, A: h, B: k31},
					ir.Inst{Kind: ir.OpBin, Bin: ir.Add, Dst: h, A: tmp, B: in.Dst},
				)
			}
		}
		if b.Term.Kind == ir.TermRet {
			out = append(out, ir.Inst{
				Kind: ir.OpCall, Dst: tmp, Callee: checkFunc, Args: []ir.Value{h},
			})
		}
		b.Insts = out
	}
}

// buildCheck emits the table membership check / calibration recorder.
func buildCheck() *ir.Func {
	fb := ir.NewFunc(checkFunc, 1)
	h := fb.Param(0)
	mode := fb.Load(fb.Addr(modeSym, 0))
	one := fb.Const(1)
	four := fb.Const(4)
	tab := fb.Addr(tabSym, 0)
	count := fb.Load(tab)
	entries := fb.Add(tab, four)

	// Scan the table for h (both modes need it: calibration dedupes).
	i := fb.Const(0)
	fb.Jmp("scan.head")
	fb.Block("scan.head")
	c := fb.Cmp(ir.ULt, i, count)
	fb.Br(c, "scan.body", "miss")
	fb.Block("scan.body")
	v := fb.Load(fb.Add(entries, fb.Mul(i, four)))
	eq := fb.Cmp(ir.Eq, v, h)
	fb.Br(eq, "hit", "scan.next")
	fb.Block("scan.next")
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp("scan.head")

	fb.Block("miss")
	calib := fb.Cmp(ir.Ne, mode, fb.Const(0))
	fb.Br(calib, "record", "tamper")

	fb.Block("record")
	capV := fb.Const(tableCap)
	room := fb.Cmp(ir.ULt, count, capV)
	fb.Br(room, "append", "hit") // table full: silently accept while calibrating

	fb.Block("append")
	fb.Store(fb.Add(entries, fb.Mul(count, four)), h)
	fb.Store(tab, fb.Add(count, one))
	fb.Jmp("hit")

	fb.Block("tamper")
	st := fb.Const(TamperStatus)
	fb.Syscall(1, st)
	fb.RetVoid()

	fb.Block("hit")
	fb.Ret(fb.Const(0))
	return fb.Fn()
}

// Calibrate runs the instrumented image on a workload, harvests the
// recorded hash table, and returns an enforcing image with the table
// baked in. Mirrors the paper's "hashes used to verify the state are
// found using dynamic testing".
func Calibrate(p *Protected, stdin []byte) (*image.Image, error) {
	cpu, err := emu.LoadImage(p.Image)
	if err != nil {
		return nil, err
	}
	cpu.OS = emu.NewOS(stdin)
	if err := cpu.Run(); err != nil {
		return nil, fmt.Errorf("oh: calibration run failed: %w", err)
	}
	tab, err := p.Image.Lookup(tabSym)
	if err != nil {
		return nil, fmt.Errorf("oh: calibrate: %w", err)
	}
	raw, err := cpu.Mem.Peek(tab.Addr, tab.Size)
	if err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(raw)
	if count == 0 {
		return nil, fmt.Errorf("oh: calibration exercised no protected function")
	}

	out := p.Image.Clone()
	if err := out.WriteAt(tab.Addr, raw); err != nil {
		return nil, err
	}
	// Switch to enforcing.
	mode, err := out.Lookup(modeSym)
	if err != nil {
		return nil, fmt.Errorf("oh: calibrate: %w", err)
	}
	if err := out.WriteAt(mode.Addr, []byte{0, 0, 0, 0}); err != nil {
		return nil, err
	}
	return out, nil
}
