package gen

import (
	"errors"
	"testing"

	"parallax/internal/codegen"
)

// FuzzGenParams fuzzes the parameter-validation path: hostile
// parameter tuples must either be rejected with a typed *ParamError
// wrapping ErrBadParams, or — when accepted — generate an image that
// passes the full region-map invariant checker. Generation is only
// exercised for small accepted sizes to keep per-exec cost bounded.
func FuzzGenParams(f *testing.F) {
	add := func(p Params) {
		f.Add(p.Modules, p.CodeKiB, p.DataKiB, p.HotPct,
			p.Mix.ALU, p.Mix.Branch, p.Mix.Mem, p.Mix.Call, p.Mix.MulDiv)
	}
	for _, fam := range Families() {
		add(fam.Params)
	}
	// Hostile corners: zero/negative/overflowing fields, call-only and
	// all-zero mixes, module counts incompatible with the size.
	add(Params{})
	add(Params{Modules: -1, CodeKiB: -16, DataKiB: -1, HotPct: -5})
	add(Params{Modules: MaxModules + 1, CodeKiB: MaxCodeKiB + 1, DataKiB: MaxDataKiB + 1, HotPct: 101})
	add(Params{Modules: 16, CodeKiB: 16, DataKiB: 1, HotPct: 1, Mix: DefaultMix()})
	add(Params{Modules: 1, CodeKiB: 16, DataKiB: 1, HotPct: 100, Mix: Mix{Call: MaxWeight}})
	add(Params{Modules: 1, CodeKiB: 16, DataKiB: 1, HotPct: 1, Mix: Mix{ALU: 1 << 30, Branch: -(1 << 30)}})

	f.Fuzz(func(t *testing.T, modules, codeKiB, dataKiB, hotPct, alu, branch, mem, call, muldiv int) {
		p := Params{
			Modules: modules, CodeKiB: codeKiB, DataKiB: dataKiB, HotPct: hotPct,
			Mix: Mix{ALU: alu, Branch: branch, Mem: mem, Call: call, MulDiv: muldiv},
		}
		err := p.Validate()
		if err != nil {
			if !errors.Is(err, ErrBadParams) {
				t.Fatalf("rejection %v does not wrap ErrBadParams", err)
			}
			var pe *ParamError
			if !errors.As(err, &pe) || pe.Field == "" {
				t.Fatalf("rejection %v is not a field-typed *ParamError", err)
			}
			if _, gerr := Generate(1, p); gerr == nil {
				t.Fatal("Generate accepted params Validate rejected")
			}
			return
		}
		// Accepted params must hash canonically and describe a sane plan.
		if len(p.Hash()) != 16 {
			t.Fatalf("hash %q not 16 hex chars", p.Hash())
		}
		info, derr := Describe(p)
		if derr != nil {
			t.Fatalf("Describe rejected validated params: %v", derr)
		}
		if len(info.Funcs) < 2*p.Modules {
			t.Fatalf("plan has %d funcs for %d modules", len(info.Funcs), p.Modules)
		}
		// Full generation only for cheap sizes: a 4 MiB build is ~1 s,
		// far over fuzz per-exec budget.
		if p.CodeKiB > 64 || p.DataKiB > 256 {
			return
		}
		prog, gerr := Generate(1, p)
		if gerr != nil {
			t.Fatalf("Generate rejected validated params: %v", gerr)
		}
		img, berr := codegen.Build(prog.Build())
		if berr != nil {
			t.Fatalf("codegen failed on validated params: %v", berr)
		}
		if cerr := CheckImage(img); cerr != nil {
			t.Fatalf("invariants violated: %v", cerr)
		}
		if cerr := CheckCrossModule(img, p); cerr != nil {
			t.Fatalf("cross-module invariant violated: %v", cerr)
		}
	})
}
