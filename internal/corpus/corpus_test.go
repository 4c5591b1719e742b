package corpus

import (
	"bytes"
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/emu"
	"parallax/internal/ir"
	"parallax/internal/ropc"
)

// TestCorpusDifferential runs every program under the IR interpreter
// and as compiled x86, demanding identical behaviour.
func TestCorpusDifferential(t *testing.T) {
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build()

			ik := &ir.StdKernel{}
			if p.Stdin != nil {
				ik.Stdin = bytes.NewReader(p.Stdin)
			}
			ip := ir.NewInterp(m, ik)
			want, err := ip.Run()
			if err != nil {
				t.Fatalf("interp: %v", err)
			}

			img, err := codegen.Build(m)
			if err != nil {
				t.Fatal(err)
			}
			cpu, err := emu.RunImage(img, emu.NewOS(p.Stdin))
			if err != nil {
				t.Fatalf("emulate: %v", err)
			}
			if cpu.Status != want {
				t.Fatalf("status: emu=%d interp=%d", cpu.Status, want)
			}
			t.Logf("%s: status=%d, %d instructions, %d cycles",
				p.Name, cpu.Status, cpu.Icount, cpu.Cycles)
		})
	}
}

// TestCorpusVerifyFuncsAreChainable checks the hand-picked candidates
// satisfy the chain constraints and are profitable selection targets.
func TestCorpusVerifyFuncsAreChainable(t *testing.T) {
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build()
			f := m.Func(p.VerifyFunc)
			if f == nil {
				t.Fatalf("verify func %q missing", p.VerifyFunc)
			}
			if !ropc.Chainable(f) {
				t.Fatalf("verify func %q not chainable", p.VerifyFunc)
			}
			rep, err := core.ProfileModule(m, p.Stdin)
			if err != nil {
				t.Fatal(err)
			}
			fp := rep.Funcs[p.VerifyFunc]
			if fp.DynamicCalls < 2 {
				t.Errorf("%s called %d times; chains need repeated execution",
					p.VerifyFunc, fp.DynamicCalls)
			}
			if fp.InstShare >= core.SelectThreshold {
				t.Errorf("%s consumes %.2f%% of execution; over the %v%% threshold",
					p.VerifyFunc, 100*fp.InstShare, 100*core.SelectThreshold)
			}
			t.Logf("%s: %s share=%.3f%% calls=%d diversity=%d",
				p.Name, p.VerifyFunc, 100*fp.InstShare, fp.DynamicCalls, fp.OpDiversity)
		})
	}
}

// TestCorpusProtectEndToEnd protects each program with its candidate
// and checks behaviour is preserved, then that gadget tampering
// derails it.
func TestCorpusProtectEndToEnd(t *testing.T) {
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build()
			prot, err := core.Protect(m, core.Options{VerifyFuncs: []string{p.VerifyFunc}})
			if err != nil {
				t.Fatal(err)
			}
			base, err := emu.RunImage(prot.Baseline, emu.NewOS(p.Stdin))
			if err != nil {
				t.Fatal(err)
			}
			got, err := emu.RunImage(prot.Image, emu.NewOS(p.Stdin))
			if err != nil {
				t.Fatalf("protected run: %v", err)
			}
			if got.Status != base.Status {
				t.Fatalf("status: protected=%d baseline=%d", got.Status, base.Status)
			}

			g := prot.Chains[p.VerifyFunc].Gadgets()[0]
			tampered := prot.Image.Clone()
			if err := tampered.WriteAt(g.Addr, []byte{0xCC}); err != nil {
				t.Fatal(err)
			}
			cpu, err := emu.LoadImage(tampered)
			if err != nil {
				t.Fatal(err)
			}
			cpu.OS = emu.NewOS(p.Stdin)
			cpu.MaxInst = 50_000_000
			runErr := cpu.Run()
			if runErr == nil && cpu.Status == base.Status {
				t.Error("tampering the first chain gadget went unnoticed")
			}
		})
	}
}

// TestCorpusAutoSelect runs the §VII-B algorithm on each program; it
// must pick some chainable function under the threshold (not
// necessarily the hand-picked one).
func TestCorpusAutoSelect(t *testing.T) {
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build()
			name, err := core.SelectVerificationFunc(m, p.Stdin)
			if err != nil {
				t.Fatal(err)
			}
			f := m.Func(name)
			if f == nil || !ropc.Chainable(f) {
				t.Fatalf("selected %q is not a chainable module function", name)
			}
			t.Logf("%s: auto-selected %s", p.Name, name)
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("wget"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("emacs"); err == nil {
		t.Error("ByName accepted an unknown program")
	}
}
