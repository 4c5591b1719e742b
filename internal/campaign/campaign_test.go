package campaign

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"parallax/internal/core"
	"parallax/internal/emu"
	"parallax/internal/ir"
	"parallax/internal/obs"
)

// targetModule builds a small campaign target: "mix" is both
// verification code and gadget host, "main" drives it.
func targetModule(t *testing.T) *ir.Module {
	t.Helper()
	mb := ir.NewModule("target")

	fb := mb.Func("mix", 2)
	a := fb.Param(0)
	b := fb.Param(1)
	h := fb.Xor(a, fb.Const(0x5D17))
	i := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	lim := fb.Const(6)
	c := fb.Cmp(ir.ULt, i, lim)
	fb.Br(c, "body", "done")
	fb.Block("body")
	k := fb.Const(29)
	fb.Assign(h, fb.Add(fb.Mul(h, k), b))
	five := fb.Const(5)
	fb.Assign(h, fb.Xor(h, fb.Shr(h, five)))
	one := fb.Const(1)
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp("head")
	fb.Block("done")
	mask := fb.Const(0x3FFFFFFF)
	fb.Ret(fb.And(h, mask))

	fb = mb.Func("main", 0)
	acc := fb.Const(0)
	j := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	lim2 := fb.Const(5)
	c2 := fb.Cmp(ir.ULt, j, lim2)
	fb.Br(c2, "body", "done")
	fb.Block("body")
	fb.Assign(acc, fb.Call("mix", acc, j))
	one2 := fb.Const(1)
	fb.Assign(j, fb.Add(j, one2))
	fb.Jmp("head")
	fb.Block("done")
	m127 := fb.Const(127)
	fb.Ret(fb.And(acc, m127))
	mb.SetEntry("main")
	return mb.MustBuild()
}

func protectedTarget(t *testing.T) *core.Protected {
	t.Helper()
	p, err := core.Protect(targetModule(t), core.Options{VerifyFuncs: []string{"mix"}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCampaignMatrix(t *testing.T) {
	prot := protectedTarget(t)
	rep, err := Run(context.Background(), prot, Config{
		Stride:     3,
		MaxMutants: 1500,
		MaxInst:    2_000_000,
		Timeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Panics != 0 {
		t.Errorf("campaign recorded %d harness panics, want 0", rep.Panics)
	}
	if rep.Mutants == 0 {
		t.Fatal("campaign enumerated no mutants")
	}
	tot := rep.Totals()
	if got := tot.Chain + tot.Crash + tot.Timeout + tot.Silent + tot.LoaderReject; got != tot.Total {
		t.Errorf("classes sum to %d, total is %d — some mutant unclassified", got, tot.Total)
	}
	// The paper's claim: tampering with chain-guarded bytes is detected
	// through chain malfunction. Demand strictly positive coverage.
	if rep.GuardedTotal == 0 {
		t.Fatal("no guarded-site mutants: protection produced no guarded bytes?")
	}
	if rep.GuardedChainRate() <= 0 {
		t.Errorf("guarded-site chain detection rate is 0 (%d/%d)",
			rep.GuardedChain, rep.GuardedTotal)
	}
	// Serialized corruption must be present and mostly bounced by the
	// hardened loader or otherwise accounted for.
	var serial *Row
	for i := range rep.Rows {
		if rep.Rows[i].Region == serialRegion {
			serial = &rep.Rows[i]
		}
	}
	if serial == nil || serial.Total == 0 {
		t.Fatal("no serialized-corruption mutants in the matrix")
	}
	if serial.LoaderReject == 0 {
		t.Error("hardened loader rejected no corrupted streams")
	}
	t.Logf("\n%s", rep)
}

func TestCampaignCancellation(t *testing.T) {
	prot := protectedTarget(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, prot, Config{Stride: 1}); err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
}

func TestCampaignDeterministicEnumeration(t *testing.T) {
	prot := protectedTarget(t)
	cfg := Config{Stride: 5, MaxMutants: 400}
	a, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("enumeration count changed between runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mutant %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) > 400 {
		t.Errorf("MaxMutants not honored: %d mutants", len(a))
	}
}

func TestCampaignNilProtected(t *testing.T) {
	if _, err := Run(context.Background(), nil, Config{}); err == nil {
		t.Fatal("nil protected accepted")
	}
}

// TestConfigEngine: Config.Engine selects nothing. Of the six
// (Reload, Engine) pairs, "" and each path's own engine run and agree
// on the matrix; the two cross pairs are refused with errPathEngine
// before the clean run, and an unknown engine name is refused on
// either path.
func TestConfigEngine(t *testing.T) {
	prot := protectedTarget(t)
	var want string
	for _, tc := range []struct {
		reload bool
		engine emu.Engine
		runs   bool
	}{
		{false, "", true},
		{false, emu.TB, true},
		{false, emu.Interp, false},
		{true, "", true},
		{true, emu.Interp, true},
		{true, emu.TB, false},
		{false, "bogus", false},
		{true, "bogus", false},
	} {
		reg := obs.NewRegistry()
		rep, err := Run(context.Background(), prot, Config{
			Workers: 2, Stride: 11, MaxMutants: 64, MaxInst: 2_000_000, Timeout: time.Minute,
			Reload: tc.reload, Engine: tc.engine, Obs: reg,
		})
		name := fmt.Sprintf("Reload=%t Engine=%q", tc.reload, tc.engine)
		if !tc.runs {
			if crossed := tc.engine.Validate() == nil; err == nil || errors.Is(err, errPathEngine) != crossed {
				t.Errorf("%s: want refusal (path-engine error %t), got %v", name, crossed, err)
			}
			if runs := reg.Counter("emu.runs").Value(); runs != 0 {
				t.Errorf("%s: refused campaign executed %d runs", name, runs)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want == "" {
			want = rep.String()
		} else if rep.String() != want {
			t.Errorf("%s: matrix differs from Reload=false Engine=\"\":\n%s\nwant:\n%s", name, rep, want)
		}
	}
}
