package attack

import (
	"context"
	"testing"

	"parallax/internal/chaos"
	"parallax/internal/codegen"
	"parallax/internal/image"
	"parallax/internal/ir"
)

// stdinEcho builds a program whose observable status depends on its
// workload bytes: exit(buf[0] + buf[1]) after read(0, buf, 4).
func stdinEcho(t *testing.T) *image.Image {
	t.Helper()
	mb := ir.NewModule("stdinecho")
	mb.Global("buf", make([]byte, 4))
	fb := mb.Func("main", 0)
	fb.Syscall(3, fb.Const(0), fb.Addr("buf", 0), fb.Const(4))
	b0 := fb.Load8(fb.Addr("buf", 0))
	b1 := fb.Load8(fb.Addr("buf", 1))
	fb.Syscall(1, fb.Add(b0, b1))
	fb.Ret(fb.Const(0))
	mb.SetEntry("main")
	m := mb.MustBuild()
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Link(obj)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestChaosStdinInjection pins the workload-reader fault point end to
// end: a fired PointStdinRead decision aborts the run with a typed
// injected error (never a silently garbled workload), non-firing keys
// run byte-identically to a chaos-free run, and decisions are pure in
// (seed, key).
func TestChaosStdinInjection(t *testing.T) {
	img := stdinEcho(t)
	ctx := context.Background()
	stdin := []byte{3, 7, 0, 0}

	clean := RunWith(ctx, img, RunConfig{Stdin: stdin})
	if clean.Err != nil || clean.Status != 10 {
		t.Fatalf("clean run: status %d err %v, want 10, nil", clean.Status, clean.Err)
	}

	inj := chaos.New(chaos.Plan{
		Seed:   42,
		Faults: []chaos.Fault{{Point: chaos.PointStdinRead, Prob: 0.5}},
	}, nil)

	fired, spared := 0, 0
	for key := uint64(0); key < 64; key++ {
		res := RunWith(ctx, img, RunConfig{Stdin: stdin, Chaos: inj, ChaosKey: key})
		if inj.Should(chaos.PointStdinRead, key) {
			// decide() is pure in (seed, point, key) with no budget cap,
			// so re-asking after the run sees the same answer.
			fired++
			if !chaos.IsInjected(res.Err) {
				t.Fatalf("key %d fired but run err = %v (status %d); want injected abort", key, res.Err, res.Status)
			}
		} else {
			spared++
			if res.Err != nil || res.Status != clean.Status || res.Stdout != clean.Stdout || res.Icount != clean.Icount {
				t.Fatalf("key %d did not fire but run differs from chaos-free: %+v vs %+v", key, res, clean)
			}
		}
	}
	if fired == 0 || spared == 0 {
		t.Fatalf("want both fired and spared keys in 64 trials, got %d/%d", fired, spared)
	}

	// Same (seed, key) → same outcome, independent of the runs above.
	inj2 := chaos.New(chaos.Plan{
		Seed:   42,
		Faults: []chaos.Fault{{Point: chaos.PointStdinRead, Prob: 0.5}},
	}, nil)
	for key := uint64(0); key < 64; key++ {
		if inj2.Should(chaos.PointStdinRead, key) != inj.Should(chaos.PointStdinRead, key) {
			t.Fatalf("key %d: decision not reproducible across injectors", key)
		}
	}
}
