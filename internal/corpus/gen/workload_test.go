package gen

import (
	"context"
	"testing"

	"parallax/internal/attack"
	"parallax/internal/codegen"
	"parallax/internal/image"
	"parallax/internal/obs"
)

// coldSink counts instruction events inside cold function ranges and
// cold-function entry hits (one per taken cold call — the generator's
// call graph is a forward DAG, so entry addresses are never re-reached
// by loops or recursion).
type coldSink struct {
	ranges  [][2]uint32 // cold [lo,hi) spans
	entries map[uint32]bool
	inCold  uint64
	calls   uint64
}

func (s *coldSink) Emit(e obs.Event) {
	if e.Kind != obs.EventInst {
		return
	}
	if s.entries[e.PC] {
		s.calls++
	}
	for _, r := range s.ranges {
		if e.PC >= r[0] && e.PC < r[1] {
			s.inCold++
			return
		}
	}
}

// coldSpans extracts the cold-function symbol ranges of a generated
// image using the seed-independent skeleton.
func coldSpans(t *testing.T, img *image.Image, info Info) *coldSink {
	t.Helper()
	hot := map[string]bool{"vfy": true, "main": true}
	for f, h := range info.Hot {
		if h {
			hot[f] = true
		}
	}
	s := &coldSink{entries: make(map[uint32]bool)}
	known := make(map[string]bool, len(info.Funcs))
	for _, f := range info.Funcs {
		known[f] = true
	}
	for _, sym := range img.Symbols {
		if !known[sym.Name] || hot[sym.Name] {
			continue
		}
		s.ranges = append(s.ranges, [2]uint32{sym.Addr, sym.Addr + sym.Size})
		s.entries[sym.Addr] = true
	}
	if len(s.ranges) == 0 {
		t.Fatal("no cold symbols found")
	}
	return s
}

func runTraced(t *testing.T, img *image.Image, stdin []byte, sink obs.TraceSink) attack.RunResult {
	t.Helper()
	res := attack.RunWith(context.Background(), img, attack.RunConfig{
		Stdin:      stdin,
		Trace:      sink,
		TraceEvery: 1,
	})
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	return res
}

// TestWorkloadColdExecution is the generator half of the cold-code
// fix: under the idle workload cold bodies never execute (the
// historical blind spot), and under the heavy workload — four stdin
// bytes granting a cold-call budget — they do, bounded by the budget.
func TestWorkloadColdExecution(t *testing.T) {
	for _, fam := range []string{"tiny", "small"} {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			f, err := FamilyByName(fam)
			if err != nil {
				t.Fatal(err)
			}
			info, err := Describe(f.Params)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := FamilyProgram(f, 1)
			if err != nil {
				t.Fatal(err)
			}
			img, err := codegen.Build(prog.Build())
			if err != nil {
				t.Fatal(err)
			}

			idle := coldSpans(t, img, info)
			idleRes := runTraced(t, img, nil, idle)
			if idle.inCold != 0 {
				t.Errorf("idle workload executed %d cold instructions, want 0", idle.inCold)
			}

			heavy := coldSpans(t, img, info)
			stdin, ok := prog.Workload("heavy")
			if !ok {
				t.Fatal("generated program lacks a heavy workload")
			}
			heavyRes := runTraced(t, img, stdin, heavy)
			if heavy.inCold == 0 {
				t.Error("heavy workload executed no cold instructions")
			}
			if heavy.calls == 0 || heavy.calls > ColdBudget {
				t.Errorf("heavy workload made %d cold calls, want 1..%d", heavy.calls, ColdBudget)
			}
			if heavyRes.Icount <= idleRes.Icount {
				t.Errorf("heavy icount %d not above idle %d", heavyRes.Icount, idleRes.Icount)
			}

			// A partial budget (short stdin write into coldflag) bounds
			// cold calls by the granted value: 2 bytes give budget 5.
			part := coldSpans(t, img, info)
			runTraced(t, img, []byte{5, 0}, part)
			if part.calls == 0 || part.calls > 5 {
				t.Errorf("budget-5 workload made %d cold calls, want 1..5", part.calls)
			}
		})
	}
}

// TestWorkloadDeterminism pins the heavy workload to deterministic
// execution: same image, same stdin, same icount and exit status.
func TestWorkloadDeterminism(t *testing.T) {
	f, err := FamilyByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := FamilyProgram(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	img, err := codegen.Build(prog.Build())
	if err != nil {
		t.Fatal(err)
	}
	a := attack.Run(context.Background(), img, HeavyStdin())
	b := attack.Run(context.Background(), img, HeavyStdin())
	if a.Err != nil || b.Err != nil {
		t.Fatalf("runs failed: %v / %v", a.Err, b.Err)
	}
	if a.Icount != b.Icount || a.Status != b.Status {
		t.Errorf("heavy workload not deterministic: icount %d/%d status %d/%d",
			a.Icount, b.Icount, a.Status, b.Status)
	}
}
