package attack

import (
	"context"
	"errors"
	"testing"
	"time"

	"parallax/internal/emu"
	"parallax/internal/image"
)

// TestRunawayMutantKilledWithinBudget: a tampered image that spins
// forever must be killed by the context watchdog within the deadline
// budget, and the result must identify the kill as a deadline, not a
// crash.
func TestRunawayMutantKilledWithinBudget(t *testing.T) {
	runaway := &image.Image{
		Entry: 0x1000,
		Sections: []*image.Section{{
			Name: ".text", Addr: 0x1000, Data: []byte{0xEB, 0xFE}, // jmp self
			Size: 2, Perm: image.PermR | image.PermX,
		}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	res := RunWith(ctx, runaway, RunConfig{MaxInst: 1 << 62})
	elapsed := time.Since(start)

	if elapsed > 5*time.Second {
		t.Fatalf("runaway mutant survived %v past a 50ms budget", elapsed)
	}
	var de *emu.DeadlineError
	if !errors.As(res.Err, &de) {
		t.Fatalf("want DeadlineError, got %v", res.Err)
	}
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("result must wrap context.DeadlineExceeded: %v", res.Err)
	}
	if res.Icount == 0 {
		t.Error("watchdog fired before the mutant executed at all")
	}
}

// TestRunReportsFaultEIP: the result's EIP pinpoints the faulting
// instruction so campaign analysis can attribute the fault to a region.
func TestRunReportsFaultEIP(t *testing.T) {
	// mov eax,[0] — faults immediately at the entry point.
	fault := &image.Image{
		Entry: 0x1000,
		Sections: []*image.Section{{
			Name: ".text", Addr: 0x1000, Data: []byte{0xA1, 0, 0, 0, 0},
			Size: 5, Perm: image.PermR | image.PermX,
		}},
	}
	res := Run(context.Background(), fault, nil)
	if res.Err == nil {
		t.Fatal("expected a fault")
	}
	if res.EIP != 0x1000 {
		t.Fatalf("fault EIP = %#x, want 0x1000", res.EIP)
	}
}
