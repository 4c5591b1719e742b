package gadget

import (
	"math/rand"
	"testing"
)

// TestScanAllocs: a scan allocates per span, not per candidate. The
// bound holds however many gadgets the 64 KiB of gadget-rich code
// yields (tens of thousands); the evaluator, the candidate buffer and
// the gadget slabs are what keep it there.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	code := gadgetRichCode(rand.New(rand.NewSource(26)), 64<<10)
	const bound = 32
	n := len(ScanBytes(code, 0x401000))
	allocs := testing.AllocsPerRun(5, func() { ScanBytes(code, 0x401000) })
	t.Logf("%d gadgets, %.0f allocs per scan", n, allocs)
	if n < 10000 {
		t.Fatalf("only %d gadgets: the code is not gadget-rich enough to tell per-candidate allocations", n)
	}
	if allocs > bound {
		t.Fatalf("ScanBytes allocates %.0f times per scan of %d gadgets, want at most %d", allocs, n, bound)
	}
}
