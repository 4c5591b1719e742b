package emu

import (
	"testing"

	"parallax/internal/image"
)

// hookRecorder collects code-invalidation ranges for assertions.
type hookRecorder struct {
	calls [][2]uint32
}

func (h *hookRecorder) fn(lo, hi uint32) { h.calls = append(h.calls, [2]uint32{lo, hi}) }

func newHookCPU(t *testing.T) *CPU {
	t.Helper()
	c := New()
	if _, err := c.Mem.Map("text", 0x1000, 2*PageSize, image.PermR|image.PermW|image.PermX); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mem.Map("data", 0x10000, PageSize, image.PermR|image.PermW); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOnCodeInvalidateStoreRange checks that an ordinary store into an
// executable segment announces exactly the written range, and that
// stores into plain data segments stay silent.
func TestOnCodeInvalidateStoreRange(t *testing.T) {
	c := newHookCPU(t)
	var rec hookRecorder
	cancel := c.Mem.OnCodeInvalidate(rec.fn)
	defer cancel()

	if err := c.Mem.Store32(0x1004, 0xdeadbeef, 0); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 || rec.calls[0] != [2]uint32{0x1004, 0x1008} {
		t.Fatalf("store hook calls = %v, want [[0x1004 0x1008]]", rec.calls)
	}
	if err := c.Mem.Store32(0x10000, 1, 0); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 {
		t.Fatalf("data store fired code-invalidation hook: %v", rec.calls)
	}
}

// TestOnCodeInvalidatePokeRange checks Poke announces the executable
// sub-range it touched, even when the poke spans into a data segment.
func TestOnCodeInvalidatePokeRange(t *testing.T) {
	c := newHookCPU(t)
	var rec hookRecorder
	cancel := c.Mem.OnCodeInvalidate(rec.fn)
	defer cancel()

	if err := c.Mem.Poke(0x1100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 || rec.calls[0] != [2]uint32{0x1100, 0x1103} {
		t.Fatalf("poke hook calls = %v, want [[0x1100 0x1103]]", rec.calls)
	}

	// Patch goes through the same bus.
	if err := c.Patch(0x1200, []byte{0x90}); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 2 || rec.calls[1] != [2]uint32{0x1200, 0x1201} {
		t.Fatalf("patch hook calls = %v, want second [0x1200 0x1201]", rec.calls)
	}
}

// TestCanceledHookNotInvoked is the satellite regression: a hook that
// was registered and then canceled must never fire again — not from
// stores, not from Poke, and critically not from a Restore that was
// armed (via Snapshot) while the hook was still live.
func TestCanceledHookNotInvoked(t *testing.T) {
	c := newHookCPU(t)
	var live, stale hookRecorder
	cancelLive := c.Mem.OnCodeInvalidate(live.fn)
	defer cancelLive()
	cancelStale := c.Mem.OnCodeInvalidate(stale.fn)

	snap := c.Snapshot()

	// Dirty an executable page while both hooks are registered.
	if err := c.Mem.Store32(0x1000, 0xfeedface, 0); err != nil {
		t.Fatal(err)
	}
	if len(stale.calls) != 1 {
		t.Fatalf("stale hook should see the pre-cancel store, got %v", stale.calls)
	}

	cancelStale()
	cancelStale() // double-cancel must be harmless

	if err := c.Mem.Store32(0x1008, 1, 0); err != nil {
		t.Fatal(err)
	}
	// Restore copies the dirtied executable page back: this announces
	// on the bus and must reach only the live hook.
	st := c.Restore(snap)
	if st.DirtyPages == 0 {
		t.Fatalf("restore stats = %+v, want dirty executable pages", st)
	}
	if len(stale.calls) != 1 {
		t.Fatalf("canceled hook was invoked again: %v", stale.calls)
	}
	if len(live.calls) < 3 {
		t.Fatalf("live hook missed events: %v", live.calls)
	}
}
