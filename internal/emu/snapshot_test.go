package emu

import (
	"errors"
	"testing"

	"parallax/internal/image"
	"parallax/internal/x86"
)

// rwxCPU is testCPU with a writable text segment, for programs that
// patch their own code through the ordinary store path.
func rwxCPU(t *testing.T, code []byte) *CPU {
	t.Helper()
	c := New()
	text, err := c.Mem.Map(".text", testTextBase, uint32(len(code)+16),
		image.PermR|image.PermW|image.PermX)
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, code)
	if _, err := c.Mem.Map("[stack]", testStackBase, testStackSize,
		image.PermR|image.PermW); err != nil {
		t.Fatal(err)
	}
	c.Reg[x86.ESP] = testStackBase + testStackSize - 16
	if err := c.push32(ExitSentinel); err != nil {
		t.Fatal(err)
	}
	c.EIP = testTextBase
	return c
}

// TestSelfModifyingWriteExecutesNewBytes is the regression test for the
// decode-cache staleness bug: a program that overwrites an upcoming
// instruction through a plain mov store must execute the new bytes on
// the next pass, not a decode cached from the old ones.
func TestSelfModifyingWriteExecutesNewBytes(t *testing.T) {
	// Two loop passes over "add eax, 500"; the first pass patches the
	// instruction's immediate to 900, so the second pass must add 900.
	// The immediates exceed imm8 range so the encoder emits them as
	// trailing imm32 words. Two-pass assembly: the first build learns
	// the immediate's address, the second bakes it into the patching
	// store.
	build := func(immAddr uint32) ([]byte, uint32) {
		b := x86.NewBuilder(testTextBase)
		b.I(ri(x86.MOV, x86.EAX, 0))
		b.I(ri(x86.MOV, x86.ECX, 2))
		b.Label("loop")
		b.I(ri(x86.ADD, x86.EAX, 500))
		b.Label("after")
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(immAddr), Src: x86.ImmOp(900)})
		b.I(x86.Inst{Op: x86.DEC, W: 32, Dst: x86.RegOp(x86.ECX)})
		b.JccL(x86.CondNE, "loop")
		b.I(x86.Inst{Op: x86.RET, W: 32})
		code, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		after, ok := b.LabelAddr("after")
		if !ok {
			t.Fatal("label after not recorded")
		}
		return code, after - 4 // imm32 is the add's trailing 4 bytes
	}
	_, immAddr := build(0)
	code, _ := build(immAddr)

	c := rwxCPU(t, code)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Stale decode would run the original add twice: 500+500=1000.
	if c.Status != 1400 {
		t.Errorf("status = %d, want 1400 (500 on pass one, patched 900 on pass two)", c.Status)
	}
}

// TestFetchWindowStraddlesSegments: an instruction whose bytes span two
// contiguously mapped executable segments must decode from the stitched
// window.
func TestFetchWindowStraddlesSegments(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 42))
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	const split = 3 // mid-immediate of the 5-byte mov
	c := New()
	lo, err := c.Mem.Map(".text", testTextBase, split, image.PermR|image.PermX)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := c.Mem.Map(".text2", testTextBase+split, uint32(len(code)-split),
		image.PermR|image.PermX)
	if err != nil {
		t.Fatal(err)
	}
	copy(lo.Data, code[:split])
	copy(hi.Data, code[split:])
	if _, err := c.Mem.Map("[stack]", testStackBase, testStackSize,
		image.PermR|image.PermW); err != nil {
		t.Fatal(err)
	}
	c.Reg[x86.ESP] = testStackBase + testStackSize - 16
	if err := c.push32(ExitSentinel); err != nil {
		t.Fatal(err)
	}
	c.EIP = testTextBase
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 42 {
		t.Errorf("status = %d, want 42", c.Status)
	}
}

// TestFetchWindowFaultsAtMissingBytes: when an instruction is truncated
// by the end of mapped executable memory, the error must be a fetch
// fault at the first missing address, not a generic decode fault.
func TestFetchWindowFaultsAtMissingBytes(t *testing.T) {
	cases := []struct {
		name string
		next func(t *testing.T, m *Memory) // maps what follows .text, if anything
	}{
		{"unmapped", func(t *testing.T, m *Memory) {}},
		{"non-executable", func(t *testing.T, m *Memory) {
			if _, err := m.Map(".data", testTextBase+1, 0x1000, image.PermR|image.PermW); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			text, err := c.Mem.Map(".text", testTextBase, 1, image.PermR|image.PermX)
			if err != nil {
				t.Fatal(err)
			}
			text.Data[0] = 0x05 // add eax, imm32 — needs 4 more bytes
			tc.next(t, c.Mem)
			c.EIP = testTextBase
			err = c.Step()
			var fault *FaultError
			if !errors.As(err, &fault) {
				t.Fatalf("err = %v (%T), want *FaultError", err, err)
			}
			if fault.Access != AccessFetch {
				t.Errorf("fault access = %v, want fetch", fault.Access)
			}
			if fault.Addr != testTextBase+1 {
				t.Errorf("fault addr = %#x, want %#x", fault.Addr, testTextBase+1)
			}
		})
	}
}

// TestSnapshotRestoreDataOnly: a run that only writes data pages
// restores cleanly, replays identically, and keeps its decode cache.
func TestSnapshotRestoreDataOnly(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 7))
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(testDataBase), Src: x86.RegOp(x86.EAX)})
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	snap := c.Snapshot()

	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Mem.Load32(testDataBase, 0); v != 7 {
		t.Fatalf("data word = %d, want 7", v)
	}
	firstIcount := c.Icount

	st := c.Restore(snap)
	if st.DirtyPages == 0 {
		t.Error("restore saw no dirty pages despite a data store")
	}
	if c.Exited || c.EIP != testTextBase || c.Icount != 0 {
		t.Errorf("post-restore state: exited=%t eip=%#x icount=%d", c.Exited, c.EIP, c.Icount)
	}
	if v, _ := c.Mem.Load32(testDataBase, 0); v != 0 {
		t.Errorf("data word = %d after restore, want 0", v)
	}
	if len(c.decodeCache) == 0 {
		t.Error("decode cache was flushed by a data-only restore")
	}

	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 7 || c.Icount != firstIcount {
		t.Errorf("replay: status=%d icount=%d, want status=7 icount=%d",
			c.Status, c.Icount, firstIcount)
	}
}

// TestSnapshotRestoreAfterPoke models one campaign mutant cycle:
// snapshot, Poke a text byte, run the mutant, restore, and verify the
// original program is back — original bytes, original behavior.
func TestSnapshotRestoreAfterPoke(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(ri(x86.MOV, x86.EAX, 42))
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	snap := c.Snapshot()

	// Mutate the mov's immediate: 42 -> 13.
	if err := c.Mem.Poke(testTextBase+1, []byte{13}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 13 {
		t.Fatalf("mutant status = %d, want 13", c.Status)
	}

	st := c.Restore(snap)
	if st.DirtyPages == 0 {
		t.Error("restore saw no dirty pages despite a text poke")
	}
	if b, _ := c.Mem.Peek(testTextBase+1, 1); b[0] != 42 {
		t.Errorf("text byte = %d after restore, want 42", b[0])
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Status != 42 {
		t.Errorf("restored run status = %d, want 42", c.Status)
	}
}

// TestSnapshotSupersedes: a second Snapshot rebaselines, so Restore
// rewinds to the newer point, not the older one.
func TestSnapshotSupersedes(t *testing.T) {
	code := asm(t, func(b *x86.Builder) {
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
	c := testCPU(t, code)
	c.Snapshot()
	if err := c.Mem.Poke(testDataBase, []byte{1}); err != nil {
		t.Fatal(err)
	}
	snap2 := c.Snapshot()
	if err := c.Mem.Poke(testDataBase, []byte{2}); err != nil {
		t.Fatal(err)
	}
	c.Restore(snap2)
	if b, _ := c.Mem.Peek(testDataBase, 1); b[0] != 1 {
		t.Errorf("data byte = %d, want 1 (the second snapshot's baseline)", b[0])
	}
}
