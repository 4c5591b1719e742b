package tb_test

import (
	"testing"

	"parallax/internal/emu"
	"parallax/internal/emu/tb"
	"parallax/internal/obs"
)

// TestCatalogSharedAcrossEngines runs the same image on two CPUs whose
// engines share one catalog: the second run must adopt every block the
// first translated and decode nothing itself.
func TestCatalogSharedAcrossEngines(t *testing.T) {
	cat := tb.NewCatalog()

	reg1 := obs.NewRegistry()
	c1 := loadWX(t, chainedPatchProgram)
	e1 := tb.NewWithCatalog(c1, reg1, cat)
	if err := e1.Run(); err != nil {
		t.Fatalf("run 1: %v", err)
	}
	e1.Close()
	t1 := reg1.Counter("emu.tb.translations").Value()
	if t1 == 0 {
		t.Fatal("first engine translated nothing")
	}
	if got := reg1.Counter("emu.tb.catalog_installs").Value(); got == 0 {
		t.Fatal("first engine published nothing to the catalog")
	}

	// The first run patches its own code mid-run, so its end state holds
	// both clean and patched variants — the fresh CPU below must adopt
	// only byte-matching ones and still compute the exact same result.
	reg2 := obs.NewRegistry()
	c2 := loadWX(t, chainedPatchProgram)
	e2 := tb.NewWithCatalog(c2, reg2, cat)
	if err := e2.Run(); err != nil {
		t.Fatalf("run 2: %v", err)
	}
	e2.Close()
	if got := reg2.Counter("emu.tb.translations").Value(); got != 0 {
		t.Fatalf("second engine translated %d blocks; want 0 (full adoption)", got)
	}
	if got := reg2.Counter("emu.tb.catalog_hits").Value(); got == 0 {
		t.Fatal("second engine recorded no catalog hits")
	}
	if c1.Reg != c2.Reg || c1.Icount != c2.Icount || c1.Status != c2.Status ||
		c1.Flags() != c2.Flags() {
		t.Fatalf("adopted run diverged:\n run1: %s icount=%d\n run2: %s icount=%d",
			c1, c1.Icount, c2, c2.Icount)
	}
	if got := c2.Reg[6]; got != 0x55555555 { // ESI
		t.Fatalf("esi = %#x, want 0x55555555 (stale adoption?)", got)
	}
}

// TestCatalogMutantDivergence patches one byte of the second CPU's
// image: the untouched block is adopted from the catalog, the patched
// block fails byte verification and translates privately, and each run
// executes its own bytes.
func TestCatalogMutantDivergence(t *testing.T) {
	// Two blocks: entry jumps over a gap to body; body sets EAX and rets.
	code := []byte{
		0xEB, 0x02, // 00: jmp body
		0x90, 0x90, // 02: (gap)
		0xB8, 0x2A, 0x00, 0x00, 0x00, // 04: body: mov eax, 42
		0xC3, // 09: ret
	}
	cat := tb.NewCatalog()

	reg1 := obs.NewRegistry()
	c1 := loadWX(t, code)
	e1 := tb.NewWithCatalog(c1, reg1, cat)
	if err := e1.Run(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	e1.Close()
	if got := c1.Reg[0]; got != 42 {
		t.Fatalf("clean eax = %d, want 42", got)
	}

	mutant := append([]byte(nil), code...)
	mutant[5] = 0x07 // mov eax, 42 -> mov eax, 7
	reg2 := obs.NewRegistry()
	c2 := loadWX(t, mutant)
	e2 := tb.NewWithCatalog(c2, reg2, cat)
	if err := e2.Run(); err != nil {
		t.Fatalf("mutant run: %v", err)
	}
	e2.Close()
	if got := c2.Reg[0]; got != 7 {
		t.Fatalf("mutant eax = %d, want 7 (adopted a stale clean-image block?)", got)
	}
	// Exactly the patched block re-translated; the jump block was adopted.
	if got := reg2.Counter("emu.tb.translations").Value(); got != 1 {
		t.Fatalf("mutant translated %d blocks, want exactly 1 (the patched one)", got)
	}

	// A third CPU on the clean bytes adopts the clean variants even
	// though the mutant's variants now sit alongside them.
	reg3 := obs.NewRegistry()
	c3 := loadWX(t, code)
	e3 := tb.NewWithCatalog(c3, reg3, cat)
	if err := e3.Run(); err != nil {
		t.Fatalf("re-clean run: %v", err)
	}
	e3.Close()
	if got := c3.Reg[0]; got != 42 {
		t.Fatalf("re-clean eax = %d, want 42 (adopted the mutant's block?)", got)
	}
	if got := reg3.Counter("emu.tb.translations").Value(); got != 0 {
		t.Fatalf("re-clean run translated %d blocks, want 0", got)
	}
}

// TestCatalogOverlaySkipsBothDirections arms the Wurster fetch overlay:
// memory bytes no longer describe fetched bytes, so the engine must
// neither adopt from nor publish to the catalog while it is armed.
func TestCatalogOverlaySkipsBothDirections(t *testing.T) {
	code := []byte{
		0xB8, 0x2A, 0x00, 0x00, 0x00, // mov eax, 42
		0xC3, // ret
	}
	cat := tb.NewCatalog()

	c := loadWX(t, code)
	// Overlay the mov's immediate: fetch sees 7, data reads still see 42.
	c.SetOverlay(testBase, []byte{0xB8, 0x07, 0x00, 0x00, 0x00})
	reg := obs.NewRegistry()
	e := tb.NewWithCatalog(c, reg, cat)
	if err := e.Run(); err != nil {
		t.Fatalf("overlay run: %v", err)
	}
	e.Close()
	if got := c.Reg[0]; got != 7 {
		t.Fatalf("overlay eax = %d, want 7 (overlay not honored)", got)
	}
	for _, name := range []string{"emu.tb.catalog_hits", "emu.tb.catalog_misses", "emu.tb.catalog_installs"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Fatalf("%s = %d with overlay armed, want 0 (catalog must be skipped)", name, got)
		}
	}

	// A clean CPU must not be able to adopt overlay-tainted variants —
	// there are none — and must run the memory bytes.
	c2 := loadWX(t, code)
	e2 := tb.NewWithCatalog(c2, nil, cat)
	if err := e2.Run(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	e2.Close()
	if got := c2.Reg[0]; got != 42 {
		t.Fatalf("clean eax = %d, want 42", got)
	}
}

// TestOverlayAfterWarmRun arms the Wurster fetch overlay over an
// instruction that has already executed, so the interpreter's decode
// cache and the engine's block map both hold the original bytes. The
// overlay reaches both through the memory bus: the rerun executes the
// overlaid bytes on either engine, the engine counts the killed block
// as an invalidation, and the reconciliation identity still holds.
func TestOverlayAfterWarmRun(t *testing.T) {
	code := []byte{
		0xB8, 0x2A, 0x00, 0x00, 0x00, // mov eax, 42
		0xC3, // ret
	}
	overlay := []byte{0xB8, 0x07, 0x00, 0x00, 0x00} // mov eax, 7

	// run executes the program twice from one snapshot — once warm-up,
	// once with the overlay armed in between — and returns both EAX
	// values.
	run := func(t *testing.T, c *emu.CPU, exec func() error) (clean, overlaid uint32) {
		t.Helper()
		snap := c.Snapshot()
		if err := exec(); err != nil {
			t.Fatalf("warm run: %v", err)
		}
		clean = c.Reg[0]
		c.Restore(snap)
		c.SetOverlay(testBase, overlay)
		if err := exec(); err != nil {
			t.Fatalf("overlay run: %v", err)
		}
		return clean, c.Reg[0]
	}

	t.Run("interp", func(t *testing.T) {
		c := loadWX(t, code)
		if clean, got := run(t, c, c.Run); clean != 42 || got != 7 {
			t.Fatalf("eax = %d then %d, want 42 then 7 (stale decode)", clean, got)
		}
	})

	t.Run("tb", func(t *testing.T) {
		reg := obs.NewRegistry()
		c := loadWX(t, code)
		e := tb.New(c, reg)
		if clean, got := run(t, c, e.Run); clean != 42 || got != 7 {
			t.Fatalf("eax = %d then %d, want 42 then 7 (stale translation)", clean, got)
		}
		e.Close()
		counter := func(name string) uint64 { return reg.Counter(name).Value() }
		if got := counter("emu.tb.invalidations"); got != 1 {
			t.Fatalf("invalidations = %d, want 1 (the overlaid block)", got)
		}
		born := counter("emu.tb.translations") + counter("emu.tb.catalog_hits")
		died := counter("emu.tb.invalidations") + counter("emu.tb.flushes")
		if born == 0 || born != died {
			t.Fatalf("translations+hits = %d, invalidations+flushes = %d; want equal and non-zero", born, died)
		}
	})
}

// TestMetricsReconcile is the invalidations/flushes split regression:
// every block an engine ever held dies exactly once, through either the
// per-block coherence counter or the wholesale-flush counter, so after
// Close the identity
//
//	translations + catalog_hits == invalidations + flushes
//
// holds on the engine's registry — including the teardown flush, which
// previously went uncounted.
func TestMetricsReconcile(t *testing.T) {
	t.Run("teardown-only", func(t *testing.T) {
		reg := obs.NewRegistry()
		c := loadWX(t, []byte{0x90, 0xC3}) // nop; ret — one block, no SMC
		e := tb.New(c, reg)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("emu.tb.flushes").Value(); got != 0 {
			t.Fatalf("flushes = %d before Close, want 0", got)
		}
		e.Close()
		if got := reg.Counter("emu.tb.flushes").Value(); got != 1 {
			t.Fatalf("flushes = %d after Close, want 1 (the teardown flush)", got)
		}
		if got := reg.Counter("emu.tb.invalidations").Value(); got != 0 {
			t.Fatalf("invalidations = %d, want 0 (no code was modified)", got)
		}
	})

	t.Run("smc-and-catalog", func(t *testing.T) {
		cat := tb.NewCatalog()
		for i := 0; i < 2; i++ {
			reg := obs.NewRegistry()
			c := loadWX(t, chainedPatchProgram)
			e := tb.NewWithCatalog(c, reg, cat)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			e.Close()
			born := reg.Counter("emu.tb.translations").Value() +
				reg.Counter("emu.tb.catalog_hits").Value()
			died := reg.Counter("emu.tb.invalidations").Value() +
				reg.Counter("emu.tb.flushes").Value()
			if born == 0 || born != died {
				t.Fatalf("pass %d: translations+hits = %d, invalidations+flushes = %d; want equal and non-zero",
					i, born, died)
			}
		}
	})
}

// TestInvalidateBoundaryBytes pins the half-open [lo, hi) convention on
// the invalidation bus end to end: a write to a block's last byte kills
// it, a write to the first byte past its end does not.
func TestInvalidateBoundaryBytes(t *testing.T) {
	// Block spans [base, base+2): inc eax; ret. base+2 is one past it.
	code := []byte{0x40, 0xC3, 0x90, 0x90}
	reg := obs.NewRegistry()
	c := loadWX(t, code)
	e := tb.New(c, reg)
	defer e.Close()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	inv := reg.Counter("emu.tb.invalidations")

	// First byte past the block's end: must NOT invalidate.
	if err := c.Patch(testBase+2, []byte{0x91}); err != nil {
		t.Fatal(err)
	}
	if got := inv.Value(); got != 0 {
		t.Fatalf("write one past block end invalidated %d blocks, want 0", got)
	}

	// Last byte inside the block: must invalidate.
	if err := c.Patch(testBase+1, []byte{0xC3}); err != nil {
		t.Fatal(err)
	}
	if got := inv.Value(); got != 1 {
		t.Fatalf("write to block's last byte invalidated %d blocks, want 1", got)
	}
}
