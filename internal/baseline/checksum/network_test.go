package checksum_test

import (
	"bytes"
	"context"
	"testing"

	"parallax/internal/attack"
	"parallax/internal/baseline/checksum"
	"parallax/internal/core"
	"parallax/internal/corpus/gen"
	"parallax/internal/image"
)

// protectSmall builds the small generated family (seed 1) protected
// with the given composed-checker count (0 = plain Parallax).
func protectSmall(t *testing.T, checkers int) *core.Protected {
	t.Helper()
	f, err := gen.FamilyByName("small")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := gen.FamilyProgram(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Protect(prog.Build(), core.Options{
		VerifyFuncs: []string{prog.VerifyFunc}, ComposeChecksum: checkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// coldVictim picks a byte in the middle of a long unguarded text run.
func coldVictim(t *testing.T, p *core.Protected) uint32 {
	t.Helper()
	guard := p.Guard()
	text := p.Image.Text()
	for a := text.Addr; a < text.End(); a++ {
		if guard.Contains(a) {
			continue
		}
		run := uint32(0)
		for b := a; b < text.End() && !guard.Contains(b); b++ {
			run++
		}
		if run > 200 {
			return a + run/2
		}
		a += run
	}
	t.Fatal("no long unguarded run in text")
	return 0
}

func flipTextByte(t *testing.T, img *image.Image, addr uint32) *image.Image {
	t.Helper()
	mut := img.Clone()
	text := mut.Text()
	text.Data[addr-text.Addr] ^= 0xFF
	return mut
}

func serialize(t *testing.T, img *image.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestComposedBehaviorUnchanged pins the §VI-C composition's
// transparency: the composed image's observable behavior (exit status,
// stdout) matches the plain protection under both workloads — all the
// checkers add is the startup hashing pass. This is also the emulated
// checker's hash-lockstep gate: if buildNetChecker's fold ever
// diverged from the install-time hashRegion, the clean composed run
// would exit TamperStatus here.
func TestComposedBehaviorUnchanged(t *testing.T) {
	plain := protectSmall(t, 0)
	comp := protectSmall(t, 4)
	if comp.Checksum == nil || comp.Checksum.Regions == 0 || comp.Checksum.CoveredBytes == 0 {
		t.Fatalf("composition installed nothing: %+v", comp.Checksum)
	}
	for _, wl := range []struct {
		name  string
		stdin []byte
	}{{"idle", nil}, {"heavy", gen.HeavyStdin()}} {
		p := attack.Run(context.Background(), plain.Image, wl.stdin)
		c := attack.Run(context.Background(), comp.Image, wl.stdin)
		if p.Err != nil || c.Err != nil {
			t.Fatalf("%s: clean runs failed: %v / %v", wl.name, p.Err, c.Err)
		}
		if p.Status != c.Status || p.Stdout != c.Stdout {
			t.Errorf("%s: composed behavior diverged: status %d vs %d", wl.name, p.Status, c.Status)
		}
		if c.Icount <= p.Icount {
			t.Errorf("%s: composed icount %d not above plain %d (checkers didn't run?)", wl.name, c.Icount, p.Icount)
		}
	}
}

// TestComposedDetectsColdTamper is the blind-spot fix itself: a byte
// flip in unguarded cold text is invisible to the chains under plain
// Parallax but exits TamperStatus under the composed network.
func TestComposedDetectsColdTamper(t *testing.T) {
	comp := protectSmall(t, 4)
	victim := coldVictim(t, comp)
	res := attack.Run(context.Background(), flipTextByte(t, comp.Image, victim), nil)
	if res.Err != nil {
		t.Fatalf("composed cold tamper run failed: %v", res.Err)
	}
	if res.Status != checksum.TamperStatus {
		t.Errorf("composed cold tamper @%#x: status %d, want TamperStatus %d",
			victim, res.Status, checksum.TamperStatus)
	}
}

// TestComposedDeterministic pins the composed build: two Protect runs
// with identical inputs serialize to identical bytes (the farm cache
// and golden campaigns depend on it).
func TestComposedDeterministic(t *testing.T) {
	a := protectSmall(t, 4)
	b := protectSmall(t, 4)
	if !bytes.Equal(serialize(t, a.Image), serialize(t, b.Image)) {
		t.Error("composed protection is not deterministic")
	}
	if *a.Checksum != *b.Checksum {
		t.Errorf("composed stats differ: %+v vs %+v", *a.Checksum, *b.Checksum)
	}
}

// TestColdRegionsProperties checks the region extraction invariants on
// a real protected image: regions are unguarded, inside text, disjoint,
// length-sorted, and at least minLen long.
func TestColdRegionsProperties(t *testing.T) {
	plain := protectSmall(t, 0)
	guard := plain.Guard()
	const minLen = 16
	regions := checksum.ColdRegions(plain.Image, guard, minLen)
	if len(regions) == 0 {
		t.Fatal("no cold regions on a protected image")
	}
	text := plain.Image.Text()
	seen := make(map[uint32]bool)
	prevLen := uint32(1 << 31)
	for _, r := range regions {
		if r[0] >= r[1] || r[0] < text.Addr || r[1] > text.End() {
			t.Fatalf("region [%#x,%#x) outside text", r[0], r[1])
		}
		n := r[1] - r[0]
		if n < minLen || n > prevLen {
			t.Fatalf("region [%#x,%#x): bad length %d (prev %d)", r[0], r[1], n, prevLen)
		}
		prevLen = n
		for a := r[0]; a < r[1]; a++ {
			if guard.Contains(a) {
				t.Fatalf("region [%#x,%#x) overlaps guarded byte %#x", r[0], r[1], a)
			}
			if seen[a] {
				t.Fatalf("regions overlap at %#x", a)
			}
			seen[a] = true
		}
	}
}

// TestInstallNetworkDrops pins the capacity accounting: a deliberately
// tiny network reports exactly what it had to drop, covered plus
// dropped equals the input, and the kept regions still detect.
func TestInstallNetworkDrops(t *testing.T) {
	f, err := gen.FamilyByName("small")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := gen.FamilyProgram(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Build()
	net := checksum.Network{Checkers: 1, Slots: 2}
	if err := checksum.InjectNetwork(m, net); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Protect(m, core.Options{VerifyFuncs: []string{prog.VerifyFunc}})
	if err != nil {
		t.Fatal(err)
	}
	regions := checksum.ColdRegions(comp.Image, comp.Guard(), 16)
	if len(regions) <= 2 {
		t.Fatalf("want more than 2 regions to force drops, got %d", len(regions))
	}
	stats, err := checksum.InstallNetwork(comp.Image, net, regions)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Regions != 2 || stats.DroppedRegions != len(regions)-2 {
		t.Errorf("stats %+v: want 2 kept, %d dropped", *stats, len(regions)-2)
	}
	var total uint32
	for _, r := range regions {
		total += r[1] - r[0]
	}
	if stats.CoveredBytes+stats.DroppedBytes != total {
		t.Errorf("covered %d + dropped %d != total %d", stats.CoveredBytes, stats.DroppedBytes, total)
	}
	res := attack.Run(context.Background(), comp.Image, nil)
	if res.Err != nil || res.Status == checksum.TamperStatus {
		t.Fatalf("tiny network clean run failed: status %d err %v", res.Status, res.Err)
	}
	mid := regions[0][0] + (regions[0][1]-regions[0][0])/2
	tampered := attack.Run(context.Background(), flipTextByte(t, comp.Image, mid), nil)
	if tampered.Status != checksum.TamperStatus {
		t.Errorf("tamper inside covered region: status %d, want %d", tampered.Status, checksum.TamperStatus)
	}
}
