package core_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"parallax/internal/baseline/checksum"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/dyngen"
	"parallax/internal/image"
)

// byteGuard is the per-byte guard construction the range set replaced:
// one map entry for every byte of every chain gadget and of every
// ..parallax.* symbol.
func byteGuard(p *core.Protected) map[uint32]bool {
	g := make(map[uint32]bool)
	for _, ch := range p.Chains {
		for _, gd := range ch.Gadgets() {
			lo, hi := gd.Range()
			for a := lo; a < hi; a++ {
				g[a] = true
			}
		}
	}
	for _, s := range p.Image.Symbols {
		if strings.HasPrefix(s.Name, "..parallax.") {
			for a := s.Addr; a < s.Addr+s.Size; a++ {
				g[a] = true
			}
		}
	}
	return g
}

// byteColdRegions is the per-byte walk ColdRegions made over a byte
// guard.
func byteColdRegions(img *image.Image, guard map[uint32]bool, minLen int) [][2]uint32 {
	minLen = max(minLen, 1)
	text := img.Text()
	var out [][2]uint32
	runStart, inRun := uint32(0), false
	flush := func(end uint32) {
		if inRun && int(end-runStart) >= minLen {
			out = append(out, [2]uint32{runStart, end})
		}
		inRun = false
	}
	for a := text.Addr; a < text.End(); a++ {
		if guard[a] {
			flush(a)
			continue
		}
		if !inRun {
			runStart, inRun = a, true
		}
	}
	flush(text.End())
	sort.SliceStable(out, func(i, j int) bool {
		li, lj := out[i][1]-out[i][0], out[j][1]-out[j][0]
		if li != lj {
			return li > lj
		}
		return out[i][0] < out[j][0]
	})
	return out
}

// byteProtectedBytes is the per-gadget-byte, per-function count
// ProtectedBytes made.
func byteProtectedBytes(p *core.Protected) core.ProtectedByteStats {
	type span struct{ lo, hi uint32 }
	var spans []span
	var stats core.ProtectedByteStats
	for _, s := range p.Image.Funcs() {
		if strings.HasPrefix(s.Name, "..") || slices.Contains(p.VerifyFuncs, s.Name) {
			continue
		}
		spans = append(spans, span{s.Addr, s.Addr + s.Size})
		stats.AppBytes += int(s.Size)
		stats.TotalFuncs++
	}
	guardedFuncs := make(map[int]bool)
	counted := make(map[uint32]bool)
	for _, ch := range p.Chains {
		for _, g := range ch.Gadgets() {
			lo, hi := g.Range()
			for a := lo; a < hi; a++ {
				for i, sp := range spans {
					if a >= sp.lo && a < sp.hi {
						if !counted[a] {
							counted[a] = true
							stats.GuardedBytes++
						}
						guardedFuncs[i] = true
					}
				}
			}
		}
	}
	stats.GuardedFuncs = len(guardedFuncs)
	return stats
}

// TestGuardMatchesByteMap holds the guard range set to the per-byte map
// it replaced, over the six corpus programs under every chain mode with
// and without a composed checksum network, and the tiny and small
// generated programs: every address of every section gets the same
// membership answer, every 1- to 4-byte window the same overlap answer,
// and ColdRegions and ProtectedBytes return what the per-byte walks
// return.
func TestGuardMatchesByteMap(t *testing.T) {
	type guardCase struct {
		prog  corpus.Program
		mode  dyngen.Mode
		check int
	}
	var cases []guardCase
	for _, p := range corpus.All() {
		for _, mode := range []dyngen.Mode{dyngen.ModeStatic, dyngen.ModeXor, dyngen.ModeRC4, dyngen.ModeProb} {
			for _, k := range []int{0, 4} {
				cases = append(cases, guardCase{p, mode, k})
			}
		}
	}
	for _, name := range []string{"tiny", "small"} {
		fam, err := gen.FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := gen.FamilyProgram(fam, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 4} {
			cases = append(cases, guardCase{p, dyngen.ModeStatic, k})
		}
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%v/checksum=%d", c.prog.Name, c.mode, c.check), func(t *testing.T) {
			p, err := core.Protect(c.prog.Build(), core.Options{
				VerifyFuncs: []string{c.prog.VerifyFunc}, ChainMode: c.mode, Seed: 7, ComposeChecksum: c.check,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, guard := byteGuard(p), p.Guard()
			for _, s := range p.Image.Sections {
				for a := s.Addr; a < s.End(); a++ {
					if got := guard.Contains(a); got != want[a] {
						t.Fatalf("%s %#x: Contains = %t, byte map %t", s.Name, a, got, want[a])
					}
					for n := uint32(1); n <= 4; n++ {
						hit := false
						for i := uint32(0); i < n; i++ {
							hit = hit || want[a+i]
						}
						if got := guard.Overlaps(a, n); got != hit {
							t.Fatalf("%s [%#x,+%d): Overlaps = %t, byte map %t", s.Name, a, n, got, hit)
						}
					}
				}
			}
			for _, minLen := range []int{0, 16} {
				got, want := checksum.ColdRegions(p.Image, guard, minLen), byteColdRegions(p.Image, want, minLen)
				if !slices.Equal(got, want) {
					t.Errorf("ColdRegions(minLen %d): %d runs, per-byte walk %d", minLen, len(got), len(want))
				}
			}
			if got, want := p.ProtectedBytes(), byteProtectedBytes(p); got != want {
				t.Errorf("ProtectedBytes = %+v, per-byte count %+v", got, want)
			}
		})
	}
}
