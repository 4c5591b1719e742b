package checksum

import (
	"encoding/binary"
	"fmt"
	"sort"

	"parallax/internal/image"
	"parallax/internal/ir"
)

// Network configures a checker network composed over another defense
// (the paper's §VI-C): instead of splitting the whole text into equal
// chunks, each checker verifies a table of disjoint [lo, hi) intervals
// — the cold regions a Parallax chain never guards. The tables and
// expected hashes live in .data, so installing them after the ROP
// protection's layout has converged perturbs nothing the chains (or
// the checkers themselves) read.
type Network struct {
	// Checkers is the checker-routine count (below 1 means 3).
	Checkers int
	// Slots is the interval capacity of each checker's table (below 1
	// means 16). The table global is sized at build time, so Slots is
	// part of the module's layout; regions beyond Checkers*Slots are
	// dropped largest-last and reported in NetworkStats.
	Slots int
	// MinRegion drops cold runs shorter than this many bytes (below 1
	// means 16) — tiny gaps between gadgets aren't worth a table slot.
	MinRegion int
}

func (n Network) withDefaults() Network {
	if n.Checkers < 1 {
		n.Checkers = 3
	}
	if n.Slots < 1 {
		n.Slots = 16
	}
	if n.MinRegion < 1 {
		n.MinRegion = 16
	}
	return n
}

// NetworkStats reports what a composed checker network covers.
type NetworkStats struct {
	Checkers       int    `json:"checkers"`
	Regions        int    `json:"regions"`
	CoveredBytes   uint32 `json:"covered_bytes"`
	DroppedRegions int    `json:"dropped_regions"`
	DroppedBytes   uint32 `json:"dropped_bytes"`
}

func netTabSym(i int) string  { return fmt.Sprintf("..cs.ntab%d", i) }
func netWantSym(i int) string { return fmt.Sprintf("..cs.nwant%d", i) }
func netCheckerName(i int) string {
	return fmt.Sprintf("..cs.net%d", i)
}

// netStartName wraps the protected entry with the network's checkers.
const netStartName = "..cs.netstart"

// InjectNetwork appends the checker network's functions and table
// globals to m and wraps its entry, BEFORE any layout work: the
// checkers' sizes are fixed (tables are Slots-sized regardless of how
// many intervals install later), so a protection fixpoint over the
// combined module converges exactly as it would without them.
//
// The injected network is installed empty: every table holds zero
// intervals and every expected hash is FNV-1a's basis (the hash of
// nothing), so the module's observable behavior is unchanged until
// InstallNetwork assigns real regions.
func InjectNetwork(m *ir.Module, n Network) error {
	n = n.withDefaults()
	entry := m.Entry
	if entry == "" {
		if len(m.Funcs) == 0 {
			return fmt.Errorf("checksum: inject network: empty module")
		}
		entry = m.Funcs[0].Name
	}
	basis := make([]byte, 4)
	binary.LittleEndian.PutUint32(basis, fnvBasis)
	for i := 0; i < n.Checkers; i++ {
		m.Globals = append(m.Globals,
			// Explicitly zero-initialized (not Size) so the table lands
			// in writable-initialized .data, where InstallNetwork's
			// image.WriteAt can reach it.
			&ir.Global{Name: netTabSym(i), Init: make([]byte, 4+8*n.Slots)},
			&ir.Global{Name: netWantSym(i), Init: append([]byte(nil), basis...)},
		)
		m.Funcs = append(m.Funcs, buildNetChecker(i))
	}
	m.Funcs = append(m.Funcs, buildStartNamed(netStartName, entry, n.Checkers, netCheckerName))
	m.Entry = netStartName
	return ir.Validate(m)
}

// ColdRegions returns the maximal runs of text bytes outside guard,
// longest first (ties by address), dropping runs shorter than minLen.
// guard is the protection's guard set (core.Protected.Guard): chain
// gadget spans and serialized chain data.
func ColdRegions(img *image.Image, guard image.Ranges, minLen int) [][2]uint32 {
	text := img.Text()
	if text == nil {
		return nil
	}
	var out [][2]uint32
	for _, g := range guard.Gaps(text.Addr, text.End()) {
		if int(g.Hi-g.Lo) >= minLen {
			out = append(out, [2]uint32{g.Lo, g.Hi})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		li, lj := out[i][1]-out[i][0], out[j][1]-out[j][0]
		if li != lj {
			return li > lj
		}
		return out[i][0] < out[j][0]
	})
	return out
}

// InstallNetwork assigns regions to the checkers injected by
// InjectNetwork and writes their tables and expected hashes into the
// linked image. Regions are taken longest-first into the
// Checkers*Slots capacity (maximizing covered bytes), each placed on
// the byte-least-loaded checker; what doesn't fit is reported dropped.
// All writes land in .data — the hashed text is never touched, so
// installation is safe after a converged protection fixpoint.
func InstallNetwork(img *image.Image, n Network, regions [][2]uint32) (*NetworkStats, error) {
	n = n.withDefaults()
	stats := &NetworkStats{Checkers: n.Checkers}
	assign := make([][][2]uint32, n.Checkers)
	load := make([]uint64, n.Checkers)
	for _, r := range regions {
		size := r[1] - r[0]
		best := -1
		for c := 0; c < n.Checkers; c++ {
			if len(assign[c]) >= n.Slots {
				continue
			}
			if best < 0 || load[c] < load[best] {
				best = c
			}
		}
		if best < 0 {
			stats.DroppedRegions++
			stats.DroppedBytes += size
			continue
		}
		assign[best] = append(assign[best], r)
		load[best] += uint64(size)
		stats.Regions++
		stats.CoveredBytes += size
	}

	text := img.Text()
	if text == nil {
		return nil, fmt.Errorf("checksum: install network: image has no text section")
	}
	for c := 0; c < n.Checkers; c++ {
		// Hash in address order — deterministic and cache-friendly for
		// the emulated checker walking its table front to back.
		sort.Slice(assign[c], func(i, j int) bool { return assign[c][i][0] < assign[c][j][0] })
		tab := make([]byte, 4+8*n.Slots)
		binary.LittleEndian.PutUint32(tab, uint32(len(assign[c])))
		h := fnvBasis
		for i, r := range assign[c] {
			if r[0] < text.Addr || r[1] > text.End() || r[0] >= r[1] {
				return nil, fmt.Errorf("checksum: install network: region [%#x,%#x) outside text", r[0], r[1])
			}
			binary.LittleEndian.PutUint32(tab[4+8*i:], r[0])
			binary.LittleEndian.PutUint32(tab[8+8*i:], r[1])
			h = hashRegion(h, text.Data[r[0]-text.Addr:r[1]-text.Addr])
		}
		want := make([]byte, 4)
		binary.LittleEndian.PutUint32(want, h)
		for _, w := range []struct {
			sym string
			b   []byte
		}{{netTabSym(c), tab}, {netWantSym(c), want}} {
			sym, err := img.Lookup(w.sym)
			if err != nil {
				return nil, fmt.Errorf("checksum: install network checker %d: %w", c, err)
			}
			if err := img.WriteAt(sym.Addr, w.b); err != nil {
				return nil, err
			}
		}
	}
	return stats, nil
}

// hashRegion folds b into h dword-at-a-time with a byte tail —
// FNV-1a over 32-bit little-endian words rather than bytes. The word
// granularity is what keeps a composed campaign affordable: the
// emulated checker spends ~10 instructions per dword instead of per
// byte, a 4x cut on megabyte cold sections. buildNetChecker emits
// exactly this fold; the two must stay in lockstep.
func hashRegion(h uint32, b []byte) uint32 {
	i := 0
	for ; i+4 <= len(b); i += 4 {
		h = (h ^ binary.LittleEndian.Uint32(b[i:])) * fnvPrime
	}
	for ; i < len(b); i++ {
		h = (h ^ uint32(b[i])) * fnvPrime
	}
	return h
}

// buildNetChecker emits the table-driven checker i: for each of the
// count intervals in its table, hash text[lo,hi) with FNV-1a dword
// loads plus a byte tail (data reads of code — the hashRegion fold),
// chaining one hash across all intervals; exit(TamperStatus) when it
// misses the expected value.
func buildNetChecker(i int) *ir.Func {
	fb := ir.NewFunc(netCheckerName(i), 0)
	tab := fb.Addr(netTabSym(i), 0)
	count := fb.Load(tab)
	want := fb.Load(fb.Addr(netWantSym(i), 0))
	h := fb.Const(fnvBasisI32)
	one := fb.Const(1)
	four := fb.Const(4)
	eight := fb.Const(8)
	prime := fb.Const(int32(fnvPrime))
	j := fb.Const(0)
	fb.Jmp("outer")

	fb.Block("outer")
	c := fb.Cmp(ir.ULt, j, count)
	fb.Br(c, "entry.load", "check")

	fb.Block("entry.load")
	off := fb.Add(four, fb.Mul(j, eight))
	lo := fb.Load(fb.Add(tab, off))
	hi := fb.Load(fb.Add(tab, fb.Add(off, four)))
	p := fb.Copy(lo)
	fb.Jmp("inner")

	fb.Block("inner")
	p4 := fb.Add(p, four)
	ci := fb.Cmp(ir.ULe, p4, hi)
	fb.Br(ci, "inner.word", "tail")

	fb.Block("inner.word")
	w := fb.Load(p)
	fb.Assign(h, fb.Mul(fb.Xor(h, w), prime))
	fb.Assign(p, p4)
	fb.Jmp("inner")

	fb.Block("tail")
	ct := fb.Cmp(ir.ULt, p, hi)
	fb.Br(ct, "tail.body", "outer.next")

	fb.Block("tail.body")
	b := fb.Load8(p)
	fb.Assign(h, fb.Mul(fb.Xor(h, b), prime))
	fb.Assign(p, fb.Add(p, one))
	fb.Jmp("tail")

	fb.Block("outer.next")
	fb.Assign(j, fb.Add(j, one))
	fb.Jmp("outer")

	fb.Block("check")
	ok := fb.Cmp(ir.Eq, h, want)
	fb.Br(ok, "pass", "tamper")

	fb.Block("tamper")
	st := fb.Const(TamperStatus)
	fb.Syscall(1, st) // exit
	fb.RetVoid()      // unreachable

	fb.Block("pass")
	fb.RetVoid()
	return fb.Fn()
}

// buildStartNamed is buildStart with a caller-chosen wrapper name and
// checker-name scheme, shared by the whole-text and network variants.
func buildStartNamed(name, entry string, n int, checker func(int) string) *ir.Func {
	fb := ir.NewFunc(name, 0)
	for i := 0; i < n; i++ {
		fb.Call(checker(i))
	}
	fb.Ret(fb.Call(entry))
	return fb.Fn()
}
