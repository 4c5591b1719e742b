package gadget

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parallax/internal/image"
)

// gadgetRichCode returns n random bytes biased toward returns, pops and
// register ALU opcodes so that most windows hold several gadgets.
func gadgetRichCode(r *rand.Rand, n int) []byte {
	palette := []byte{0xC3, 0xC3, 0xC2, 0xCB, 0x58, 0x59, 0x5B, 0x5D, 0x01, 0x89, 0x8B, 0x31, 0xB8, 0x0F}
	code := make([]byte, n)
	for i := range code {
		if r.Intn(3) == 0 {
			code[i] = byte(r.Intn(256))
		} else {
			code[i] = palette[r.Intn(len(palette))]
		}
	}
	return code
}

// maxLenGadget is a 24-byte gadget (maxBytes long): four
// mov eax,imm32, a shr eax,5 and the return.
var maxLenGadget = []byte{
	0xB8, 0x11, 0x11, 0x11, 0x11, 0xB8, 0x11, 0x11, 0x11, 0x11,
	0xB8, 0x11, 0x11, 0x11, 0x11, 0xB8, 0x11, 0x11, 0x11, 0x11,
	0xC1, 0xE8, 0x05, 0xC3,
}

// boundPlant is planted before edits at the re-sweep's bounds. Its 16
// nops put the next offset on an instruction start whatever precedes
// them. An undecodable daa follows, whose next ten bytes decode as short
// instructions but become the tail of an 11-byte add when the daa is
// changed to 0x81. The plant ends in a 15-byte instruction, fourteen ds
// prefixes and pop eax, on an instruction start at boundLong.
var boundPlant = []byte{
	0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90,
	0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90,
	0x27, 0x84, 0x00, 0x11, 0x11, 0x11, 0x11, 0x22, 0x22, 0x22, 0x22,
	0x3E, 0x3E, 0x3E, 0x3E, 0x3E, 0x3E, 0x3E, 0x3E, 0x3E, 0x3E, 0x3E, 0x3E, 0x3E, 0x3E, 0x58,
}

// Offsets in boundPlant: the daa and the 15-byte instruction.
const (
	boundDaa  = 16
	boundLong = 27
)

// execImage wraps code as an executable section at addr, next to a
// data section the scanner must ignore.
func execImage(addr uint32, code []byte) *image.Image {
	return &image.Image{Sections: []*image.Section{
		{Name: ".text", Addr: addr, Data: code, Size: uint32(len(code)), Perm: image.PermR | image.PermX},
		{Name: ".data", Addr: addr + 0x100000, Data: []byte{0x58, 0xC3}, Size: 2, Perm: image.PermR | image.PermW},
	}}
}

// snapshotCatalog deep-copies a catalog's gadget values and pointers.
func snapshotCatalog(c *Catalog) (ptrs []*Gadget, vals []Gadget) {
	for _, g := range c.Gadgets {
		v := *g
		v.Insts = append(v.Insts[:0:0], g.Insts...)
		ptrs = append(ptrs, g)
		vals = append(vals, v)
	}
	return ptrs, vals
}

// checkRescan holds Rescan(img, prevImg, prev) to a full Scan and
// checks that prev and its gadgets are left untouched. It returns how
// many gadgets were reused with a flipped Aligned bit (cloned).
func checkRescan(t *testing.T, name string, img, prevImg *image.Image, prev *Catalog) int {
	t.Helper()
	ptrs, vals := snapshotCatalog(prev)
	got := Rescan(img, prevImg, prev)
	want := Scan(img)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rescan differs from full scan (%d vs %d gadgets)", name, len(got.Gadgets), len(want.Gadgets))
	}
	p2, v2 := snapshotCatalog(prev)
	if !reflect.DeepEqual(ptrs, p2) || !reflect.DeepEqual(vals, v2) {
		t.Fatalf("%s: rescan mutated the previous catalog", name)
	}
	prevAt := make(map[uint32]*Gadget, len(prev.Gadgets))
	for _, g := range prev.Gadgets {
		prevAt[g.Addr] = g
	}
	flips := 0
	for _, g := range got.Gadgets {
		if pg := prevAt[g.Addr]; pg != nil && pg != g && pg.Aligned != g.Aligned &&
			reflect.DeepEqual(pg.Insts, g.Insts) {
			flips++
		}
	}
	return flips
}

// TestRescanMatchesScan: for random code and seeded edits, the
// incremental rescan against the previous scan yields exactly the
// catalog of a full scan and never mutates the previous catalog.
func TestRescanMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	const addr = 0x401000
	flips := 0
	for round := 0; round < 16; round++ {
		n := 64 + r.Intn(2048)
		code := gadgetRichCode(r, n)
		// Plant a gadget exactly maxBytes long, so the window's far
		// edge holds its return.
		edge := r.Intn(n - maxBytes)
		copy(code[edge:], maxLenGadget)
		prevImg := execImage(addr, code)
		prev := Scan(prevImg)

		edit := func(name string, f func(c []byte)) {
			c := append([]byte(nil), code...)
			f(c)
			flips += checkRescan(t, name, execImage(addr, c), prevImg, prev)
		}
		edit("none", func([]byte) {})
		edit("single", func(c []byte) { c[r.Intn(n)] = byte(r.Intn(256)) })
		edit("singles", func(c []byte) {
			for k := 0; k < 8; k++ {
				c[r.Intn(n)] = byte(r.Intn(256))
			}
		})
		edit("cluster", func(c []byte) {
			lo := r.Intn(n)
			for i := lo; i < min(n, lo+1+r.Intn(3*maxBytes)); i++ {
				c[i] = byte(r.Intn(256))
			}
		})
		edit("edge", func(c []byte) { c[edge+maxBytes-1] = 0x90 })
		edit("head", func(c []byte) {
			for i := 0; i < min(n, maxBytes); i++ {
				c[i] = byte(r.Intn(256))
			}
		})
		edit("tail", func(c []byte) {
			for i := max(0, n-maxBytes); i < n; i++ {
				c[i] = byte(r.Intn(256))
			}
		})
		// A mov-imm32 or two-byte-opcode escape early in the stream
		// shifts the linear sweep, flipping Aligned bits far from the
		// edit while leaving those gadgets' bytes unchanged.
		edit("realign", func(c []byte) {
			for k := 0; k < 3; k++ {
				c[r.Intn(min(n, 64))] = []byte{0xB8, 0x0F, 0x90, 0x66}[r.Intn(4)]
			}
		})

		// Edits that start or stop a re-sweep exactly at its bounds.
		// The instruction at a start s reads at most 15 bytes, so an
		// edit at s+14 must re-decode s and one at s+15 need not.
		bcode := gadgetRichCode(r, n)
		at := r.Intn(n - len(boundPlant) - 17)
		copy(bcode[at:], boundPlant)
		bImg := execImage(addr, bcode)
		bPrev := Scan(bImg)
		long, daa := at+boundLong, at+boundDaa
		bedit := func(name string, f func(c []byte)) {
			c := append([]byte(nil), bcode...)
			f(c)
			checkRescan(t, name, execImage(addr, c), bImg, bPrev)
		}
		for k := 13; k <= 16; k++ {
			bedit(fmt.Sprintf("start+%d", k), func(c []byte) { c[long+k] = byte(r.Intn(256)) })
		}
		// A 15th prefix where pop eax was: the decode at long fails.
		bedit("long-too-long", func(c []byte) { c[long+14] = 0x3E })
		// A ret inside the prefixes: the instruction at long shortens.
		bedit("long-shorter", func(c []byte) { c[long+13] = 0xC3 })
		bedit("undecodable-to-long", func(c []byte) { c[daa] = 0x81 })
		// Two changed runs 14 bytes apart: no resync between them.
		bedit("runs-14-apart", func(c []byte) {
			c[daa], c[daa+1] = 0x81, 0x05
			c[daa+16], c[daa+17] = 0x90, 0x66
		})

		// A section whose shape changed is scanned in full.
		longer := append(append([]byte(nil), code...), gadgetRichCode(r, 1+r.Intn(64))...)
		checkRescan(t, "longer", execImage(addr, longer), prevImg, prev)
		checkRescan(t, "shorter", execImage(addr, code[:n-1-r.Intn(n/2)]), prevImg, prev)
		checkRescan(t, "moved", execImage(addr+0x10, code), prevImg, prev)
	}
	if flips == 0 {
		t.Fatal("no edit flipped a reused gadget's Aligned bit; the realign case is not exercised")
	}

	// With nothing changed, every gadget is shared, not rebuilt.
	code := gadgetRichCode(r, 2048)
	img := execImage(addr, code)
	prev := Scan(img)
	got := Rescan(execImage(addr, append([]byte(nil), code...)), img, prev)
	for i, g := range got.Gadgets {
		if g != prev.Gadgets[i] {
			t.Fatalf("unchanged gadget %v was rebuilt", g)
		}
	}
}
