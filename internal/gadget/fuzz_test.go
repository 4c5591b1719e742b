package gadget

import (
	"reflect"
	"testing"
)

// FuzzScan feeds arbitrary bytes to the scanner: no panics, and every
// reported gadget must lie inside the buffer with a sane length.
func FuzzScan(f *testing.F) {
	f.Add([]byte{0x58, 0xC3, 0x01, 0xD8, 0xC3})
	f.Add([]byte{0xB8, 0x58, 0xC3, 0x00, 0x00, 0xC3})
	f.Fuzz(func(t *testing.T, code []byte) {
		const base = 0x1000
		for _, g := range ScanBytes(code, base) {
			lo, hi := g.Range()
			if lo < base || hi > base+uint32(len(code)) || g.Len <= 0 {
				t.Fatalf("gadget out of bounds: %v over %d bytes", g, len(code))
			}
			if g.Kind != KindOther && len(g.Insts) == 0 {
				t.Fatalf("typed gadget without instructions: %v", g)
			}
		}
	})
}

// FuzzScanNaive holds the decode-once scanner to the naive per-offset
// oracle on arbitrary code.
func FuzzScanNaive(f *testing.F) {
	f.Add([]byte{0x58, 0xC3, 0x01, 0xD8, 0xC3})
	f.Add([]byte{0xB8, 0x58, 0xCB, 0x00, 0x00, 0xCB})
	f.Fuzz(func(t *testing.T, code []byte) {
		const base = 0x1000
		got, want := ScanBytes(code, base), naiveScan(code, base)
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("scan differs from the naive scan (%d vs %d gadgets)", len(got), len(want))
		}
	})
}

// FuzzRescan applies an edit list to arbitrary code — each three bytes
// are a little-endian offset and a new value — and holds the
// incremental rescan against the original scan to a full scan.
func FuzzRescan(f *testing.F) {
	f.Add([]byte{0x58, 0xC3, 0x01, 0xD8, 0xC3}, []byte{0, 0, 0xB8})
	f.Add([]byte{0xB8, 0x58, 0xC3, 0x00, 0x00, 0xC3, 0x5B, 0xC3}, []byte{5, 0, 0x90, 0, 0, 0x0F})
	// Edits at the re-sweep's restart and resync bounds (see
	// boundPlant): 13 to 16 bytes after the 15-byte instruction's
	// start, inside it, at the undecodable daa, and two runs 14 bytes
	// apart.
	plant := append(append([]byte(nil), boundPlant...), 0x58, 0xC3, 0x01, 0xD8, 0xC3, 0x5B, 0xC3, 0x31, 0xC0, 0xC3, 0x59, 0xC3, 0x90, 0x90, 0x90, 0x90, 0xC3)
	for k := byte(13); k <= 16; k++ {
		// mov r32,r/m32: its ModRM and displacement push the
		// instruction at boundLong past 15 bytes.
		f.Add(plant, []byte{boundLong + k, 0, 0x8B})
	}
	f.Add(plant, []byte{boundLong + 14, 0, 0x3E})
	f.Add(plant, []byte{boundLong + 13, 0, 0xC3})
	f.Add(plant, []byte{boundDaa, 0, 0x81})
	f.Add(plant, []byte{boundDaa, 0, 0x81, boundDaa + 1, 0, 0x05, boundDaa + 16, 0, 0x90, boundDaa + 17, 0, 0x66})
	f.Fuzz(func(t *testing.T, code, edits []byte) {
		if len(code) == 0 {
			return
		}
		const addr = 0x1000
		prevImg := execImage(addr, code)
		prev := Scan(prevImg)
		c := append([]byte(nil), code...)
		for ; len(edits) >= 3; edits = edits[3:] {
			c[(int(edits[0])|int(edits[1])<<8)%len(c)] = edits[2]
		}
		checkRescan(t, "fuzz", execImage(addr, c), prevImg, prev)
	})
}
