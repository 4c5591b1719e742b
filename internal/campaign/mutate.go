package campaign

import (
	"bytes"
	"fmt"

	"parallax/internal/chain"
	"parallax/internal/core"
	"parallax/internal/emu"
	"parallax/internal/image"
)

// Kind is a tamper-mutation flavor.
type Kind uint8

// Mutation kinds. The first three patch the in-memory image the way a
// cracker's byte patch would; KindSerial corrupts the serialized form
// before loading, exercising the hardened deserializer.
const (
	// KindBitFlip flips a single bit.
	KindBitFlip Kind = iota
	// KindByteSet overwrites one byte with 0xCC (int3 — a debugger
	// breakpoint, the densest realistic patch).
	KindByteSet
	// KindNopSweep overwrites a 4-byte window with NOPs (the classic
	// "nop out the check" crack).
	KindNopSweep
	// KindSerial corrupts the serialized image: bit flips, truncations
	// and magic damage applied to the WriteTo byte stream.
	KindSerial
)

func (k Kind) String() string {
	switch k {
	case KindBitFlip:
		return "bitflip"
	case KindByteSet:
		return "byteset"
	case KindNopSweep:
		return "nopsweep"
	case KindSerial:
		return "serial"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// AllKinds is every mutation kind, in enumeration order.
func AllKinds() []Kind {
	return []Kind{KindBitFlip, KindByteSet, KindNopSweep, KindSerial}
}

// Mutant is one enumerated tamper mutation.
type Mutant struct {
	Kind Kind
	// Region names the enclosing symbol (or section) of the mutation
	// site; "(serialized)" for KindSerial.
	Region string
	// Guarded reports whether any mutated byte is covered by a
	// chain-used gadget or parallax chain data — tampering there should
	// derail verification.
	Guarded bool
	// Addr is the mutation site; for KindSerial it is the byte offset
	// into the serialized stream (or the truncation length).
	Addr uint32
	// Len is how many bytes the mutation touches.
	Len int
	// Bit selects the flipped bit for KindBitFlip.
	Bit uint8
	// Truncate marks a KindSerial mutant that cuts the stream at Addr
	// instead of flipping a bit.
	Truncate bool
}

func (m Mutant) String() string {
	if m.Kind == KindSerial {
		if m.Truncate {
			return fmt.Sprintf("serial:truncate@%d", m.Addr)
		}
		return fmt.Sprintf("serial:flip@%d.%d", m.Addr, m.Bit)
	}
	return fmt.Sprintf("%s@%#x(%s)", m.Kind, m.Addr, m.Region)
}

// apply patches an image clone in place. KindSerial mutants never
// reach here — they are applied to the byte stream by corruptSerial.
func (m Mutant) apply(img *image.Image) error {
	switch m.Kind {
	case KindBitFlip:
		raw, err := img.ReadAt(m.Addr, 1)
		if err != nil {
			return err
		}
		return img.WriteAt(m.Addr, []byte{raw[0] ^ (1 << m.Bit)})
	case KindByteSet:
		return img.WriteAt(m.Addr, []byte{0xCC})
	case KindNopSweep:
		b := make([]byte, m.Len)
		for i := range b {
			b[i] = 0x90
		}
		return img.WriteAt(m.Addr, b)
	}
	return fmt.Errorf("campaign: cannot apply %v in memory", m.Kind)
}

// applyVM patches one mutant into a live emulator that has been
// rewound to the base image, mirroring apply()'s semantics exactly.
// Patch bytes are validated against the base image's initialized-data
// bounds first — the emulator maps sections at their full Size
// (including BSS), so without the check a mutant the clone path's
// WriteAt rejects would silently succeed here and the two paths would
// classify it differently.
func (m Mutant) applyVM(base *image.Image, c *emu.CPU) error {
	var patch []byte
	switch m.Kind {
	case KindBitFlip:
		raw, err := base.ReadAt(m.Addr, 1)
		if err != nil {
			return err
		}
		patch = []byte{raw[0] ^ (1 << m.Bit)}
	case KindByteSet:
		patch = []byte{0xCC}
	case KindNopSweep:
		patch = make([]byte, m.Len)
		for i := range patch {
			patch[i] = 0x90
		}
	default:
		return fmt.Errorf("campaign: cannot apply %v in memory", m.Kind)
	}
	if err := writableAt(base, m.Addr, uint32(len(patch))); err != nil {
		return err
	}
	return c.Patch(m.Addr, patch)
}

// writableAt reproduces image.WriteAt's bounds check without writing:
// the span must fall within a single section's initialized data.
func writableAt(img *image.Image, addr, n uint32) error {
	s := img.SectionAt(addr)
	if s == nil {
		return fmt.Errorf("campaign: patch at %#x outside any section", addr)
	}
	if off := addr - s.Addr; off+n > uint32(len(s.Data)) {
		return fmt.Errorf("campaign: patch [%#x,%#x) past initialized data of %s",
			addr, addr+n, s.Name)
	}
	return nil
}

// corruptSerial returns a corrupted copy of the serialized stream.
func (m Mutant) corruptSerial(stream []byte) []byte {
	if m.Truncate {
		n := int(m.Addr)
		if n > len(stream) {
			n = len(stream)
		}
		return append([]byte(nil), stream[:n]...)
	}
	out := append([]byte(nil), stream...)
	if int(m.Addr) < len(out) {
		out[m.Addr] ^= 1 << m.Bit
	}
	return out
}

// regionOf names the symbol (preferred) or section containing addr.
func regionOf(img *image.Image, addr uint32) string {
	if s, ok := img.SymbolAt(addr); ok {
		return s.Name
	}
	if s := img.SectionAt(addr); s != nil {
		return s.Name
	}
	return "(unmapped)"
}

// Enumerate generates the campaign's mutant set for a protected image:
// every enabled in-memory kind swept across the executable text and the
// parallax data blocks at cfg.Stride, plus serialized-form corruption.
// The enumeration is deterministic: same image, same config, same list.
func Enumerate(prot *core.Protected, cfg Config) ([]Mutant, error) {
	cfg = cfg.withDefaults()
	enabled := make(map[Kind]bool, len(cfg.Kinds))
	for _, k := range cfg.Kinds {
		enabled[k] = true
	}
	guard := prot.Guard()
	img := prot.Image
	var out []Mutant

	// In-memory sweeps over initialized bytes of executable sections.
	for _, sec := range img.Sections {
		if sec.Perm&image.PermX == 0 {
			continue
		}
		for off := uint32(0); off < uint32(len(sec.Data)); off += uint32(cfg.Stride) {
			addr := sec.Addr + off
			region := regionOf(img, addr)
			if enabled[KindBitFlip] {
				out = append(out, Mutant{Kind: KindBitFlip, Region: region, Addr: addr,
					Len: 1, Bit: uint8(off % 8), Guarded: guard.Contains(addr)})
			}
			if enabled[KindByteSet] {
				out = append(out, Mutant{Kind: KindByteSet, Region: region, Addr: addr,
					Len: 1, Guarded: guard.Contains(addr)})
			}
			if enabled[KindNopSweep] {
				n := 4
				if rem := int(uint32(len(sec.Data)) - off); rem < n {
					n = rem
				}
				out = append(out, Mutant{Kind: KindNopSweep, Region: region, Addr: addr,
					Len: n, Guarded: guard.Overlaps(addr, uint32(n))})
			}
		}
	}

	// Parallax data blocks (chain words, frames, tables): bit flips and
	// byte sets only — NOPs are meaningless in data.
	for _, sym := range img.Symbols {
		if !chain.Owns(sym.Name) || sym.Kind != image.SymObject {
			continue
		}
		sec := img.SectionAt(sym.Addr)
		if sec == nil {
			continue
		}
		for off := uint32(0); off < sym.Size; off += uint32(cfg.Stride) {
			addr := sym.Addr + off
			// Only initialized bytes can be patched via WriteAt.
			if addr-sec.Addr >= uint32(len(sec.Data)) {
				break
			}
			if enabled[KindBitFlip] {
				out = append(out, Mutant{Kind: KindBitFlip, Region: sym.Name, Addr: addr,
					Len: 1, Bit: uint8(off % 8), Guarded: true})
			}
			if enabled[KindByteSet] {
				out = append(out, Mutant{Kind: KindByteSet, Region: sym.Name, Addr: addr,
					Len: 1, Guarded: true})
			}
		}
	}

	// Serialized-form corruption: bit flips across the stream plus
	// truncations and magic damage.
	if enabled[KindSerial] {
		var buf bytes.Buffer
		if _, err := img.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("campaign: serializing image: %w", err)
		}
		stream := buf.Bytes()
		// ~64 evenly spaced flip sites keep serial mutants a bounded
		// slice of the campaign regardless of image size.
		step := len(stream) / 64
		if step < 1 {
			step = 1
		}
		for off := 0; off < len(stream); off += step {
			out = append(out, Mutant{Kind: KindSerial, Region: serialRegion,
				Addr: uint32(off), Len: 1, Bit: uint8(off % 8)})
		}
		for _, frac := range []int{4, 2} {
			out = append(out, Mutant{Kind: KindSerial, Region: serialRegion,
				Addr: uint32(len(stream) / frac), Truncate: true})
		}
		// Magic damage: flip a bit in each header byte.
		for off := 0; off < 4 && off < len(stream); off++ {
			out = append(out, Mutant{Kind: KindSerial, Region: serialRegion,
				Addr: uint32(off), Len: 1, Bit: 7})
		}
	}

	// Cap the campaign deterministically: keep every k-th mutant.
	if cfg.MaxMutants > 0 && len(out) > cfg.MaxMutants {
		k := (len(out) + cfg.MaxMutants - 1) / cfg.MaxMutants
		kept := out[:0]
		for i := 0; i < len(out); i += k {
			kept = append(kept, out[i])
		}
		out = kept
	}
	return out, nil
}

// serialRegion is the report region for serialized-form mutants.
const serialRegion = "(serialized)"
