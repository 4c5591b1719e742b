package x86

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the decoder with arbitrary bytes; it must never
// panic, never report a non-positive length, and every successful
// decode must re-encode (the gadget scanner runs this code on every
// byte offset of every binary). The scanner's error-free entry,
// TryDecode, must agree with Decode on every input.
//
// For instructions inside the emitted subset — those Encode accepts —
// AppendEncode onto the fuzz input must equal the input followed by
// Encode's bytes, and the property is canonical idempotence: re-decoding the encoder's
// bytes must succeed and re-encode to the identical byte string. The
// original fuzz input is allowed to be a non-canonical spelling (x86
// has redundant encodings), but the encoder's own output must be a
// fixpoint of decode∘encode, or byte-exact tooling (the rewriter, the
// chain installer) would corrupt code it round-trips.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0x55, 0x89, 0xE5, 0xC3}, uint32(0x8048000))
	f.Add([]byte{0x0F, 0xAF, 0xC3, 0xC3}, uint32(0))
	f.Add([]byte{0x66, 0x81, 0xC3, 0x34, 0x12}, uint32(4096))
	f.Fuzz(func(t *testing.T, b []byte, addr uint32) {
		inst, err := Decode(b, addr)
		if tried, ok := TryDecode(b, addr); ok != (err == nil) || tried != inst {
			t.Fatalf("TryDecode(% x) = %v, %v; Decode = %v, %v", b, tried, ok, inst, err)
		}
		if err != nil {
			return
		}
		if inst.Len <= 0 || inst.Len > 15 || inst.Len > len(b) {
			t.Fatalf("bad length %d for % x", inst.Len, b)
		}
		enc, err := Encode(inst, addr)
		if err != nil {
			// Outside the emitted subset (decode-only form); no
			// round-trip obligation.
			return
		}
		if app, err := AppendEncode(bytes.Clone(b), inst, addr); err != nil ||
			!bytes.Equal(app, append(bytes.Clone(b), enc...)) {
			t.Fatalf("AppendEncode(% x, %v) = % x, %v; want input ++ % x", b, inst, app, err, enc)
		}
		if len(enc) > 15 {
			t.Fatalf("encoded length %d > 15 for %v (from % x)", len(enc), inst, b)
		}
		inst2, err := Decode(enc, addr)
		if err != nil {
			t.Fatalf("decode(encode(%v)) failed on % x: %v", inst, enc, err)
		}
		if inst2.Len != len(enc) {
			t.Fatalf("decode(encode(%v)) consumed %d of %d bytes % x",
				inst, inst2.Len, len(enc), enc)
		}
		enc2, err := Encode(inst2, addr)
		if err != nil {
			t.Fatalf("re-encode of %v (canonical form of %v) failed: %v", inst2, inst, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoder not a fixpoint: % x -> %v -> % x -> %v -> % x",
				b, inst, enc, inst2, enc2)
		}
	})
}
