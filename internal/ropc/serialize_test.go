package ropc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"parallax/internal/gadget"
	"parallax/internal/x86"
)

// TestChainBytesEdgeCases pins the serialized chain format at its
// boundaries: the chain words become exactly 4-byte little-endian
// values, gadget words serialize their gadget's address (never the
// stale Value field), and the degenerate empty chain is a well-formed
// zero-length serialization. dyngen's installers and decoders consume
// this format verbatim, so any drift here corrupts installed binaries.
func TestChainBytesEdgeCases(t *testing.T) {
	g1 := &gadget.Gadget{Addr: 0x08048010, Len: 2}
	g2 := &gadget.Gadget{Addr: 0xFFFFFFFC, Len: 1} // top-of-address-space gadget
	cases := []struct {
		name  string
		words []Word
		want  []uint32
	}{
		{name: "empty", words: nil, want: nil},
		{
			name:  "single gadget",
			words: []Word{{Kind: WGadget, Gadget: g1, Value: 0xDEAD}}, // Value must be ignored
			want:  []uint32{0x08048010},
		},
		{
			name: "const zero and max",
			words: []Word{
				{Kind: WConst, Value: 0},
				{Kind: WConst, Value: 0xFFFFFFFF},
			},
			want: []uint32{0, 0xFFFFFFFF},
		},
		{
			name: "mixed kinds in order",
			words: []Word{
				{Kind: WGadget, Gadget: g2},
				{Kind: WJunk, Value: 0x4A4A4A4A},
				{Kind: WConst, Value: 7},
				{Kind: WExitPtr, Value: 0}, // loader patches this slot at run time
			},
			want: []uint32{0xFFFFFFFC, 0x4A4A4A4A, 7, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Chain{FuncName: "f", Words: tc.words}
			if got, want := c.ByteLen(), 4*len(tc.words); got != want {
				t.Errorf("ByteLen = %d, want %d", got, want)
			}
			b := c.Bytes()
			if len(b) != 4*len(tc.want) {
				t.Fatalf("Bytes length %d, want %d", len(b), 4*len(tc.want))
			}
			for i, want := range tc.want {
				if got := binary.LittleEndian.Uint32(b[4*i:]); got != want {
					t.Errorf("word %d = %#x, want %#x", i, got, want)
				}
			}
		})
	}
}

// TestChainBytesStable checks serialization is a pure function: two
// materializations of one chain are identical and do not alias.
func TestChainBytesStable(t *testing.T) {
	c := &Chain{Words: []Word{
		{Kind: WGadget, Gadget: &gadget.Gadget{Addr: 0x08048000}},
		{Kind: WConst, Value: 42},
	}}
	a, b := c.Bytes(), c.Bytes()
	if !bytes.Equal(a, b) {
		t.Fatalf("serialization not stable: % x vs % x", a, b)
	}
	a[0] ^= 0xFF
	if bytes.Equal(a, c.Bytes()) {
		t.Error("Bytes aliases an internal buffer")
	}
}

// TestGadgetAddrsDedup checks the implicitly-verified gadget set
// (Chain.Gadgets) deduplicates repeated gadget addresses but keeps
// first-use order.
func TestGadgetAddrsDedup(t *testing.T) {
	g1 := &gadget.Gadget{Addr: 0x10}
	g2 := &gadget.Gadget{Addr: 0x20}
	c := &Chain{Words: []Word{
		{Kind: WGadget, Gadget: g2},
		{Kind: WGadget, Gadget: g1},
		{Kind: WConst, Value: 0x30}, // consts never contribute addresses
		{Kind: WGadget, Gadget: g2},
	}}
	if gs := c.Gadgets(); len(gs) != 2 || gs[0] != g2 || gs[1] != g1 {
		t.Errorf("Gadgets dedup wrong: %v", gs)
	}
}

// TestSpecString covers the Spec debug rendering used in
// MissingGadgetError messages.
func TestSpecString(t *testing.T) {
	s := Spec{Kind: gadget.KindMovReg, Dst: x86.EAX, Src: x86.EBX}
	if got := s.String(); got == "" {
		t.Fatal("empty Spec string")
	}
	e := &MissingGadgetError{Spec: s}
	if e.Error() == "" {
		t.Fatal("empty MissingGadgetError message")
	}
}
