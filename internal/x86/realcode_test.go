package x86_test

import (
	"bytes"
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/corpus"
	"parallax/internal/x86"
)

// TestReencodeRealBinaries re-encodes every instruction of every
// corpus binary in place and requires byte-identical output: the
// encoder is the exact inverse of the decoder on real compiler output,
// which is what makes lifting and relinking loss-free.
func TestReencodeRealBinaries(t *testing.T) {
	for _, p := range corpus.All() {
		t.Run(p.Name, func(t *testing.T) {
			img, err := codegen.Build(p.Build())
			if err != nil {
				t.Fatal(err)
			}
			text := img.Text()
			addr := text.Addr
			checked := 0
			for int(addr-text.Addr) < len(text.Data) {
				off := addr - text.Addr
				inst, err := x86.Decode(text.Data[off:], addr)
				if err != nil {
					addr++ // padding or data byte
					continue
				}
				enc, err := x86.Encode(inst, addr)
				if err != nil {
					t.Fatalf("%#x: cannot re-encode %v: %v", addr, inst, err)
				}
				if !bytes.Equal(enc, text.Data[off:off+uint32(inst.Len)]) {
					t.Fatalf("%#x: %v re-encodes to % x, want % x",
						addr, inst, enc, text.Data[off:off+uint32(inst.Len)])
				}
				checked++
				addr += uint32(inst.Len)
			}
			if checked < 100 {
				t.Fatalf("only %d instructions checked", checked)
			}
		})
	}
}
