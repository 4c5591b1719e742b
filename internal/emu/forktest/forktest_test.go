package forktest

import (
	"encoding/binary"
	"testing"

	"parallax/internal/emu"
	"parallax/internal/image"
)

// TestProgramsExit runs each image on the interpreter: it must exit
// cleanly with the output its doc comment promises.
func TestProgramsExit(t *testing.T) {
	first, loop := uint32(0x04332211), uint32(0x08070605) // Probe's data words
	probeSum := first + 1500*loop
	out := make([]byte, 4)
	binary.LittleEndian.PutUint32(out, probeSum)
	// A self-modifying loop of n passes adds 500 first, then the
	// counter it stored on the previous pass: n, n-1, ..., 2.
	smc := func(n int32) int32 { return 500 + n*(n+1)/2 - 1 }
	for _, tc := range []struct {
		name   string
		img    *image.Image
		stdin  string
		stdout string
		status int32
	}{
		{"phased", Phased(), Stdin, Stdin, 4 * smc(600)},
		{"split", Split(), Stdin, Stdin, smc(SplitLoops)},
		{"probe", Probe(), "", string(out), int32(probeSum)},
	} {
		c, err := emu.LoadImage(tc.img)
		if err != nil {
			t.Fatal(err)
		}
		os := emu.NewOS([]byte(tc.stdin))
		c.OS = os
		if err := c.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := os.Stdout.String(); got != tc.stdout || c.Status != tc.status {
			t.Errorf("%s: stdout %q status %d, want %q and %d", tc.name, got, c.Status, tc.stdout, tc.status)
		}
	}
}
