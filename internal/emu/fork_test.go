package emu

import "testing"

// TestResumeStdinShort: a kernel cannot resume past the end of its
// stdin, and a resume leaves the offset where the recorded run had it.
func TestResumeStdinShort(t *testing.T) {
	os := NewOS([]byte("ab"))
	if err := os.Resume(KernelState{StdinOff: 3}); err == nil {
		t.Error("resume past the end of stdin succeeded")
	}
	os = NewOS([]byte("abcd"))
	if err := os.Resume(KernelState{StdinOff: 3, Stdout: []byte("x"), RandState: 7, Traced: true}); err != nil {
		t.Fatal(err)
	}
	if os.stdinOff != 3 || os.Stdout.String() != "x" || os.RandState != 7 || !os.traced {
		t.Errorf("resumed kernel: off %d stdout %q rand %d traced %t", os.stdinOff, os.Stdout.String(), os.RandState, os.traced)
	}
	rest := make([]byte, 4)
	if n, _ := os.Stdin.Read(rest); n != 1 || rest[0] != 'd' {
		t.Errorf("stdin after resume reads %q, want %q", rest[:n], "d")
	}
}
