package core_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/dyngen"
	"parallax/internal/image"
)

var update = flag.Bool("update", false, "rewrite the protected-image digest golden")

const digestGolden = "testdata/protect_digest.golden"

// digestCase is one pinned protect job.
type digestCase struct {
	name string
	prog corpus.Program
	opts core.Options
}

// digestCases spans every baseline path of Protect: the static default
// (the baseline shares the protected build's compile) at
// ComposeChecksum 0 and 4, one dynamic-chain job and one
// chain-checksum job.
func digestCases(t *testing.T) []digestCase {
	t.Helper()
	progs := corpus.All()
	for _, fs := range []struct {
		fam   string
		seeds []uint64
	}{{"tiny", []uint64{1, 2, 3, 4}}, {"callheavy", []uint64{1}}} {
		fam, err := gen.FamilyByName(fs.fam)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range fs.seeds {
			p, err := gen.FamilyProgram(fam, s)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, p)
		}
	}
	var cases []digestCase
	for _, p := range progs {
		for _, k := range []int{0, 4} {
			cases = append(cases, digestCase{
				name: fmt.Sprintf("%s/checksum=%d", p.Name, k),
				prog: p,
				opts: core.Options{VerifyFuncs: []string{p.VerifyFunc}, ComposeChecksum: k},
			})
		}
	}
	wget, err := corpus.ByName("wget")
	if err != nil {
		t.Fatal(err)
	}
	verify := []string{wget.VerifyFunc}
	return append(cases,
		digestCase{"wget/xor", wget, core.Options{VerifyFuncs: verify, ChainMode: dyngen.ModeXor, Seed: 7}},
		digestCase{"wget/cschk", wget, core.Options{VerifyFuncs: verify, ChecksumChains: true}},
	)
}

func imageBytes(t *testing.T, img *image.Image) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := img.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestProtectDigestGolden pins the output bytes of core.Protect: each
// case's protected image and baseline are hashed and compared with the
// checked-in golden (-update rewrites it). A mismatch means a change
// altered what Protect emits. Every case also checks that the baseline
// is exactly codegen.Build of the source module, whichever path
// produced it.
func TestProtectDigestGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range digestCases(t) {
		p, err := core.Protect(c.prog.Build(), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := codegen.Build(c.prog.Build())
		if err != nil {
			t.Fatalf("%s: baseline build: %v", c.name, err)
		}
		base := imageBytes(t, p.Baseline)
		if !bytes.Equal(base, imageBytes(t, want)) {
			t.Errorf("%s: Protected.Baseline differs from codegen.Build", c.name)
		}
		fmt.Fprintf(&got, "%s image=%x baseline=%x\n",
			c.name, sha256.Sum256(imageBytes(t, p.Image)), sha256.Sum256(base))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("reading golden (record it with -update): %v", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
