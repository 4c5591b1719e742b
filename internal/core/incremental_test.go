package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/gadget"
	"parallax/internal/image"
)

// TestProtectIncrementalScanIdentical: the default scanner rescans
// only what changed between fixpoint passes. Protecting with it and
// with a scanner that always scans in full must give byte-identical
// images and equal catalogs.
func TestProtectIncrementalScanIdentical(t *testing.T) {
	progs := corpus.All()
	for _, fs := range []struct {
		fam   string
		seeds []uint64
	}{{"tiny", []uint64{1, 2}}, {"small", []uint64{1}}, {"callheavy", []uint64{1}}} {
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
	rescans := 0
	fullScan := func(img, prevImg *image.Image, _ *gadget.Catalog) *gadget.Catalog {
		if prevImg != nil {
			rescans++
		}
		return gadget.Scan(img)
	}
	for _, p := range progs {
		for _, k := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/checksum=%d", p.Name, k), func(t *testing.T) {
				opts := core.Options{VerifyFuncs: []string{p.VerifyFunc}, ComposeChecksum: k}
				inc, err := core.Protect(p.Build(), opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.ScanFunc = fullScan
				full, err := core.Protect(p.Build(), opts)
				if err != nil {
					t.Fatal(err)
				}
				var a, b bytes.Buffer
				if _, err := inc.Image.WriteTo(&a); err != nil {
					t.Fatal(err)
				}
				if _, err := full.Image.WriteTo(&b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Error("incremental scan changed the protected image")
				}
				if !reflect.DeepEqual(inc.Catalog, full.Catalog) {
					t.Error("incremental scan changed the final catalog")
				}
			})
		}
	}
	if rescans == 0 {
		t.Fatal("no protect ran a second fixpoint pass; nothing was rescanned")
	}
}
