package rewrite

import (
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/corpus"
	"parallax/internal/gadget"
	"parallax/internal/image"
)

// TestLiftRelinkPreservesBehaviour lifts every corpus binary back to a
// relocatable object, relinks it, and requires identical behaviour —
// the binary-level round trip of the paper's claim 5.
func TestLiftRelinkPreservesBehaviour(t *testing.T) {
	for _, p := range corpus.All() {
		t.Run(p.Name, func(t *testing.T) {
			img, err := codegen.Build(p.Build())
			if err != nil {
				t.Fatal(err)
			}
			obj, err := Lift(img)
			if err != nil {
				t.Fatal(err)
			}
			relinked, err := image.Link(obj)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := runStatus(t, relinked), runStatus(t, img); got != want {
				t.Fatalf("relinked status %d != original %d", got, want)
			}
		})
	}
}

// TestLiftThenRewrite is the legacy-binary protection path: no source,
// no IR — lift the binary, apply the §IV-B2 splitting rule, relink,
// and the behaviour is preserved while the gadget inventory grows.
func TestLiftThenRewrite(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	img, err := codegen.Build(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	want := runStatus(t, img)
	before := len(gadget.Scan(img).Gadgets)

	obj, err := Lift(img)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SplitImmediates(obj, nil)
	if err != nil {
		t.Fatal(err)
	}
	protected, err := image.Link(obj)
	if err != nil {
		t.Fatal(err)
	}
	if got := runStatus(t, protected); got != want {
		t.Fatalf("legacy-rewritten status %d != original %d", got, want)
	}
	after := len(gadget.Scan(protected).Gadgets)
	if after <= before {
		t.Errorf("gadgets %d -> %d; rewriting the lifted binary crafted nothing", before, after)
	}
	t.Logf("lifted gzip: %d split sites, gadgets %d -> %d", res.Sites, before, after)
}

// TestLiftRelinkTextIdentical checks the stronger property on a
// representative binary: with the same layout, relinked text bytes are
// identical (encodings are canonical both ways).
func TestLiftRelinkTextIdentical(t *testing.T) {
	p, err := corpus.ByName("lame")
	if err != nil {
		t.Fatal(err)
	}
	img, err := codegen.Build(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	obj, err := Lift(img)
	if err != nil {
		t.Fatal(err)
	}
	relinked, err := image.Link(obj)
	if err != nil {
		t.Fatal(err)
	}
	a := img.Text().Data
	b := relinked.Text().Data
	if len(a) != len(b) {
		t.Fatalf("text sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("text differs at offset %#x: %02x vs %02x", i, a[i], b[i])
		}
	}
}
