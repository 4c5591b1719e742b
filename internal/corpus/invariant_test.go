// External test package: the shared region-map invariant checker lives
// in corpus/gen (which imports corpus), so running it over the
// hand-written six needs the _test package to avoid an import cycle.
package corpus_test

import (
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
)

// TestCorpusInvariants runs the shared invariant checker over every
// hand-written corpus program, raw and protected — the six builders
// previously had no direct assertions on guarded-site counts, section
// ordering, or relocation resolution.
func TestCorpusInvariants(t *testing.T) {
	for _, prog := range corpus.All() {
		prog := prog
		t.Run(prog.Name, func(t *testing.T) {
			m := prog.Build()
			img, err := codegen.Build(m)
			if err != nil {
				t.Fatalf("codegen: %v", err)
			}
			if err := gen.CheckImage(img); err != nil {
				t.Errorf("CheckImage: %v", err)
			}
			prot, err := core.Protect(m, core.Options{VerifyFuncs: []string{prog.VerifyFunc}})
			if err != nil {
				t.Fatalf("protect: %v", err)
			}
			if err := gen.CheckProtected(prot); err != nil {
				t.Errorf("CheckProtected: %v", err)
			}
		})
	}
}
