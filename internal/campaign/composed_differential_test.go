package campaign

import (
	"testing"
	"time"

	"parallax/internal/core"
	"parallax/internal/corpus/gen"
)

// TestDifferentialEnginesComposed is the path gate for §VI-C
// composition under a workload: a generated program protected with
// both a verification chain and the composed checksum network, swept
// under the heavy workload (cold code and the network's checkers both
// execute), must classify every mutant on the production path, with
// private per-worker caches and with the campaign's shared catalog,
// exactly as on the reference path. This is the acceptance gate that
// the cold-coverage experiment's matrices do not depend on the path,
// checked at the classification level where a single diverging mutant
// is attributable.
func TestDifferentialEnginesComposed(t *testing.T) {
	fam, err := gen.FamilyByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := gen.FamilyProgram(fam, 3)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := core.Protect(prog.Build(), core.Options{
		VerifyFuncs:     []string{prog.VerifyFunc},
		ComposeChecksum: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Checksum == nil {
		t.Fatal("composition did not install a checksum network")
	}
	heavy, ok := prog.Workload("heavy")
	if !ok {
		t.Fatal("generated program has no heavy workload")
	}

	cfg := Config{
		Workers:    4,
		Stride:     3,
		MaxMutants: 300,
		MaxInst:    8_000_000,
		Timeout:    60 * time.Second,
		Stdin:      heavy,
	}
	mutants, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}

	legs := assertMatchesReference(t, prot, mutants, cfg, privateCatalog, sharedCatalog)
	if legs[1].counters["emu.tb.catalog_hits"] == 0 {
		t.Error("shared-catalog composed campaign recorded no catalog hits")
	}

	// A vector of all-identical-but-empty classifications would also
	// pass the identity check; require the sweep to have detected
	// something at all before trusting it as a path gate.
	chains := 0
	for _, c := range legs[1].classes {
		if c == ClassChain {
			chains++
		}
	}
	if chains == 0 {
		t.Error("composed sweep under heavy workload detected no chain class at all")
	}
}
