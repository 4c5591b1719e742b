package core_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
)

const autoSelectGolden = "testdata/autoselect.golden"

// TestAutoSelectGolden pins the §VII-B auto-selection: for the six
// corpus programs and generated tiny seeds 1-2, the function
// SelectVerificationFunc picks and the profile it picks from
// (instruction total, exit status, and each function's call sites,
// dynamic calls, body instructions and op diversity) are compared with
// the checked-in golden (-update rewrites it). A program where no
// function qualifies pins the selection error instead.
func TestAutoSelectGolden(t *testing.T) {
	progs := corpus.All()
	fam, err := gen.FamilyByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []uint64{1, 2} {
		p, err := gen.FamilyProgram(fam, s)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	var got strings.Builder
	for _, p := range progs {
		m := p.Build()
		sel, err := core.SelectVerificationFunc(m, p.Stdin)
		if err != nil {
			sel = "error(" + err.Error() + ")"
		}
		rep, err := core.ProfileModule(m, p.Stdin)
		if err != nil {
			t.Fatalf("%s: profile: %v", p.Name, err)
		}
		fmt.Fprintf(&got, "%s selected=%s insts=%d status=%d\n", p.Name, sel, rep.TotalInsts, rep.Status)
		names := make([]string, 0, len(rep.Funcs))
		for n := range rep.Funcs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			f := rep.Funcs[n]
			body := uint64(f.InstShare*float64(rep.TotalInsts) + 0.5)
			fmt.Fprintf(&got, "  %s sites=%d calls=%d body=%d ops=%d chainable=%t\n",
				n, f.StaticCallSites, f.DynamicCalls, body, f.OpDiversity, f.Chainable)
		}
	}
	if *update {
		if err := os.WriteFile(autoSelectGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(autoSelectGolden)
	if err != nil {
		t.Fatalf("reading golden (record it with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("auto-selection changed:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
