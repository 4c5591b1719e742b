package tb_test

// Fallback-rate regression: the fraction of executed instructions that
// compile to the interpreter fallback, weighted by execution count,
// over the hand-written corpus and generated families. The specialized
// micro-op set holds this at ~0.01% corpus-wide (see EXPERIMENTS.md);
// the budget fails the test if a decoder or compiler change quietly
// demotes a hot instruction back to the fallback path.

import (
	"fmt"
	"sort"
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/emu"
	"parallax/internal/emu/tb"
	"parallax/internal/image"
)

// fallbackBudget is the corpus-wide executed-instruction fallback-rate
// ceiling, in percent. Measured: 0.01% after micro-op specialization
// (was 3.77% before); 1% leaves headroom for corpus drift without
// letting a hot opcode regress unnoticed.
const fallbackBudget = 1.0

func measureImage(t *testing.T, name string, img *image.Image, stdin []byte, agg map[string]uint64, aggAll *[2]uint64) {
	c, err := emu.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	c.OS = emu.NewOS(stdin)
	c.MaxInst = 3_000_000
	c.EnableProfile()
	e := tb.New(c, nil)
	_ = e.Run()
	e.Close()
	total, fb := uint64(0), uint64(0)
	for addr, n := range c.Profile() {
		total += n
		inst, err := c.DecodeAt(addr)
		if err != nil {
			continue
		}
		if tb.CompiledKind(addr, &inst) == "fallback" {
			fb += n
			key := fmt.Sprintf("%v w=%d dst=%v src=%v", inst.Op, inst.W, inst.Dst.Kind, inst.Src.Kind)
			agg[key] += n
		}
	}
	aggAll[0] += total
	aggAll[1] += fb
	t.Logf("%-24s insts=%10d fallback=%10d (%.2f%%)", name, total, fb, 100*float64(fb)/float64(total))
}

func TestFallbackRateBudget(t *testing.T) {
	agg := map[string]uint64{}
	var all [2]uint64
	for _, p := range corpus.All() {
		img, err := codegen.Build(p.Build())
		if err != nil {
			t.Fatal(err)
		}
		measureImage(t, p.Name, img, p.Stdin, agg, &all)
	}
	for _, fam := range gen.Families() {
		prog, err := gen.FamilyProgram(fam, 7)
		if err != nil {
			t.Fatal(err)
		}
		img, err := codegen.Build(prog.Build())
		if err != nil {
			t.Fatal(err)
		}
		measureImage(t, "gen/"+fam.Name, img, prog.Stdin, agg, &all)
	}
	rate := 100 * float64(all[1]) / float64(all[0])
	t.Logf("TOTAL insts=%d fallback=%d (%.2f%%)", all[0], all[1], rate)
	if rate <= fallbackBudget {
		return
	}
	// Over budget: name the offenders before failing.
	type kv struct {
		k string
		v uint64
	}
	var list []kv
	for k, v := range agg {
		list = append(list, kv{k, v})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].v > list[j].v })
	for i, e := range list {
		if i >= 15 {
			break
		}
		t.Logf("%12d  %s", e.v, e.k)
	}
	t.Fatalf("corpus-wide fallback rate %.3f%% exceeds the %.2f%% budget", rate, fallbackBudget)
}
