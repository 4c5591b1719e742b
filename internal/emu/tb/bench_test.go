package tb_test

import (
	"errors"
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/corpus"
	"parallax/internal/emu"
	"parallax/internal/emu/tb"
)

// BenchmarkEngines compares the interpreter and the translation-block
// engine over real corpus programs. Run with
//
//	go test -bench BenchmarkEngines -benchtime 1x ./internal/emu/tb
//
// and compare the insts/s metric between /interp and /tb variants; the
// experiment driver (parallax-bench -experiment difftest) records the
// same ratio machine-readably in BENCH_tb.json.
func BenchmarkEngines(b *testing.B) {
	const maxInst = 20_000_000
	for _, name := range []string{"wget", "bzip2", "lame"} {
		p, err := corpus.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		img, err := codegen.Build(p.Build())
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, useTB bool) {
			var insts uint64
			for b.Loop() {
				c, err := emu.LoadImage(img)
				if err != nil {
					b.Fatal(err)
				}
				c.OS = emu.NewOS(p.Stdin)
				c.MaxInst = maxInst
				if useTB {
					e := tb.New(c, nil)
					err = e.Run()
					e.Close()
				} else {
					err = c.Run()
				}
				if err != nil && !errors.Is(err, emu.ErrInstLimit) {
					b.Fatal(err)
				}
				insts += c.Icount
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
		}
		b.Run(name+"/interp", func(b *testing.B) { run(b, false) })
		b.Run(name+"/tb", func(b *testing.B) { run(b, true) })
	}
}
