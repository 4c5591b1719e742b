package experiment

import (
	"errors"
	"fmt"
	"time"

	"parallax/internal/codegen"
	"parallax/internal/corpus"
	"parallax/internal/difftest"
	"parallax/internal/emu"
	"parallax/internal/emu/tb"
	"parallax/internal/image"
)

// DifftestRow reports the differential oracle's cost on one corpus
// program: how fast each engine retires instructions solo, the
// combined lockstep rate, and the divergence count (always zero on a
// healthy tree — ci.sh gates on it).
type DifftestRow struct {
	Program     string
	Insts       uint64  // instructions compared in lockstep
	FastIPS     float64 // production interpreter, solo run
	RefIPS      float64 // reference interpreter, solo run
	TBIPS       float64 // translation-block engine, solo run
	LockstepIPS float64 // all three engines plus state comparison
	Divergences int
}

// TBSpeedup is the row's headline ratio: translation-block engine
// over production interpreter.
func (r DifftestRow) TBSpeedup() float64 {
	if r.FastIPS == 0 {
		return 0
	}
	return r.TBIPS / r.FastIPS
}

// Difftest measures all three execution engines over the named corpus
// programs (empty means all six) and runs the three-way lockstep
// oracle over the same instruction window. maxInst bounds each run;
// 0 means 2M. Wall-clock rates vary by host, so like the farm
// experiment this is excluded from -experiment all and the reference
// output; the divergence count is the deterministic part.
func Difftest(progs []string, maxInst uint64) ([]DifftestRow, error) {
	if maxInst == 0 {
		maxInst = 2_000_000
	}
	ps := corpus.All()
	if len(progs) > 0 {
		ps = ps[:0]
		for _, name := range progs {
			p, err := corpus.ByName(name)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
	}
	var rows []DifftestRow
	for _, p := range ps {
		img, err := codegen.Build(p.Build())
		if err != nil {
			return nil, fmt.Errorf("difftest experiment: building %s: %w", p.Name, err)
		}

		fastInsts, fastSec, err := runFast(img, p.Stdin, maxInst)
		if err != nil {
			return nil, fmt.Errorf("difftest experiment: %s (fast): %w", p.Name, err)
		}
		refInsts, refSec, err := runRef(img, p.Stdin, maxInst)
		if err != nil {
			return nil, fmt.Errorf("difftest experiment: %s (ref): %w", p.Name, err)
		}
		tbInsts, tbSec, err := runTB(img, p.Stdin, maxInst)
		if err != nil {
			return nil, fmt.Errorf("difftest experiment: %s (tb): %w", p.Name, err)
		}
		if fastInsts != refInsts || fastInsts != tbInsts {
			return nil, fmt.Errorf("difftest experiment: %s: engines retired %d vs %d vs %d insts",
				p.Name, fastInsts, refInsts, tbInsts)
		}

		start := time.Now()
		res, err := difftest.Run(img, difftest.Options{MaxInst: maxInst, Stdin: p.Stdin, TB: true})
		if err != nil {
			return nil, fmt.Errorf("difftest experiment: %s (lockstep): %w", p.Name, err)
		}
		lockSec := time.Since(start).Seconds()

		row := DifftestRow{
			Program:     p.Name,
			Insts:       res.Insts,
			FastIPS:     float64(fastInsts) / fastSec,
			RefIPS:      float64(refInsts) / refSec,
			TBIPS:       float64(tbInsts) / tbSec,
			LockstepIPS: float64(res.Insts) / lockSec,
		}
		if res.Div != nil {
			row.Divergences = 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runFast executes img on the production engine alone and times it.
func runFast(img *image.Image, stdin []byte, maxInst uint64) (uint64, float64, error) {
	cpu, err := emu.LoadImage(img)
	if err != nil {
		return 0, 0, err
	}
	cpu.OS = emu.NewOS(stdin)
	cpu.MaxInst = maxInst
	start := time.Now()
	err = cpu.Run()
	sec := time.Since(start).Seconds()
	if err != nil && !errors.Is(err, emu.ErrInstLimit) {
		return 0, 0, err
	}
	return cpu.Icount, sec, nil
}

// runTB executes img on the translation-block engine alone and times
// it (including translation, which is part of the engine's real cost).
func runTB(img *image.Image, stdin []byte, maxInst uint64) (uint64, float64, error) {
	cpu, err := emu.LoadImage(img)
	if err != nil {
		return 0, 0, err
	}
	cpu.OS = emu.NewOS(stdin)
	cpu.MaxInst = maxInst
	eng := tb.New(cpu, nil)
	defer eng.Close()
	start := time.Now()
	err = eng.Run()
	sec := time.Since(start).Seconds()
	if err != nil && !errors.Is(err, emu.ErrInstLimit) {
		return 0, 0, err
	}
	return cpu.Icount, sec, nil
}

// runRef executes img on the reference interpreter alone and times it.
func runRef(img *image.Image, stdin []byte, maxInst uint64) (uint64, float64, error) {
	ref, err := difftest.NewRef(img, emu.LoadConfig{})
	if err != nil {
		return 0, 0, err
	}
	ref.OS = emu.NewOS(stdin)
	start := time.Now()
	for !ref.Exited && ref.Icount < maxInst {
		if err := ref.Step(); err != nil {
			return 0, 0, err
		}
	}
	return ref.Icount, time.Since(start).Seconds(), nil
}
