package campaign

import (
	"fmt"
	"sort"
	"strings"
)

// Class is a mutant outcome.
type Class uint8

// Outcome classes, per the paper's implicit-detection model: a chain
// detection is the protection working (tampering broke a gadget and the
// verification chain malfunctioned), a crash fault is detectable but
// not attributable to the chain, a timeout is a hang killed by the
// watchdog, and a silent success is a mutation the protection missed.
// An infra error is a cell that did not measure the protection at all:
// the harness infrastructure failed (injected or real: an allocation
// failure, a poisoned restore, a worker crash) and the mutant's
// detection outcome is unknown, not bad. Infra cells are excluded from
// detection rates and are re-run on a checkpoint resume.
const (
	ClassChain Class = iota
	ClassCrash
	ClassTimeout
	ClassSilent
	ClassLoaderReject
	ClassInfraError
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassChain:
		return "chain-detected"
	case ClassCrash:
		return "crash-fault"
	case ClassTimeout:
		return "timeout"
	case ClassSilent:
		return "silent"
	case ClassLoaderReject:
		return "loader-reject"
	case ClassInfraError:
		return "infra-error"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Row is one region's line in the detection-coverage matrix.
type Row struct {
	// Region names the symbol (or "(serialized)") the mutants hit.
	Region string
	// Guarded counts mutants at chain-guarded sites in this region.
	Guarded int
	// Total counts all mutants in the region; the class fields
	// partition it.
	Total        int
	Chain        int
	Crash        int
	Timeout      int
	Silent       int
	LoaderReject int
	Infra        int
}

// DetectedRate is the fraction of the region's measured mutants whose
// effect is observable (everything but silent successes). Infra-error
// cells measured nothing, so they are excluded from both sides of the
// ratio rather than counted as detections.
func (r Row) DetectedRate() float64 {
	measured := r.Total - r.Infra
	if measured <= 0 {
		return 0
	}
	return float64(measured-r.Silent) / float64(measured)
}

// Report is a finished campaign's detection-coverage matrix.
type Report struct {
	// Rows is the per-region matrix, sorted by region name.
	Rows []Row
	// Mutants is the total mutant count (sum of row totals).
	Mutants int
	// Panics counts mutant executions that panicked inside the
	// harness; the acceptance bar is zero.
	Panics int
	// GuardedTotal / GuardedChain count mutants at guarded sites and
	// how many of those the chain detected — the paper's coverage
	// claim lives in this ratio.
	GuardedTotal int
	GuardedChain int
	// InfraErrors counts cells lost to harness-infrastructure failures
	// (injected or real); the matrix completes anyway and these cells
	// are re-run on a checkpoint resume.
	InfraErrors int
	// Resumed counts cells restored from a checkpoint journal instead
	// of executed. It is bookkeeping, not an outcome, and is excluded
	// from String() so a resumed matrix renders byte-identical to an
	// uninterrupted one.
	Resumed int
}

// add accumulates one classified mutant.
func (rep *Report) add(rows map[string]*Row, m Mutant, c Class) {
	row := rows[m.Region]
	if row == nil {
		row = &Row{Region: m.Region}
		rows[m.Region] = row
	}
	row.Total++
	rep.Mutants++
	if m.Guarded {
		row.Guarded++
		// Guarded infra cells stay out of the coverage ratio: the cell
		// measured nothing, so it belongs in neither the numerator nor
		// the denominator of the headline claim.
		if c != ClassInfraError {
			rep.GuardedTotal++
			if c == ClassChain {
				rep.GuardedChain++
			}
		}
	}
	switch c {
	case ClassChain:
		row.Chain++
	case ClassCrash:
		row.Crash++
	case ClassTimeout:
		row.Timeout++
	case ClassSilent:
		row.Silent++
	case ClassLoaderReject:
		row.LoaderReject++
	case ClassInfraError:
		row.Infra++
		rep.InfraErrors++
	}
}

// finish sorts the matrix.
func (rep *Report) finish(rows map[string]*Row) {
	rep.Rows = rep.Rows[:0]
	for _, r := range rows {
		rep.Rows = append(rep.Rows, *r)
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Region < rep.Rows[j].Region })
}

// Totals sums the matrix into one row (Region = "total").
func (rep *Report) Totals() Row {
	t := Row{Region: "total"}
	for _, r := range rep.Rows {
		t.Guarded += r.Guarded
		t.Total += r.Total
		t.Chain += r.Chain
		t.Crash += r.Crash
		t.Timeout += r.Timeout
		t.Silent += r.Silent
		t.LoaderReject += r.LoaderReject
		t.Infra += r.Infra
	}
	return t
}

// GuardedChainRate is the fraction of guarded-site mutants detected by
// chain malfunction — the headline coverage number.
func (rep *Report) GuardedChainRate() float64 {
	if rep.GuardedTotal == 0 {
		return 0
	}
	return float64(rep.GuardedChain) / float64(rep.GuardedTotal)
}

// String renders the matrix as an aligned text table.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %7s %7s %7s %7s %7s %7s %7s %7s %9s\n",
		"region", "mutants", "guarded", "chain", "crash", "timeout", "silent", "reject", "infra", "detected")
	line := func(r Row) {
		fmt.Fprintf(&b, "%-28s %7d %7d %7d %7d %7d %7d %7d %7d %8.1f%%\n",
			r.Region, r.Total, r.Guarded, r.Chain, r.Crash, r.Timeout, r.Silent,
			r.LoaderReject, r.Infra, 100*r.DetectedRate())
	}
	for _, r := range rep.Rows {
		line(r)
	}
	line(rep.Totals())
	fmt.Fprintf(&b, "guarded-site chain detection: %d/%d (%.1f%%), harness panics: %d, infra errors: %d\n",
		rep.GuardedChain, rep.GuardedTotal, 100*rep.GuardedChainRate(), rep.Panics, rep.InfraErrors)
	return b.String()
}
