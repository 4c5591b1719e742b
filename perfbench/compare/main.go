// Command compare reads two result sets of the benchmark and prints,
// for every (workload, metric), each side's median and quartiles, the
// fraction of alternating pairs the new side won, and a verdict.
//
// A result set is the saved stdout of benchmark runs, one or many runs
// per file: each run prints a "header {…}" line and, last, its JSON
// result line. Pair i is the i-th run of the workload on each side, so
// run the two sides alternately. Usage, from the repository root:
//
//	(cd perfbench && go run ./compare ../base.log ../new.log)
//
// Verdicts, for end-to-end metrics (per-layer metrics have no bound and
// get none):
//
//   - better: the new side won at least nine tenths of the pairs and
//     the medians differ by more than the base side's quartile spread;
//   - unresolved: otherwise, when the base side's spread (interquartile
//     range over median) is wider than the metric's bound;
//   - worse: the new median is worse than the base median by more than
//     the bound (a share of the base median);
//   - within bound: everything else.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmark struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// series maps workload → metric → values in run order.
type series map[string]map[string][]float64

func main() {
	benchPath := flag.String("bench", "../BENCHMARK.json", "the benchmark definition (metric directions and bounds)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] base.log new.log")
		os.Exit(2)
	}
	var bench benchmark
	raw, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(raw, &bench)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: reading %s: %v\n", *benchPath, err)
		os.Exit(1)
	}
	specs := map[string]metricSpec{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		specs[m.Name] = m
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(1)
	}
	next, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-14s %-26s %-35s %-35s %6s  %s\n", "workload", "metric",
		"base median [q1, q3]", "new median [q1, q3]", "won", "verdict")
	for _, w := range sortedKeys(base) {
		for _, m := range sortedKeys(base[w]) {
			b, n := base[w][m], next[w][m]
			spec, ok := specs[m]
			if !ok || len(b) < 2 || len(n) < 2 {
				continue
			}
			won, verdict := judge(b, n, spec)
			fmt.Printf("%-14s %-26s %-35s %-35s %5.0f%%  %s\n", w, m, summary(b), summary(n), 100*won, verdict)
		}
	}
}

// load reads one result set, skipping runs whose checks failed.
func load(path string) (series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := series{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "header "):
			var h struct {
				Workload string `json:"workload"`
			}
			if err := json.Unmarshal([]byte(line[len("header "):]), &h); err != nil {
				return nil, fmt.Errorf("%s: bad header: %w", path, err)
			}
			workload = h.Workload
		case strings.HasPrefix(line, `{"correct"`):
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("%s: bad result: %w", path, err)
			}
			if !r.Correct || workload == "" {
				fmt.Fprintf(os.Stderr, "compare: %s: skipping a run of %q that failed its checks\n", path, workload)
				continue
			}
			if out[workload] == nil {
				out[workload] = map[string][]float64{}
			}
			for k, v := range r.Metrics {
				out[workload][k] = append(out[workload][k], v.Value)
			}
		}
	}
	return out, sc.Err()
}

// judge returns the fraction of pairs the new side won and the verdict.
func judge(base, next []float64, spec metricSpec) (float64, string) {
	// worse(a, b) reports how much worse b is than a, as a share of a.
	worse := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		if spec.Better == "higher" {
			return (a - b) / a
		}
		return (b - a) / a
	}
	pairs := min(len(base), len(next))
	wins := 0
	for i := 0; i < pairs; i++ {
		if worse(base[i], next[i]) < 0 {
			wins++
		}
	}
	won := float64(wins) / float64(pairs)
	if spec.Bound == nil {
		return won, "-"
	}
	bm, nm := median(base), median(next)
	q1, q3 := quartiles(base)
	spread := 0.0
	if bm != 0 {
		spread = (q3 - q1) / bm
	}
	switch {
	case won >= 0.9 && worse(bm, nm) < 0 && abs(nm-bm) > q3-q1:
		return won, "better"
	case spread > *spec.Bound:
		return won, "unresolved"
	case worse(bm, nm) > *spec.Bound:
		return won, "worse"
	}
	return won, "within bound"
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
