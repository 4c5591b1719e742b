// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed measuring time, checks that the system's
// outputs are correct, and prints every metric by name and unit; its
// last stdout line is a JSON object
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload protect-batch --seed 1 --seconds 60 --trace 0
//
// The benchmark drives the system only through its public entry points
// (farm.Submit/Wait, core.Protect via the farm, campaign.Enumerate/Run,
// attack.RunWith, emu.LoadImageWith, CPU.Snapshot/Restore/Patch,
// tb.NewWithCatalog) and reads only the obs registries those entry
// points already accept. Spans are recorded here, around those calls.
//
// Workloads (the seed draws every input; the program sees only them):
//
//   - protect-batch: a closed loop of nproc clients pushes a seeded draw
//     of modules spanning three size decades (16 KiB mix families,
//     64 KiB callheavy, 160 KiB small, one 1.6 MiB medium, and the six
//     hand-written programs) through one farm. Every module is
//     submitted twice, the second copy in the second half of the
//     stream, so first copies bypass the farm's scan cache and layout
//     hints while second copies use them. Loads farm and the core
//     stages (scan is most of a cold job); bypasses campaign, emu, tb.
//   - campaign-cold: the production campaign configuration (tb engine,
//     snapshot/restore, shared catalog, Workers = nproc) on generated
//     images (small, callheavy) under the heavy stdin profile: ~1M
//     instructions per mutant over 64–160 KiB of text, so enumerate,
//     snapshot/restore, the serial-mutant loader path and
//     translate-or-adopt carry a share beside tb execution. Protect
//     runs only in set-up.
//
// With --trace 0 the run reports the end-to-end metrics with tracing
// off. With --trace 1 it makes a separate traced run that reports the
// per-layer metrics (see BENCHMARK.json for the list) and writes its
// spans to .bench_build/trace-<workload>-s<seed>.jsonl.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header identifies a run: it is printed before the result line so a
// saved log carries the host and build it was measured on.
type header struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Date       string `json:"date"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workers int
}

// outcome is what a workload reports back.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// problems lists every failed correctness check; any entry makes
	// the run incorrect.
	problems []string
	// spans is the traced run's span log (trace mode only).
	spans []span
	// notes are printed before the metrics, for a reader of the log.
	notes []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"protect-batch": runProtectBatch,
	"campaign-cold": func(rc runConfig) (*outcome, error) {
		spec, err := coldSpec(rc.seed)
		if err != nil {
			return nil, err
		}
		return runCampaign(context.Background(), rc, spec)
	},
}

func main() {
	name := flag.String("workload", "", "workload: protect-batch or campaign-cold")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 60, "measuring time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage error: --workload must be one of %s, --seconds ≥ 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rc := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
	}
	hdr := header{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: cpuModel(), Date: time.Now().UTC().Format(time.RFC3339),
	}
	hb, _ := json.Marshal(hdr) // plain struct: cannot fail
	fmt.Printf("header %s\n", hb)

	out, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !rc.trace {
		out.set("peak_rss_mb", peakRSSMB(), "MB")
	} else {
		path, err := writeSpans(*name, *seed, out.spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", len(out.spans), path)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := out.metrics[k]
		fmt.Printf("  %-28s %16.6g %s\n", k, m.Value, m.Unit)
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	rb, err := json.Marshal(res)
	if err != nil {
		// A NaN or Inf metric is a benchmark bug, not a result.
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", rb)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var ns []string
	for k := range workloads {
		ns = append(ns, k)
	}
	sort.Strings(ns)
	return ns
}

// commit is the measured source revision: PERFBENCH_COMMIT, which
// run.sh sets from git when the checkout is a repository, else
// "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
