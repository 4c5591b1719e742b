package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans stay in memory until the
// run ends. Run groups the spans of one request: a protect job or a
// mutant execution (0 for work done once per campaign).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: no parent
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer started
	End    time.Duration `json:"end_ns"`
}

// tracer records spans from any goroutine.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	runs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newRun returns a fresh request id for Run.
func (t *tracer) newRun() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, run int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: now})
	return id
}

// end closes the span begin returned and returns it.
func (t *tracer) end(id int) span {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1]
}

// add records an already finished interval, such as a stage total a
// per-job obs registry reported for a job span.
func (t *tracer) add(name string, parent, run int, start, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: start, End: end})
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations lists the durations of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTime sums, over every span with the given name, its duration
// minus the part of its interval its child spans cover.
func selfTime(spans []span, name string) time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total time.Duration
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		total += s.End - s.Start - covered
	}
	return total
}

// writeSpans writes the span log as JSON lines under .bench_build and
// returns its path.
func writeSpans(workload string, seed uint64, spans []span) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-s%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
