package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryIsDisabled exercises every recording path through a
// nil registry: nothing may panic, Stage must still run its body, and
// the snapshot must be empty.
func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(3)
	r.Counter("c").Inc()
	r.Gauge("g").Add(-2)
	r.Histogram("h").Record(42)
	r.StartSpan("s").End()
	ran := false
	r.Stage("s", func() { ran = true })
	if !ran {
		t.Fatal("Stage on nil registry did not run its body")
	}
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 {
		t.Error("nil handles reported non-zero values")
	}
	rep := r.Snapshot()
	if len(rep.Counters)+len(rep.Gauges)+len(rep.Histograms)+len(rep.Stages) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", rep)
	}
}

// TestCountersAndGaugesConcurrent hammers one counter and one gauge
// from many goroutines and checks the totals.
func TestCountersAndGaugesConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs")
	g := r.Gauge("depth")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(2)
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 2*workers*per {
		t.Errorf("counter = %d, want %d", got, 2*workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if r.Counter("jobs") != c {
		t.Error("Counter not idempotent per name")
	}
}

// TestHistogram checks bucket placement, min/max tracking and the
// snapshot arithmetic.
func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != 1010 {
		t.Errorf("count/sum = %d/%d, want 6/1010", s.Count, s.Sum)
	}
	if s.Min != 0 || s.Max != 1000 {
		t.Errorf("min/max = %d/%d, want 0/1000", s.Min, s.Max)
	}
	if got := s.Mean(); got < 168 || got > 169 {
		t.Errorf("mean = %v", got)
	}
	// Buckets: v=0 -> le 0; v=1 -> le 1; v=2,3 -> le 3; v=4 -> le 7;
	// v=1000 -> le 1023.
	want := map[uint64]uint64{0: 1, 1: 1, 3: 2, 7: 1, 1023: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want bounds %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
}

func TestHistogramMinUnset(t *testing.T) {
	var h Histogram
	h.Record(5)
	if s := h.Snapshot(); s.Min != 5 || s.Max != 5 {
		t.Errorf("single-sample min/max = %d/%d, want 5/5", s.Min, s.Max)
	}
}

func TestCaptureSinkPrefix(t *testing.T) {
	s := &CaptureSink{Max: 2}
	for i := 1; i <= 4; i++ {
		s.Emit(Event{Icount: uint64(i)})
	}
	if s.Total != 4 || len(s.Events) != 2 || s.Events[1].Icount != 2 {
		t.Errorf("capture = total %d events %+v", s.Total, s.Events)
	}
}

func TestFilterSink(t *testing.T) {
	cap := &CaptureSink{}
	f := &FilterSink{Keep: func(e Event) bool { return e.Kind == EventRet }, Next: cap}
	f.Emit(Event{Kind: EventInst})
	f.Emit(Event{Kind: EventRet, To: 0x10})
	if len(cap.Events) != 1 || cap.Events[0].To != 0x10 {
		t.Errorf("filter passed %+v", cap.Events)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: EventRet, Icount: 7, PC: 0x8048000, To: 0x8048010}
	if got := e.String(); got != "ret  icount=7 pc=08048000 to=08048010" {
		t.Errorf("Event.String() = %q", got)
	}
}

// TestSpansAndStages records spans both ways and checks the exported
// stage accounting.
func TestSpansAndStages(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("scan")
	time.Sleep(time.Millisecond)
	sp.End()
	r.Stage("scan", func() { time.Sleep(time.Millisecond) })
	rep := r.Snapshot()
	st, ok := rep.Stages["scan"]
	if !ok || st.Count != 2 {
		t.Fatalf("stage scan = %+v, want count 2", st)
	}
	if st.Total() < 2*time.Millisecond {
		t.Errorf("stage total %v too small", st.Total())
	}
	if st.Mean() < time.Millisecond {
		t.Errorf("stage mean %v too small", st.Mean())
	}
}

// TestReportExport snapshots a populated registry and checks both the
// JSON and table forms.
func TestReportExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("emu.insts").Add(123)
	r.Gauge("farm.queue_depth").Add(4)
	r.Histogram("farm.job_latency_ns").Record(1 << 20)
	r.Stage("layout", func() {})
	rep := r.Snapshot()
	rep.Derive("farm.scan_cache.hit_rate", 0.75)

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Counters["emu.insts"] != 123 || back.Gauges["farm.queue_depth"] != 4 {
		t.Errorf("JSON round-trip lost values: %+v", back)
	}
	if back.Derived["farm.scan_cache.hit_rate"] != 0.75 {
		t.Errorf("derived lost: %+v", back.Derived)
	}
	if back.Histograms["farm.job_latency_ns"].Count != 1 {
		t.Errorf("histogram lost: %+v", back.Histograms)
	}

	table := rep.String()
	for _, want := range []string{"emu.insts", "farm.queue_depth", "farm.job_latency_ns",
		"layout", "farm.scan_cache.hit_rate"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// BenchmarkDisabledCounter measures the disabled (nil-handle) hot
// path: the tentpole's acceptance bar is that it is a nil check.
func BenchmarkDisabledCounter(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkEnabledCounter measures the enabled hot path for contrast.
func BenchmarkEnabledCounter(b *testing.B) {
	c := NewRegistry().Counter("c")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
