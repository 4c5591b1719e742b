package farm

import (
	"fmt"
	"time"

	"parallax/internal/obs"
)

// farmMetrics holds the farm's handles into its obs.Registry, the
// farm's single accounting path: each job event is one atomic update
// here, and Stats reads the same handles back.
type farmMetrics struct {
	submitted *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	panics    *obs.Counter

	scanHits   *obs.Counter
	scanMisses *obs.Counter
	scanNs     *obs.Counter

	queueDepth *obs.Gauge

	queueWaitNs  *obs.Histogram
	jobRuntimeNs *obs.Histogram
}

// newFarmMetrics resolves the handle set in a non-nil registry.
func newFarmMetrics(r *obs.Registry) farmMetrics {
	return farmMetrics{
		submitted:    r.Counter("farm.jobs_submitted"),
		completed:    r.Counter("farm.jobs_completed"),
		failed:       r.Counter("farm.jobs_failed"),
		cancelled:    r.Counter("farm.jobs_cancelled"),
		panics:       r.Counter("farm.panics"),
		scanHits:     r.Counter("farm.scan_cache_hits"),
		scanMisses:   r.Counter("farm.scan_cache_misses"),
		scanNs:       r.Counter("farm.scan_ns"),
		queueDepth:   r.Gauge("farm.queue_depth"),
		queueWaitNs:  r.Histogram("farm.queue_wait_ns"),
		jobRuntimeNs: r.Histogram("farm.job_runtime_ns"),
	}
}

// Stats is a point-in-time snapshot of a farm's counters.
type Stats struct {
	// Job lifecycle counts.
	JobsSubmitted uint64
	JobsCompleted uint64
	JobsFailed    uint64
	JobsCancelled uint64
	// Panics counts pipeline panics converted to job errors (a subset
	// of JobsFailed).
	Panics uint64

	// ScanHits/ScanMisses count content-addressed gadget-scan cache
	// lookups; a miss is a scan actually run.
	ScanHits   uint64
	ScanMisses uint64

	// QueueDepth is the number of jobs accepted but not yet running.
	QueueDepth int

	// Per-stage time, summed across workers.
	QueueWait   time.Duration // submit → worker pickup
	ScanTime    time.Duration // inside gadget.Scan (cache misses only)
	ProtectTime time.Duration // inside core.Protect, scans included
}

// Stats returns a snapshot of the farm's registry metrics that is safe
// to take while jobs are active: every field is one atomic load, so no
// value is ever torn. The snapshot is per-field consistent, not
// globally linearized — a job finishing mid-snapshot can appear in
// JobsCompleted before JobsSubmitted reflects a concurrent submit.
// Callers needing cross-field invariants should quiesce the farm first
// (Close, or wait on all jobs).
func (f *Farm) Stats() Stats {
	m := &f.om
	return Stats{
		JobsSubmitted: m.submitted.Value(),
		JobsCompleted: m.completed.Value(),
		JobsFailed:    m.failed.Value(),
		JobsCancelled: m.cancelled.Value(),
		Panics:        m.panics.Value(),
		ScanHits:      m.scanHits.Value(),
		ScanMisses:    m.scanMisses.Value(),
		QueueDepth:    int(m.queueDepth.Value()),
		QueueWait:     time.Duration(m.queueWaitNs.Sum()),
		ScanTime:      time.Duration(m.scanNs.Value()),
		ProtectTime:   time.Duration(m.jobRuntimeNs.Sum()),
	}
}

// ScanHitRate returns the scan-cache hit fraction in [0,1], or 0 when
// no lookups happened.
func (s Stats) ScanHitRate() float64 {
	total := s.ScanHits + s.ScanMisses
	if total == 0 {
		return 0
	}
	return float64(s.ScanHits) / float64(total)
}

// String renders the snapshot as a compact single-line summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"jobs: %d submitted, %d completed, %d failed, %d cancelled (%d panics), queue %d | "+
			"scan cache: %d hits / %d misses (%.1f%%) | "+
			"time: queue %v, scan %v, protect %v",
		s.JobsSubmitted, s.JobsCompleted, s.JobsFailed, s.JobsCancelled, s.Panics,
		s.QueueDepth,
		s.ScanHits, s.ScanMisses, 100*s.ScanHitRate(),
		s.QueueWait.Round(time.Microsecond), s.ScanTime.Round(time.Microsecond),
		s.ProtectTime.Round(time.Microsecond))
}

// Delta returns s minus earlier, for per-round reporting on a
// long-lived farm. QueueDepth is taken from s as-is.
func (s Stats) Delta(earlier Stats) Stats {
	return Stats{
		JobsSubmitted: s.JobsSubmitted - earlier.JobsSubmitted,
		JobsCompleted: s.JobsCompleted - earlier.JobsCompleted,
		JobsFailed:    s.JobsFailed - earlier.JobsFailed,
		JobsCancelled: s.JobsCancelled - earlier.JobsCancelled,
		Panics:        s.Panics - earlier.Panics,
		ScanHits:      s.ScanHits - earlier.ScanHits,
		ScanMisses:    s.ScanMisses - earlier.ScanMisses,
		QueueDepth:    s.QueueDepth,
		QueueWait:     s.QueueWait - earlier.QueueWait,
		ScanTime:      s.ScanTime - earlier.ScanTime,
		ProtectTime:   s.ProtectTime - earlier.ProtectTime,
	}
}
