// Package farm is the concurrent batch-protection service: it runs
// many core.Protect jobs over a bounded worker pool and memoizes the
// expensive pure stages (gadget scan + classification, fixpoint layout
// sizes) in a content-addressed cache shared by all jobs.
//
// The acceptance bar is determinism: a job's output image is
// byte-identical to a sequential core.Protect of the same module and
// options, regardless of worker count, submission order, or cache
// state. That holds because every cached stage is a pure function of
// its content key — a catalog is keyed by the exact executable bytes
// it was scanned from, and layout hints are keyed by the full job
// content and merely let the (still verified) fixpoint converge in one
// pass.
//
// Cancellation is cooperative at job granularity: a cancelled context
// fails jobs still in the queue promptly, but a job already inside
// core.Protect runs to completion (the pipeline is not preemptible).
// A panic inside a pipeline stage is confined to the job: the worker
// survives and the job reports a *PanicError.
package farm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"parallax/internal/chaos"
	"parallax/internal/core"
	"parallax/internal/ir"
	"parallax/internal/obs"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("farm: closed")

// PanicError wraps a panic recovered from a protection pipeline stage.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline panic: %v", e.Value)
}

// Unwrap exposes the panic value when it is itself an error, so
// errors.Is/As reach through a confined panic — e.g. chaos.IsInjected
// distinguishes an injected worker panic from a genuine pipeline bug.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// Config sizes a Farm.
type Config struct {
	// Workers is the worker-goroutine count; values below 1 mean
	// runtime.GOMAXPROCS(0).
	Workers int
	// Queue bounds the number of accepted-but-not-running jobs; a full
	// queue makes Submit block (backpressure). Values below 1 mean
	// 2×Workers.
	Queue int
	// Cache is the stage cache to use; nil means a fresh private one.
	// Sharing a warm Cache across farms is safe and useful.
	Cache *Cache
	// JobTimeout is a deadline measured from submission: a job still
	// queued when it expires fails with an error wrapping
	// context.DeadlineExceeded. A job already inside core.Protect runs
	// to completion. Zero means no deadline beyond the caller's context.
	JobTimeout time.Duration
	// Obs is the registry the farm records its activity into (farm.*
	// counters, queue-depth gauge, latency histograms), so one report
	// can merge farm, emulator and pipeline-stage views. It is the
	// farm's only accounting: Stats reads it back. Nil means a private
	// registry. Farms sharing one registry share their farm.* totals.
	Obs *obs.Registry
	// Chaos, when non-nil, arms the farm's fault-injection points:
	// chaos.PointFarmWorkerPanic (a pipeline stage panics),
	// chaos.PointFarmCacheRead (a stage-cache read is corrupted and
	// recomputed) and chaos.PointFarmQueueStall (a submission stalls).
	// Nil — the production default — makes every point a nil check.
	Chaos *chaos.Injector
}

// Farm is a worker pool executing protection jobs. Create with New,
// feed with Submit, stop with Close.
type Farm struct {
	cache      *Cache
	om         farmMetrics
	jobs       chan *Job
	wg         sync.WaitGroup
	jobTimeout time.Duration
	chaos      *chaos.Injector

	// Deterministic-test seams; production values are realSleep and
	// (*Farm).protect.
	sleep     func(context.Context, time.Duration) error
	protectFn func(*Job) (*core.Protected, error)

	closeMu sync.RWMutex
	closed  bool
}

// New starts a farm. The returned farm accepts jobs until Close.
func New(cfg Config) *Farm {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue < 1 {
		cfg.Queue = 2 * cfg.Workers
	}
	if cfg.Cache == nil {
		cfg.Cache = NewCache()
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	f := &Farm{
		cache:      cfg.Cache,
		om:         newFarmMetrics(cfg.Obs),
		jobs:       make(chan *Job, cfg.Queue),
		jobTimeout: cfg.JobTimeout,
		chaos:      cfg.Chaos,
		sleep:      realSleep,
	}
	f.protectFn = f.protect
	f.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go f.worker()
	}
	return f
}

// Cache returns the farm's stage cache (to share with another farm).
func (f *Farm) Cache() *Cache { return f.cache }

// Close stops accepting jobs, waits for queued and running jobs to
// finish, and stops the workers. It is idempotent and safe to call
// concurrently with Submit (late submits fail with ErrClosed).
func (f *Farm) Close() {
	f.closeMu.Lock()
	if !f.closed {
		f.closed = true
		close(f.jobs)
	}
	f.closeMu.Unlock()
	f.wg.Wait()
}

// Job states (atomic).
const (
	stateQueued int32 = iota
	stateRunning
	stateDone
)

// Job is the future returned by Submit.
type Job struct {
	// Name labels the job in errors and reports.
	Name string

	ctx       context.Context
	cancel    context.CancelFunc // releases the JobTimeout deadline, if any
	module    *ir.Module
	opts      core.Options
	submitted time.Time
	state     int32
	done      chan struct{}
	res       Result
}

// finish marks the job done and releases its deadline resources.
func (j *Job) finish() {
	close(j.done)
	if j.cancel != nil {
		j.cancel()
	}
}

// Result is the outcome of a finished job.
type Result struct {
	// Name echoes the job label.
	Name string
	// Protected is the protection output; nil when Err is set.
	Protected *core.Protected
	// Err is the job failure, wrapped with the job name. Invalid
	// options, pipeline errors, cancellation and recovered panics all
	// land here; the worker itself never dies.
	Err error

	// QueueWait is the submit→start latency; Runtime the pipeline time.
	QueueWait time.Duration
	Runtime   time.Duration

	// ScanHits/ScanMisses count this job's gadget-scan cache lookups.
	ScanHits   uint64
	ScanMisses uint64
	// HintUsed reports whether cached fixpoint sizes seeded this job.
	HintUsed bool
}

// Wait blocks until the job finishes or ctx expires. The error return
// concerns the wait itself; a job failure is reported in Result.Err.
func (j *Job) Wait(ctx context.Context) (Result, error) {
	select {
	case <-j.done:
		return j.res, nil
	case <-ctx.Done():
		return Result{Name: j.Name}, fmt.Errorf("farm: waiting for job %q: %w", j.Name, ctx.Err())
	}
}

// Submit enqueues a protection job and returns its future. It blocks
// when the queue is full and fails if ctx is cancelled while blocked
// or the farm is closed. The job observes ctx too: cancellation fails
// it promptly while queued (a job already running completes).
func (f *Farm) Submit(ctx context.Context, name string, m *ir.Module, opts core.Options) (*Job, error) {
	if m == nil {
		return nil, fmt.Errorf("farm: job %q: nil module", name)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	j := &Job{
		Name:      name,
		ctx:       ctx,
		module:    m,
		opts:      opts,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if f.jobTimeout > 0 {
		// The deadline runs from submission, so queue wait counts
		// against it.
		j.ctx, j.cancel = context.WithTimeout(ctx, f.jobTimeout)
	}
	j.res.Name = name

	if d := f.chaos.StallNext(chaos.PointFarmQueueStall); d > 0 {
		// Injected scheduler hiccup: the submission stalls (ctx-aware)
		// before reaching the queue. Outside the close lock so a stalled
		// submit never blocks Close.
		if err := f.sleep(ctx, d); err != nil {
			return nil, fmt.Errorf("farm: submitting job %q: %w", name, err)
		}
	}

	f.closeMu.RLock()
	defer f.closeMu.RUnlock()
	if f.closed {
		return nil, fmt.Errorf("farm: job %q: %w", name, ErrClosed)
	}
	f.om.queueDepth.Add(1)
	select {
	case f.jobs <- j:
	case <-ctx.Done():
		f.om.queueDepth.Add(-1)
		return nil, fmt.Errorf("farm: submitting job %q: %w", name, ctx.Err())
	}
	f.om.submitted.Inc()
	go j.watchCancel(f)
	return j, nil
}

// Protect is Submit followed by Wait: a one-call synchronous protect
// through the farm's cache and pool.
func (f *Farm) Protect(ctx context.Context, name string, m *ir.Module, opts core.Options) (*core.Protected, error) {
	j, err := f.Submit(ctx, name, m, opts)
	if err != nil {
		return nil, err
	}
	res, err := j.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return res.Protected, res.Err
}

// watchCancel fails the job early if its context is cancelled while it
// still sits in the queue. The queued→done transition is arbitrated by
// the state CAS, so a worker that dequeues the job afterwards skips it.
func (j *Job) watchCancel(f *Farm) {
	select {
	case <-j.ctx.Done():
		if atomic.CompareAndSwapInt32(&j.state, stateQueued, stateDone) {
			j.res.QueueWait = time.Since(j.submitted)
			j.res.Err = fmt.Errorf("farm: job %q cancelled while queued: %w", j.Name, j.ctx.Err())
			f.om.queueDepth.Add(-1)
			f.om.cancelled.Inc()
			j.finish()
		}
	case <-j.done:
	}
}

func (f *Farm) worker() {
	defer f.wg.Done()
	for j := range f.jobs {
		if !atomic.CompareAndSwapInt32(&j.state, stateQueued, stateRunning) {
			continue // cancelled while queued; watcher already closed it
		}
		f.om.queueDepth.Add(-1)
		j.res.QueueWait = time.Since(j.submitted)
		f.om.queueWaitNs.Record(uint64(j.res.QueueWait.Nanoseconds()))
		f.run(j)
		atomic.StoreInt32(&j.state, stateDone)
		j.finish()
	}
}

func (f *Farm) run(j *Job) {
	if err := j.ctx.Err(); err != nil {
		j.res.Err = fmt.Errorf("farm: job %q cancelled: %w", j.Name, err)
		f.om.cancelled.Inc()
		return
	}
	start := time.Now()
	prot, err := f.protectFn(j)
	j.res.Runtime = time.Since(start)
	f.om.jobRuntimeNs.Record(uint64(j.res.Runtime.Nanoseconds()))
	if err != nil {
		j.res.Err = err
		f.om.failed.Inc()
		return
	}
	j.res.Protected = prot
	f.om.completed.Inc()
}

// protect runs one job through core.Protect with the cache wired in
// and panics confined to the job.
func (f *Farm) protect(j *Job) (prot *core.Protected, err error) {
	defer func() {
		if r := recover(); r != nil {
			f.om.panics.Inc()
			err = fmt.Errorf("farm: job %q: %w", j.Name,
				&PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	if cerr := f.chaos.FireNext(chaos.PointFarmWorkerPanic); cerr != nil {
		// Injected pipeline-stage panic: the confinement machinery above
		// must catch it exactly like a real stage bug.
		panic(cerr)
	}
	opts := j.opts
	k := jobKey(j.module, opts)
	if opts.ScanFunc == nil {
		opts.ScanFunc = f.cache.scanner(&f.om, &j.res.ScanHits, &j.res.ScanMisses, f.chaos)
	}
	if opts.Hints == nil {
		if h, ok := f.cache.lookupHints(k); ok {
			opts.Hints = h
			j.res.HintUsed = true
			f.om.hintHits.Inc()
		} else {
			f.om.hintMisses.Inc()
		}
	}
	prot, err = core.Protect(j.module, opts)
	if err != nil {
		return nil, fmt.Errorf("farm: job %q: %w", j.Name, err)
	}
	f.cache.storeHints(k, prot.Hints)
	return prot, nil
}

// realSleep is the production sleep seam: context-aware so a cancelled
// submission never sits out an injected stall.
func realSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
