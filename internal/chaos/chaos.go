// Package chaos is the deterministic fault-injection subsystem: named
// fault points threaded through the hot layers (emulator, image
// loader, farm, campaign) fire seeded, reproducible infrastructure
// failures so the graceful-degradation machinery — panic confinement,
// deadlines, watchdogs, checkpoint/resume, infra-error classification —
// can be exercised and measured instead of trusted.
//
// The design contract mirrors internal/obs: production builds pay
// zero cost when injection is disabled. Every Injector method is
// nil-safe — a nil *Injector turns each decision into a single nil
// check — so subsystems keep an unconditional handle and never branch
// on "is chaos configured".
//
// Determinism is per decision, not per run: a keyed decision
// (Should/Fire with an explicit key, e.g. a campaign mutant index) is
// a pure function of (plan seed, point, key) and reproduces exactly
// under any scheduling. Sequence decisions (ShouldNext/FireNext, for
// sites with no natural identity such as per-worker image loads) draw
// keys from a per-point atomic counter: the set of firing sequence
// numbers is deterministic for a seed, while their assignment to
// concurrent callers follows the scheduler.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"parallax/internal/obs"
)

// Point names a fault-injection site. Points are compiled into the
// subsystems they belong to; a Plan can only enable them.
type Point string

// The named fault points, one per instrumented failure mode.
const (
	// PointEmuMemAlloc fails an emulator segment map during image load
	// (host allocation failure).
	PointEmuMemAlloc Point = "emu.mem_alloc"
	// PointEmuBudget forces a watchdog/budget exhaustion at a
	// cancellation-poll boundary of a running emulator.
	PointEmuBudget Point = "emu.budget"
	// PointEmuRestoreDirty corrupts a byte of post-restore VM state,
	// simulating a dirty-page copy-back that went wrong. The campaign
	// discards and rebuilds the poisoned VM.
	PointEmuRestoreDirty Point = "emu.restore_dirty"
	// PointImageRead truncates a serialized-image read mid-stream
	// (short read from a failing disk or socket).
	PointImageRead Point = "image.read"
	// PointStdinRead truncates a workload's stdin stream mid-read and
	// surfaces a read error: the emulated program sees a short read,
	// then the run aborts as infrastructure (never a detection).
	PointStdinRead Point = "emu.stdin_read"
	// PointFarmWorkerPanic panics inside a farm worker's pipeline
	// stage; the farm's panic isolation must confine it to the job.
	PointFarmWorkerPanic Point = "farm.worker_panic"
	// PointFarmCacheRead corrupts a farm stage-cache read; the cache
	// detects the corruption and recomputes instead of serving it.
	PointFarmCacheRead Point = "farm.cache_read"
	// PointFarmQueueStall stalls a job submission for Fault.Delay
	// (scheduler hiccup, slow consumer).
	PointFarmQueueStall Point = "farm.queue_stall"
	// PointCampaignMutant crashes a campaign worker mid-mutant; the
	// harness recovers and classifies the cell as an infra error.
	PointCampaignMutant Point = "campaign.mutant"
	// PointCampaignDeadline blows a mutant's watchdog deadline: the
	// run starts with its budget already exhausted.
	PointCampaignDeadline Point = "campaign.deadline"
)

// Points lists every named fault point, in a stable order.
func Points() []Point {
	return []Point{
		PointEmuMemAlloc, PointEmuBudget, PointEmuRestoreDirty,
		PointStdinRead, PointImageRead,
		PointFarmWorkerPanic, PointFarmCacheRead, PointFarmQueueStall,
		PointCampaignMutant, PointCampaignDeadline,
	}
}

// Error is the typed error an injected fault surfaces as. Consumers
// distinguish infrastructure faults from detection outcomes with
// errors.As (or IsInjected) — an *Error anywhere in a wrap chain means
// the failure was injected, not earned.
type Error struct {
	Point Point
}

func (e *Error) Error() string {
	return fmt.Sprintf("chaos: injected fault at %s", e.Point)
}

// IsInjected reports whether err carries an injected chaos fault
// anywhere in its wrap chain.
func IsInjected(err error) bool {
	var ce *Error
	return errors.As(err, &ce)
}

// Fault arms one fault point in a Plan.
type Fault struct {
	// Point is the site to arm.
	Point Point
	// Prob is the per-decision firing probability in [0, 1]; values
	// >= 1 fire every decision.
	Prob float64
	// Count caps the total injections at this point (0 = unlimited).
	Count int
	// Delay is the stall duration for delay-type points
	// (PointFarmQueueStall); 0 means 1ms.
	Delay time.Duration
}

// Plan is a full injection configuration: a seed and the set of armed
// fault points. The zero Plan arms nothing.
type Plan struct {
	// Seed drives every firing decision; the same seed over the same
	// keys reproduces the same faults.
	Seed uint64
	// Faults are the armed points. A point not listed never fires.
	Faults []Fault
}

// site is one armed point's runtime state.
type site struct {
	thresh    uint64 // Prob mapped onto [0, 2^64)
	always    bool   // Prob >= 1
	delay     time.Duration
	limited   bool
	remaining int64  // atomic injection budget (limited sites only)
	seq       uint64 // atomic sequence-key counter
	injected  *obs.Counter
}

// Injector decides, deterministically, whether each fault-point
// decision fires. A nil *Injector is fully functional as "chaos
// disabled": every decision is a single nil check and never fires.
type Injector struct {
	seed     uint64
	sites    map[Point]*site
	injected *obs.Counter
}

// New builds an injector from a plan. reg (which may be nil) receives
// the chaos.injected counter plus a per-point
// chaos.injected.<point> breakdown. A plan with no armed faults
// returns a non-nil injector that never fires.
func New(plan Plan, reg *obs.Registry) *Injector {
	in := &Injector{
		seed:     plan.Seed,
		sites:    make(map[Point]*site, len(plan.Faults)),
		injected: reg.Counter("chaos.injected"),
	}
	for _, f := range plan.Faults {
		s := &site{
			delay:    f.Delay,
			injected: reg.Counter("chaos.injected." + string(f.Point)),
		}
		if s.delay <= 0 {
			s.delay = time.Millisecond
		}
		if f.Count > 0 {
			s.limited = true
			s.remaining = int64(f.Count)
		}
		switch {
		case f.Prob >= 1:
			s.always = true
		case f.Prob > 0:
			s.thresh = uint64(f.Prob * (1 << 63) * 2)
		}
		in.sites[f.Point] = s
	}
	return in
}

// mix64 is splitmix64's finalizer: a full-avalanche mix of the seed,
// point and key into one decision word.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pointHash folds a point name into the decision stream (FNV-1a).
func pointHash(p Point) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(p); i++ {
		h = (h ^ uint64(p[i])) * 0x100000001b3
	}
	return h
}

// decide is the core keyed decision: pure in (seed, point, key) except
// for the injection budget, which is a global atomic cap.
func (in *Injector) decide(p Point, key uint64) (*site, bool) {
	if in == nil {
		return nil, false
	}
	s := in.sites[p]
	if s == nil {
		return nil, false
	}
	if !s.always && mix64(in.seed^pointHash(p)^mix64(key)) >= s.thresh {
		return s, false
	}
	if s.limited && atomic.AddInt64(&s.remaining, -1) < 0 {
		return s, false
	}
	in.injected.Inc()
	s.injected.Inc()
	return s, true
}

// Should reports whether the fault at p fires for key. The decision is
// a pure function of (seed, point, key), so callers with a natural
// identity — a mutant index, a job hash — get faults that reproduce
// under any scheduling.
func (in *Injector) Should(p Point, key uint64) bool {
	_, fire := in.decide(p, key)
	return fire
}

// ShouldNext is Should with a per-point sequence key, for sites with
// no natural identity. The firing sequence numbers are deterministic
// for a seed; their assignment to concurrent callers is not.
func (in *Injector) ShouldNext(p Point) bool {
	if in == nil {
		return false
	}
	s := in.sites[p]
	if s == nil {
		return false
	}
	return in.Should(p, atomic.AddUint64(&s.seq, 1))
}

// Fire is Should returning the typed injection error when it fires
// (nil otherwise), ready to surface through an error path.
func (in *Injector) Fire(p Point, key uint64) error {
	if in.Should(p, key) {
		return &Error{Point: p}
	}
	return nil
}

// FireNext is Fire with a per-point sequence key.
func (in *Injector) FireNext(p Point) error {
	if in.ShouldNext(p) {
		return &Error{Point: p}
	}
	return nil
}

// StallNext returns the stall duration for a delay-type point when its
// sequence decision fires, 0 otherwise.
func (in *Injector) StallNext(p Point) time.Duration {
	if in == nil {
		return 0
	}
	s := in.sites[p]
	if s == nil {
		return 0
	}
	if in.Should(p, atomic.AddUint64(&s.seq, 1)) {
		return s.delay
	}
	return 0
}

// Reader wraps r with a short-read fault: when the keyed decision
// fires, the reader delivers a deterministic, key-derived prefix and
// then fails with the typed injection error — a disk or socket dying
// mid-stream. When the decision does not fire, r is returned
// unwrapped.
func (in *Injector) Reader(p Point, key uint64, r io.Reader) io.Reader {
	if !in.Should(p, key) {
		return r
	}
	cut := mix64(in.seed^pointHash(p)^mix64(key)^0x5bf03635) % 4096
	return &shortReader{r: r, left: int64(cut), err: &Error{Point: p}}
}

// ReaderN is Reader for a stream of known length: the key-derived
// failure point is placed strictly inside the stream (immediately, for
// an empty one), so a consumer that drains its workload always
// observes the fault — a fired decision can never be a silent no-op
// because the cut landed past the data.
func (in *Injector) ReaderN(p Point, key uint64, r io.Reader, n int64) io.Reader {
	if !in.Should(p, key) {
		return r
	}
	var cut int64
	if n > 0 {
		cut = int64(mix64(in.seed^pointHash(p)^mix64(key)^0x5bf03635) % uint64(n))
	}
	return &shortReader{r: r, left: cut, err: &Error{Point: p}}
}

// shortReader delivers left bytes then fails with err.
type shortReader struct {
	r    io.Reader
	left int64
	err  error
}

func (s *shortReader) Read(p []byte) (int, error) {
	if s.left <= 0 {
		return 0, s.err
	}
	if int64(len(p)) > s.left {
		p = p[:s.left]
	}
	n, err := s.r.Read(p)
	s.left -= int64(n)
	if err == nil && s.left <= 0 {
		err = s.err
	}
	return n, err
}
