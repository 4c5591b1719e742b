package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Recording is a single
// atomic add; a nil *Counter records nothing, so the disabled path
// costs one nil check.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed level, such as a queue depth.
// A nil *Gauge records nothing.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a Histogram: bucket i counts
// observations v with bitlen(v) == i, i.e. exponential base-2 buckets
// [2^(i-1), 2^i). 65 buckets cover the full uint64 range (bucket 0 is
// exactly v == 0).
const histBuckets = 65

// Histogram accumulates a distribution in exponential base-2 buckets.
// Recording is three atomic adds and is safe for concurrent use; a nil
// *Histogram records nothing. Min/max tracking uses CAS loops that
// almost never retry once the extremes settle.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64 // stored as ^v so zero-value means "unset"
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
	for {
		cur := h.min.Load()
		if ^v <= cur {
			break
		}
		if h.min.CompareAndSwap(cur, ^v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Sum returns the total of the recorded observations (0 for a nil
// histogram).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram, suitable
// for JSON export.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	// Buckets lists the non-empty exponential buckets: each covers
	// observations v with Le/2 < v <= hi where Le is the bucket's
	// inclusive upper bound 2^i - 1 (Le 0 is exactly v == 0).
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one non-empty histogram bucket.
type Bucket struct {
	// Le is the inclusive upper bound of the bucket.
	Le uint64 `json:"le"`
	// Count is the number of observations in the bucket.
	Count uint64 `json:"count"`
}

// Mean returns the arithmetic mean of the recorded observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot copies the histogram's current state. Concurrent recording
// may tear count against buckets by a few in-flight observations; every
// individual field is still a consistent atomic read.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if m := h.min.Load(); m != 0 {
		s.Min = ^m
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			le := uint64(0)
			if i > 0 {
				le = 1<<uint(i) - 1
			}
			s.Buckets = append(s.Buckets, Bucket{Le: le, Count: n})
		}
	}
	return s
}
