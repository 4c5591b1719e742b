package image

import (
	"cmp"
	"slices"
	"sort"
)

// Span is the half-open address interval [Lo, Hi).
type Span struct{ Lo, Hi uint32 }

// Ranges is an address set held as sorted, disjoint, non-adjacent
// spans; MergeSpans builds one. Queries binary-search the spans.
type Ranges []Span

// MergeSpans turns spans into a Ranges: it sorts them by start, merges
// overlapping and adjacent ones and drops empty ones. It reuses and
// reorders spans' backing array.
func MergeSpans(spans []Span) Ranges {
	slices.SortFunc(spans, func(a, b Span) int { return cmp.Compare(a.Lo, b.Lo) })
	out := spans[:0]
	for _, sp := range spans {
		if sp.Lo >= sp.Hi {
			continue
		}
		if n := len(out); n > 0 && sp.Lo <= out[n-1].Hi {
			out[n-1].Hi = max(out[n-1].Hi, sp.Hi)
		} else {
			out = append(out, sp)
		}
	}
	return out
}

// first returns the index of the first span ending after addr.
func (r Ranges) first(addr uint32) int {
	return sort.Search(len(r), func(i int) bool { return r[i].Hi > addr })
}

// Contains reports whether addr is in the set.
func (r Ranges) Contains(addr uint32) bool {
	i := r.first(addr)
	return i < len(r) && r[i].Lo <= addr
}

// Overlaps reports whether any address of [addr, addr+n) is in the
// set.
func (r Ranges) Overlaps(addr, n uint32) bool {
	i := r.first(addr)
	return n > 0 && i < len(r) && r[i].Lo < addr+n
}

// Gaps returns the maximal runs of [lo, hi) outside the set, in
// address order.
func (r Ranges) Gaps(lo, hi uint32) []Span {
	var out []Span
	for i, a := r.first(lo), lo; a < hi; i++ {
		if i == len(r) || r[i].Lo >= hi {
			return append(out, Span{a, hi})
		}
		if a < r[i].Lo {
			out = append(out, Span{a, r[i].Lo})
		}
		a = r[i].Hi
	}
	return out
}
