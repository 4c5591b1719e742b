package tb

// The shared translation catalog: a content-addressed store of
// translated blocks, keyed by (entry address, exact code bytes), that
// snapshot/restore mutants of one image and workers across a campaign
// or batch share instead of each re-translating the ~99% of blocks a
// one-byte mutant leaves untouched.
//
// Correctness rests on translation being a pure function of the entry
// address and the code bytes the decoder consumed, which all lie in
// [entry, end). An engine adopting a catalog variant therefore
// re-verifies it against its own memory — a full byte comparison via
// Memory.EqualAt — on every adoption, so a
// variant can never be stale with respect to the adopting CPU: a
// mutant whose patch landed inside the block simply fails the
// comparison and translates privately (installing its own variant).
// Because of that, the catalog deliberately does not subscribe to any
// single CPU's OnCodeInvalidate bus: an invalidation on one worker's
// memory says nothing about the identical bytes another worker still
// executes. Per-engine coherence — Patch, Restore page copy-back,
// self-modifying stores — stays with each Engine's private block map,
// exactly as without a catalog.
//
// The one case where memory bytes do not describe fetched bytes is an
// armed fetch overlay (the Wurster split-cache view); engines skip the
// catalog entirely, both directions, while CPU.OverlayActive reports
// true. Any such coherence doubt degrades to private translation,
// never to a wrong adoption.
//
// A Catalog is safe for concurrent use by many engines; variant slices
// are immutable once published, so readers never see a torn entry.

import (
	"sync"

	"parallax/internal/emu"
)

// maxCatalogVariants caps how many byte-distinct translations the
// catalog keeps per entry address. Campaign mutants that patch a hot
// block each install their own variant; beyond the cap the newest
// mutant variant replaces the previous newest, so the early (clean
// image) variants every other mutant re-adopts are never churned out.
const maxCatalogVariants = 8

// catVariant is one content-addressed translation: the exact code
// bytes it was decoded from and the compiled micro-ops. Both are
// immutable after install; the ops slice is shared read-only by every
// block adopted from it.
type catVariant struct {
	hash uint64
	code []byte
	ops  []uop
}

// Catalog is a shared translation store. The zero value is not usable;
// construct with NewCatalog. A nil *Catalog is valid and inert, so
// callers thread it unconditionally.
//
// The catalog itself keeps no metrics: adoptions and installs are
// counted by each Engine on its own registry (emu.tb.catalog_hits,
// emu.tb.catalog_misses, emu.tb.catalog_installs), so the per-engine
// reconciliation identity documented on Engine.Close holds and a
// campaign's shared registry aggregates every worker's counts.
type Catalog struct {
	mu      sync.RWMutex
	entries map[uint32][]catVariant
}

// NewCatalog returns an empty shared catalog.
func NewCatalog() *Catalog {
	return &Catalog{entries: make(map[uint32][]catVariant)}
}

// fnv1a64 hashes code bytes for the adoption fast filter.
func fnv1a64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range b {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// adopt looks for a variant at entry whose code bytes match mem right
// now, returning its ops and block end on a hit. The byte comparison
// runs against live memory on every call — the variant describes what
// this CPU executes only while the bytes agree, and agreement is
// re-established here, never assumed.
func (t *Catalog) adopt(mem *emu.Memory, entry uint32) (ops []uop, end uint32) {
	if t == nil {
		return nil, 0
	}
	t.mu.RLock()
	vs := t.entries[entry]
	t.mu.RUnlock()
	for i := range vs {
		v := &vs[i]
		if mem.EqualAt(entry, v.code) {
			return v.ops, entry + uint32(len(v.code))
		}
	}
	return nil, 0
}

// install publishes a freshly translated block under its code bytes,
// reporting whether a new variant was actually added. code must be the
// engine's own copy (the catalog keeps it). Identical bytes already
// present are left alone; at the variant cap the newest slot is
// replaced so early variants survive mutant churn.
func (t *Catalog) install(entry uint32, code []byte, ops []uop) bool {
	if t == nil || len(code) == 0 {
		return false
	}
	h := fnv1a64(code)
	t.mu.Lock()
	defer t.mu.Unlock()
	vs := t.entries[entry]
	for i := range vs {
		if vs[i].hash == h && string(vs[i].code) == string(code) {
			return false
		}
	}
	// Publish a fresh slice: readers hold the old header lock-free, so
	// existing variants are never mutated in place.
	nv := catVariant{hash: h, code: code, ops: ops}
	var out []catVariant
	if len(vs) >= maxCatalogVariants {
		out = append(out, vs[:maxCatalogVariants-1]...)
		out = append(out, nv)
	} else {
		out = append(append(out, vs...), nv)
	}
	t.entries[entry] = out
	return true
}
