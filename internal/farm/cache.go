package farm

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parallax/internal/chaos"
	"parallax/internal/gadget"
	"parallax/internal/image"
)

// key is a content address: a SHA-256 over the exact inputs of a
// cached stage.
type key [sha256.Size]byte

// stageCache memoizes the expensive, pure pipeline stage across a
// farm's jobs: gadget scan + classification, keyed by the executable
// section bytes (addresses included). Protecting the same text twice —
// a resubmitted job, or fixpoint passes that reproduce an earlier
// layout — pays for the scan once. A miss is computed by gadget.Rescan
// against the job's previous fixpoint pass, so a later pass whose text
// differs in a few bytes decodes only the offsets those bytes can
// reach.
//
// A scan is a pure function of its key, so sharing results cannot
// change output bytes. Cached catalogs are shared read-only between
// jobs; nothing in the pipeline mutates a catalog after Scan.
//
// A stageCache is safe for concurrent use. Concurrent lookups of the
// same not-yet-computed scan are deduplicated: one caller computes,
// the rest block and share.
type stageCache struct {
	mu    sync.Mutex
	scans map[key]*scanEntry
}

type scanEntry struct {
	once sync.Once
	cat  *gadget.Catalog
}

func newStageCache() *stageCache {
	return &stageCache{scans: make(map[key]*scanEntry)}
}

// scanner returns a core.Options.ScanFunc that serves scans from the
// cache, recording hits, misses and scan time into the farm's metrics
// and hits and misses into the per-job tallies.
func (c *stageCache) scanner(m *farmMetrics, jobHits, jobMisses *uint64, inj *chaos.Injector) func(img, prevImg *image.Image, prev *gadget.Catalog) *gadget.Catalog {
	return func(img, prevImg *image.Image, prev *gadget.Catalog) *gadget.Catalog {
		k := scanKey(img)
		c.mu.Lock()
		e, ok := c.scans[k]
		if !ok {
			e = &scanEntry{}
			c.scans[k] = e
		}
		c.mu.Unlock()
		hit := true
		e.once.Do(func() {
			hit = false
			start := time.Now()
			// The diff base is the job's own previous-pass image, which
			// core.Protect discards unmodified; a cached catalog's source
			// image may be another job's, which Install later writes.
			e.cat = gadget.Rescan(img, prevImg, prev)
			m.scanNs.Add(uint64(time.Since(start).Nanoseconds()))
		})
		if hit && inj.ShouldNext(chaos.PointFarmCacheRead) {
			// Injected cache corruption: the cached catalog is treated as
			// failing its read-back check, so this lookup bypasses the
			// entry and rescans from the image bytes. Output determinism
			// holds because gadget.Scan is pure; the entry itself is left
			// alone (concurrent readers may hold e.cat).
			start := time.Now()
			cat := gadget.Scan(img)
			m.scanNs.Add(uint64(time.Since(start).Nanoseconds()))
			m.scanMisses.Inc()
			atomic.AddUint64(jobMisses, 1)
			return cat
		}
		if hit {
			m.scanHits.Inc()
			atomic.AddUint64(jobHits, 1)
		} else {
			m.scanMisses.Inc()
			atomic.AddUint64(jobMisses, 1)
		}
		return e.cat
	}
}

// scanKey addresses a gadget scan: every executable section's name,
// load address and exact bytes. Matches the section walk in
// gadget.Scan.
func scanKey(img *image.Image) key {
	h := sha256.New()
	for _, s := range img.Sections {
		if s.Perm&image.PermX == 0 {
			continue
		}
		fmt.Fprintf(h, "section:%s:%#x:%d:", s.Name, s.Addr, s.Size)
		h.Write(s.Data)
		h.Write([]byte{'\n'})
	}
	var k key
	h.Sum(k[:0])
	return k
}
