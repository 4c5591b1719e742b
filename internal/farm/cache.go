package farm

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parallax/internal/chaos"
	"parallax/internal/core"
	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/ir"
)

// key is a content address: a SHA-256 over the exact inputs of a
// cached stage.
type key [sha256.Size]byte

// Cache memoizes the two expensive, pure pipeline stages across jobs:
//
//   - gadget scan + classification, keyed by the executable section
//     bytes (addresses included) and the scan parameters. Protecting
//     the same text twice — a resubmitted job, or fixpoint passes that
//     reproduce an earlier layout — pays for the scan once. A miss is
//     computed by gadget.Rescan against the job's previous fixpoint
//     pass, so a later pass whose text differs in a few bytes decodes
//     only the offsets those bytes can reach.
//   - converged fixpoint layout sizes (core.Hints), keyed by the full
//     job content (module + options). A hint hit lets an
//     identical job converge in a single link→scan→compile pass, which
//     in turn makes its one scan a guaranteed cache hit.
//
// Both stages are pure functions of their key, so sharing results
// cannot change output bytes. Cached catalogs are shared read-only
// between jobs; nothing in the pipeline mutates a catalog after Scan.
//
// A Cache is safe for concurrent use and may be shared between farms
// (e.g. a warm cache handed to a new farm with a different worker
// count). Concurrent lookups of the same not-yet-computed scan are
// deduplicated: one caller computes, the rest block and share.
type Cache struct {
	mu    sync.Mutex
	scans map[key]*scanEntry
	hints map[key]*core.Hints
}

type scanEntry struct {
	once sync.Once
	cat  *gadget.Catalog
}

// NewCache returns an empty stage cache.
func NewCache() *Cache {
	return &Cache{
		scans: make(map[key]*scanEntry),
		hints: make(map[key]*core.Hints),
	}
}

// Len reports the number of cached scan catalogs and layout hints.
func (c *Cache) Len() (scans, hints int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.scans), len(c.hints)
}

// scanner returns a core.Options.ScanFunc that serves scans from the
// cache, recording hits, misses and scan time into the farm's metrics
// and hits and misses into the per-job tallies.
func (c *Cache) scanner(m *farmMetrics, jobHits, jobMisses *uint64, inj *chaos.Injector) func(*image.Image, gadget.ScanConfig, *image.Image, *gadget.Catalog) *gadget.Catalog {
	return func(img *image.Image, cfg gadget.ScanConfig, prevImg *image.Image, prev *gadget.Catalog) *gadget.Catalog {
		k := scanKey(img, cfg)
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
			e.cat = gadget.Rescan(img, cfg, prevImg, prev)
			m.scanNs.Add(uint64(time.Since(start).Nanoseconds()))
		})
		if hit && inj.ShouldNext(chaos.PointFarmCacheRead) {
			// Injected cache corruption: the cached catalog is treated as
			// failing its read-back check, so this lookup bypasses the
			// entry and rescans from the image bytes. Output determinism
			// holds because gadget.Scan is pure; the entry itself is left
			// alone (concurrent readers may hold e.cat).
			start := time.Now()
			cat := gadget.Scan(img, cfg)
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

// lookupHints returns cached converged layout sizes for a job key.
func (c *Cache) lookupHints(k key) (*core.Hints, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hints[k]
	return h, ok
}

// storeHints records the converged layout sizes of a finished job.
func (c *Cache) storeHints(k key, h core.Hints) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hints[k] = &h
}

// scanKey addresses a gadget scan: every executable section's name,
// load address and exact bytes, plus the scan parameters. Matches the
// section walk in gadget.Scan.
func scanKey(img *image.Image, cfg gadget.ScanConfig) key {
	h := sha256.New()
	fmt.Fprintf(h, "scan:maxinsts=%d:maxbytes=%d:skipfar=%t\n",
		cfg.MaxInsts, cfg.MaxBytes, cfg.SkipFar)
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

// jobKey addresses a whole protection job: the module content and
// every Options field that influences the output image, normalized as
// core.Protect normalizes them so that equivalent options (PoolCopies
// 0 and 2, say) share a key and its layout hints. ScanFunc, Hints
// and Obs are deliberately excluded — accelerators and observers never
// change output bytes, so they must not fragment the cache. The module
// is hashed in ir's binary key encoding; the key lives only in memory,
// so its bytes may change between versions.
func jobKey(m *ir.Module, opts core.Options) key {
	opts = opts.Normalized()
	h := sha256.New()
	m.WriteKey(h) // a hash never fails a write
	fmt.Fprintf(h, "opts:verify=%q auto=%t pool=%d protect=%q norewrite=%t\n",
		opts.VerifyFuncs, opts.AutoSelect, opts.PoolCopies,
		opts.ProtectFuncs, opts.DisableRewriting)
	fmt.Fprintf(h, "opts:mode=%d mu=%t cschk=%t compose=%d probN=%d seed=%d\n",
		opts.ChainMode, opts.MuChains, opts.ChecksumChains,
		opts.ComposeChecksum, opts.ProbVariants, opts.Seed)
	fmt.Fprintf(h, "opts:layout=%d/%d/%d/%d\n",
		opts.Layout.TextBase, opts.Layout.FuncAlign, opts.Layout.PadByte,
		opts.Layout.PageSize)
	fmt.Fprintf(h, "opts:workload=%d:", len(opts.Workload))
	h.Write(opts.Workload)
	var k key
	h.Sum(k[:0])
	return k
}
