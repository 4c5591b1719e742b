// Package core implements the Parallax protection engine: it turns an
// IR program into a protected binary whose selected functions run as
// ROP chains over gadgets scattered through (and overlapped with) the
// binary's code, implicitly verifying its integrity (§III).
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"parallax/internal/baseline/checksum"
	"parallax/internal/chain"
	"parallax/internal/codegen"
	"parallax/internal/dyngen"
	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/ir"
	"parallax/internal/obs"
	"parallax/internal/rewrite"
	"parallax/internal/ropc"
)

// Options configures Protect.
type Options struct {
	// VerifyFuncs names the functions to translate into verification
	// chains. Empty plus AutoSelect=false is an error; use AutoSelect
	// for the §VII-B algorithm.
	VerifyFuncs []string
	// AutoSelect runs the paper's selection algorithm (call-graph +
	// profile + op diversity) to choose one verification function.
	// Requires Workload to drive the profile run.
	AutoSelect bool
	// Workload drives profiling for AutoSelect (stdin given to the
	// program). May be nil.
	Workload []byte

	// PoolCopies replicates the fallback gadget pool; values below 1
	// mean 2 (two copies give probabilistic generation room to vary).
	PoolCopies int

	// ProtectFuncs names functions whose instructions the rewriting
	// rules should overlap with gadgets. Empty means every function.
	ProtectFuncs []string
	// DisableRewriting skips the §IV-B rewriting rules (gadgets then
	// come only from existing code and the fallback pool).
	DisableRewriting bool

	// ChainMode selects static or dynamically generated chains (§V-B).
	ChainMode dyngen.Mode
	// MuChains compiles instruction-level verification (§V-C) instead
	// of function chains — for the ablation experiment.
	MuChains bool
	// ChecksumChains guards each chain with a data-memory checksum run
	// before every pivot (§VI-C). Static chains only: dynamic chains
	// change between runs by design.
	ChecksumChains bool
	// ComposeChecksum, when positive, composes the §VI-C static
	// checksum network over the protection's cold regions: this many
	// table-driven checkers (internal/baseline/checksum.Network) are
	// injected before the layout fixpoint and, after the chains are
	// installed, assigned the maximal text runs no chain gadget guards.
	// Hot-path behavior is unchanged beyond the startup hashing pass;
	// tampering cold text — invisible to the ROP chains because cold
	// bodies never pull their bytes through a verification run — now
	// exits with checksum.TamperStatus at startup. The Wurster
	// split-cache attack still defeats the checksum half, exactly as
	// the paper concedes for any read-your-own-text defense.
	ComposeChecksum int
	// ProbVariants is the §V-B index-array count N for ModeProb;
	// values below 2 mean dyngen.DefaultVariants.
	ProbVariants int
	// Seed drives key and basis derivation for dynamic modes.
	Seed uint32

	// Layout overrides the link layout.
	Layout image.Layout

	// ScanFunc overrides the gadget scanner used inside the fixpoint
	// pipeline. It must be observationally identical to gadget.Scan
	// (same catalog for the same image bytes) — the hook exists so
	// batch drivers such as internal/farm can interpose a
	// content-addressed cache. Each call also receives the previous
	// fixpoint pass's image and the catalog this hook returned for it
	// (both nil on the first pass), so a scanner can rescan only the
	// bytes that changed (gadget.Rescan). That image is discarded
	// unmodified after the call. Nil means gadget.Rescan. The returned
	// catalog must not be mutated by the scanner afterwards.
	ScanFunc func(img *image.Image, cfg gadget.ScanConfig, prevImg *image.Image, prev *gadget.Catalog) *gadget.Catalog
	// Hints seeds the link→scan→compile fixpoint with the converged
	// sizes of a previous run. Correctness never depends on them: the
	// fixpoint still verifies convergence, so wrong hints only cost
	// extra passes. Hints from a converged run of the *same* module
	// and options let the pipeline converge in a single pass.
	Hints *Hints

	// Obs, when non-nil, records span timings for the pipeline stages
	// (codegen, rewrite, layout, scan, chain-compile, install) into the
	// shared registry, with pprof labels so CPU profiles attribute time
	// per stage. Nil disables all instrumentation; it never affects the
	// output image.
	Obs *obs.Registry
}

// Normalized returns opts with fields whose distinct values ask for
// the same output collapsed to one value: PoolCopies below 1 becomes
// 2; ProbVariants becomes dyngen.DefaultVariants when it is below 2 or
// the chain mode is not ModeProb (only the probabilistic tables read
// it); and Seed becomes 0 under static chains (only the dynamic modes
// read it). Protect runs on normalized options, and a cache keyed by
// options should hash them normalized, so that equivalent jobs share a
// key.
func (opts Options) Normalized() Options {
	if opts.PoolCopies < 1 {
		opts.PoolCopies = 2
	}
	if opts.ProbVariants < 2 || opts.ChainMode != dyngen.ModeProb {
		opts.ProbVariants = dyngen.DefaultVariants
	}
	if opts.ChainMode == dyngen.ModeStatic {
		opts.Seed = 0
	}
	return opts
}

// Hints captures the converged fixpoint sizes of a Protect run: chain
// byte lengths, exit-pointer indices and dynamic-generation table
// sizes per verification function. Feeding them back into a later run
// of the same module and options (Options.Hints) skips the size
// discovery passes; the result is byte-identical because the final
// image is a pure function of the converged sizes.
type Hints struct {
	ChainLens map[string]int
	ExitIdxs  map[string]int
	OffsLens  map[string]int
	IdxLens   map[string]int
}

func copyHintMap(src map[string]int, n int) map[string]int {
	dst := make(map[string]int, n)
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// Protected is the result of a Protect run.
type Protected struct {
	// Image is the protected binary.
	Image *image.Image
	// Baseline is the unprotected binary built from the same module
	// with the same layout, for differential evaluation.
	Baseline *image.Image
	// Chains maps verification function names to their compiled
	// chains.
	Chains map[string]*ropc.Chain
	// Catalog is the gadget inventory of the protected image.
	Catalog *gadget.Catalog
	// VerifyFuncs lists the chain-translated functions.
	VerifyFuncs []string
	// Module is the source IR.
	Module *ir.Module
	// RewriteSites counts instructions split by the §IV-B2 rule.
	RewriteSites int
	// Mode is the chain generation mode used.
	Mode dyngen.Mode
	// Tables holds per-function dynamic-generation data (nil entries
	// for static chains).
	Tables map[string]*dyngen.Tables
	// OverlapGadgets counts chain gadget slots satisfied by gadgets
	// overlapping protected code (vs the fallback pool).
	OverlapGadgets int
	// TotalGadgetSlots counts all gadget words across chains.
	TotalGadgetSlots int
	// Hints are the converged fixpoint sizes of this run; feed them to
	// Options.Hints of an identical run to converge in one pass.
	Hints Hints
	// Checksum reports the composed §VI-C checker network's coverage
	// (Options.ComposeChecksum); nil when composition was off.
	Checksum *checksum.NetworkStats
}

// Protect builds and protects a module.
func Protect(m *ir.Module, opts Options) (*Protected, error) {
	if err := ir.Validate(m); err != nil {
		return nil, err
	}
	opts = opts.Normalized()

	verify := append([]string(nil), opts.VerifyFuncs...)
	if opts.AutoSelect {
		sel, err := SelectVerificationFunc(m, opts.Workload)
		if err != nil {
			return nil, fmt.Errorf("core: auto-select: %w", err)
		}
		verify = append(verify, sel)
	}
	if len(verify) == 0 {
		return nil, fmt.Errorf("core: no verification functions given or selected")
	}
	sort.Strings(verify)
	verify = dedup(verify)

	for _, fn := range verify {
		f := m.Func(fn)
		if f == nil {
			return nil, fmt.Errorf("core: verification function %q not in module", fn)
		}
		if m.Entry == fn || (m.Entry == "" && m.Funcs[0].Name == fn) {
			return nil, fmt.Errorf("core: entry function %q cannot be a verification function", fn)
		}
		if !ropc.Chainable(f) {
			return nil, fmt.Errorf("core: %q makes calls or syscalls and cannot be a verification function", fn)
		}
	}

	if opts.ChecksumChains && opts.ChainMode != dyngen.ModeStatic {
		return nil, fmt.Errorf("core: chain checksumming requires static chains")
	}

	// Dynamic modes, chain checksumming and checksum composition
	// inject stubs into a working copy of the module; the caller's
	// module and the baseline stay clean.
	work := m
	if opts.ChainMode != dyngen.ModeStatic || opts.ChecksumChains || opts.ComposeChecksum > 0 {
		work = m.Clone()
	}
	cfgs := make(map[string]dyngen.Config, len(verify))
	for _, fn := range verify {
		cfg := dyngen.Config{
			Fn: fn, Mode: opts.ChainMode, N: opts.ProbVariants, Seed: opts.Seed,
		}
		if opts.ChainMode != dyngen.ModeStatic {
			if err := dyngen.Inject(work, cfg); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
		if opts.ChecksumChains {
			if err := dyngen.InjectChecker(work, fn); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
		cfgs[fn] = cfg
	}
	if opts.ComposeChecksum > 0 {
		// Inject the §VI-C checker network before any layout work: the
		// checkers' code and Slots-sized tables are fixed-size, so the
		// fixpoint below converges as usual; the tables stay empty (a
		// behavioral no-op) until the converged image's cold regions
		// are known and installed.
		if err := checksum.InjectNetwork(work, checksum.Network{Checkers: opts.ComposeChecksum}); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	// The application code is the same in every fixpoint pass, so it is
	// compiled and rewritten once; each pass adds its loader stubs, pool
	// and chain/frame data to a shallow copy of this object.
	var obj *image.Object
	var err error
	opts.Obs.Stage("codegen", func() {
		obj, err = codegen.Compile(work)
	})
	if err != nil {
		return nil, err
	}
	// Baseline build for differential evaluation. When the working
	// module is the caller's, the baseline links the shared object, and
	// must do so before rewriting assigns fn.Items on its *image.Funcs.
	var baseline *image.Image
	if work == m {
		baseline, err = image.Link(obj, opts.Layout)
	} else {
		baseline, err = codegen.Build(m, opts.Layout)
	}
	if err != nil {
		return nil, fmt.Errorf("core: baseline build: %w", err)
	}
	rewriteSites, err := rewriteImmediates(obj, work, verify, opts)
	if err != nil {
		return nil, err
	}

	// Frame sizes are layout-independent.
	frameWords := make(map[string]int, len(verify))
	for _, fn := range verify {
		n, err := ropc.FrameWords(work.Func(fn))
		if err != nil {
			return nil, err
		}
		frameWords[fn] = n
	}

	// Iterate link → scan → compile to a fixpoint. Chain sizes feed
	// back into the data layout, which feeds back into address
	// immediates in the text, which can shift the gadget inventory and
	// therefore chain sizes again. In practice this converges after
	// two passes; the cap guards pathological oscillation.
	chainLens := make(map[string]int, len(verify))
	exitIdxs := make(map[string]int, len(verify))
	offsLens := make(map[string]int, len(verify))
	idxLens := make(map[string]int, len(verify))
	if h := opts.Hints; h != nil {
		chainLens = copyHintMap(h.ChainLens, len(verify))
		exitIdxs = copyHintMap(h.ExitIdxs, len(verify))
		offsLens = copyHintMap(h.OffsLens, len(verify))
		idxLens = copyHintMap(h.IdxLens, len(verify))
	}
	scan := opts.ScanFunc
	if scan == nil {
		scan = gadget.Rescan
	}
	var (
		img     *image.Image
		catalog *gadget.Catalog
		chains  map[string]*ropc.Chain
		tables  map[string]*dyngen.Tables
	)
	const maxPasses = 10
	stable := false
	for pass := 0; pass < maxPasses && !stable; pass++ {
		prevImg := img
		img, err = buildProtectedObject(obj, work, verify, frameWords, opts, cfgs,
			chainLens, exitIdxs, offsLens, idxLens)
		if err != nil {
			return nil, err
		}
		opts.Obs.Stage("scan", func() {
			catalog = scan(img, gadget.ScanConfig{}, prevImg, catalog)
		})
		env := &ropc.Env{
			Catalog:    catalog,
			GlobalAddr: symResolver(img),
			Prefer:     preferOverlap(img, verify),
		}
		stable = true
		chains = make(map[string]*ropc.Chain, len(verify))
		tables = make(map[string]*dyngen.Tables, len(verify))
		opts.Obs.Stage("chain-compile", func() {
			for _, fn := range verify {
				frame, lerr := img.Lookup(chain.FrameSym(fn))
				if lerr != nil {
					err = fmt.Errorf("core: frame for %s: %w", fn, lerr)
					return
				}
				ch, cerr := ropc.CompileWith(work.Func(fn), env, frame.Addr,
					ropc.Options{Mu: opts.MuChains})
				if cerr != nil {
					err = fmt.Errorf("core: chain for %s: %w", fn, cerr)
					return
				}
				tb, terr := dyngen.BuildTables(cfgs[fn], ch, env)
				if terr != nil {
					err = fmt.Errorf("core: tables for %s: %w", fn, terr)
					return
				}
				if ch.ByteLen() != chainLens[fn] || ch.ExitPtrIndex != exitIdxs[fn] ||
					len(tb.Offs) != offsLens[fn] || len(tb.Idx) != idxLens[fn] {
					stable = false
					chainLens[fn] = ch.ByteLen()
					exitIdxs[fn] = ch.ExitPtrIndex
					offsLens[fn] = len(tb.Offs)
					idxLens[fn] = len(tb.Idx)
				}
				chains[fn] = ch
				tables[fn] = tb
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if !stable {
		return nil, fmt.Errorf("core: protection layout did not converge after %d passes", maxPasses)
	}

	var installErr error
	opts.Obs.Stage("install", func() {
		for _, fn := range verify {
			if err := dyngen.Install(img, cfgs[fn], chains[fn], tables[fn]); err != nil {
				installErr = fmt.Errorf("core: installing chain for %s: %w", fn, err)
				return
			}
			if opts.ChecksumChains {
				if err := dyngen.InstallChecker(img, fn, chains[fn]); err != nil {
					installErr = fmt.Errorf("core: installing chain checksum for %s: %w", fn, err)
					return
				}
			}
		}
	})
	if installErr != nil {
		return nil, installErr
	}

	p := &Protected{
		Image:        img,
		Baseline:     baseline,
		Chains:       chains,
		Catalog:      catalog,
		VerifyFuncs:  verify,
		Module:       m,
		RewriteSites: rewriteSites,
		Mode:         opts.ChainMode,
		Tables:       tables,
		Hints: Hints{
			ChainLens: chainLens, ExitIdxs: exitIdxs,
			OffsLens: offsLens, IdxLens: idxLens,
		},
	}
	isOverlap := preferOverlap(img, verify)
	for _, ch := range chains {
		for _, w := range ch.Words {
			if w.Kind != ropc.WGadget {
				continue
			}
			p.TotalGadgetSlots++
			if isOverlap(w.Gadget) {
				p.OverlapGadgets++
			}
		}
	}
	if opts.ComposeChecksum > 0 {
		// With the chains installed and the layout final, assign the
		// cold text — every maximal run no chain gadget guards — to the
		// injected checker network. The tables and expected hashes land
		// in .data, leaving the hashed text untouched.
		var composeErr error
		opts.Obs.Stage("compose", func() {
			regions := checksum.ColdRegions(img, p.GuardedByteMap(), 0)
			p.Checksum, composeErr = checksum.InstallNetwork(img,
				checksum.Network{Checkers: opts.ComposeChecksum}, regions)
		})
		if composeErr != nil {
			return nil, fmt.Errorf("core: composing checksum network: %w", composeErr)
		}
	}
	return p, nil
}

// GuardedByteMap returns the address set whose modification derails a
// verification chain: the chains' gadget spans plus the serialized
// `..parallax.*` chain data. It is the campaign engine's guarded-site
// predicate and the complement of what ComposeChecksum covers.
func (p *Protected) GuardedByteMap() map[uint32]bool {
	g := make(map[uint32]bool)
	for _, ch := range p.Chains {
		for _, gd := range ch.Gadgets() {
			lo, hi := gd.Range()
			for a := lo; a < hi; a++ {
				g[a] = true
			}
		}
	}
	for _, s := range p.Image.Symbols {
		if strings.HasPrefix(s.Name, "..parallax.") {
			for a := s.Addr; a < s.Addr+s.Size; a++ {
				g[a] = true
			}
		}
	}
	return g
}

// preferOverlap marks gadgets inside application code (anything except
// the fallback pool and loader stubs) — the gadgets whose integrity
// actually protects the program.
func preferOverlap(img *image.Image, verify []string) func(*gadget.Gadget) bool {
	type span struct{ lo, hi uint32 }
	verifySet := make(map[string]bool, len(verify))
	for _, v := range verify {
		verifySet[v] = true
	}
	var spans []span
	for _, s := range img.Funcs() {
		if len(s.Name) >= 2 && s.Name[:2] == ".." {
			continue // pool and internal stubs
		}
		if verifySet[s.Name] {
			continue // loader stub, not application code
		}
		spans = append(spans, span{s.Addr, s.Addr + s.Size})
	}
	// The predicate runs per candidate gadget per chain instruction, so
	// merge the spans (Funcs sorts them by address) into disjoint
	// ranges once and binary-search them.
	merged := spans[:0]
	for _, sp := range spans {
		if n := len(merged); n > 0 && sp.lo <= merged[n-1].hi {
			merged[n-1].hi = max(merged[n-1].hi, sp.hi)
		} else {
			merged = append(merged, sp)
		}
	}
	return func(g *gadget.Gadget) bool {
		i := sort.Search(len(merged), func(i int) bool { return merged[i].hi > g.Addr })
		return i < len(merged) && merged[i].lo <= g.Addr
	}
}

// rewriteImmediates applies the §IV-B2 rule to the compiled object:
// it splits immediates in protected functions so gadgets overlap their
// instructions, and returns the number of split sites. Verification
// functions are excluded — their bodies become loader stubs.
func rewriteImmediates(obj *image.Object, m *ir.Module, verify []string, opts Options) (int, error) {
	if opts.DisableRewriting {
		return 0, nil
	}
	targets := opts.ProtectFuncs
	if len(targets) == 0 {
		verifySet := make(map[string]bool, len(verify))
		for _, v := range verify {
			verifySet[v] = true
		}
		for _, f := range m.Funcs {
			if !verifySet[f.Name] {
				targets = append(targets, f.Name)
			}
		}
	}
	var res *rewrite.SplitResult
	var err error
	opts.Obs.Stage("rewrite", func() {
		res, err = rewrite.SplitImmediates(obj, targets)
	})
	if err == nil {
		return res.Sites, nil
	}
	if res == nil || res.Sites != 0 {
		return 0, err
	}
	return 0, nil // nothing to split is not a failure
}

// buildProtectedObject swaps verification functions for loader stubs,
// adds the gadget pool and chain/frame data to a copy of the compiled
// and rewritten base object, and links. The copy is shallow: the pass
// edits only its own Funcs and Data slices (entries are replaced,
// dropped or appended, never modified in place), and Link reads its
// object without writing it, so every pass starts from the same base.
func buildProtectedObject(base *image.Object, m *ir.Module, verify []string, frameWords map[string]int,
	opts Options, cfgs map[string]dyngen.Config,
	chainLens, exitIdxs, offsLens, idxLens map[string]int) (*image.Image, error) {

	obj := &image.Object{
		Funcs: slices.Clone(base.Funcs),
		Data:  slices.Clone(base.Data),
		Entry: base.Entry,
	}
	if err := chain.AddPool(obj, opts.PoolCopies); err != nil {
		return nil, err
	}
	for _, fn := range verify {
		f := m.Func(fn)
		cfg := cfgs[fn]
		decoder := ""
		if cfg.Mode != dyngen.ModeStatic {
			decoder = cfg.DecoderName()
		}
		checker := ""
		if opts.ChecksumChains {
			checker = dyngen.CheckerName(fn)
		}
		loader, err := chain.Loader(chain.LoaderConfig{
			FuncName:     fn,
			NumParams:    f.NumParams,
			FrameWords:   frameWords[fn],
			ExitPtrIndex: exitIdxs[fn], // 0 in pass 1
			Decoder:      decoder,
			Checker:      checker,
		})
		if err != nil {
			return nil, err
		}
		replaceFunc(obj, loader)
		size := chainLens[fn]
		if size == 0 {
			size = 4 // pass-1 placeholder
		}
		if err := chain.ReserveData(obj, fn, size, frameWords[fn]); err != nil {
			return nil, err
		}
		if err := dyngen.Reserve(obj, cfg, size, offsLens[fn], idxLens[fn]); err != nil {
			return nil, err
		}
	}
	var img *image.Image
	var err error
	opts.Obs.Stage("layout", func() {
		img, err = image.Link(obj, opts.Layout)
	})
	if err != nil {
		return nil, err
	}
	return img, nil
}

func replaceFunc(obj *image.Object, nf *image.Func) {
	for i, f := range obj.Funcs {
		if f.Name == nf.Name {
			obj.Funcs[i] = nf
			return
		}
	}
	obj.Funcs = append(obj.Funcs, nf)
}

func symResolver(img *image.Image) func(string) (uint32, bool) {
	return func(name string) (uint32, bool) {
		s, ok := img.Symbol(name)
		return s.Addr, ok
	}
}

func dedup(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// ProtectedByteStats reports how much of the application's code the
// installed verification chains actually guard: bytes inside gadgets
// the chains execute, measured over application functions (pool and
// loader stubs excluded).
type ProtectedByteStats struct {
	// AppBytes is the application-code byte count.
	AppBytes int
	// GuardedBytes counts app-code bytes overlapped by chain-used
	// gadgets: modifying any of them derails a chain.
	GuardedBytes int
	// GuardedFuncs counts application functions containing at least
	// one chain-used gadget.
	GuardedFuncs int
	// TotalFuncs counts application functions.
	TotalFuncs int
}

// Percent returns guarded bytes as a percentage of application code.
func (s ProtectedByteStats) Percent() float64 {
	if s.AppBytes == 0 {
		return 0
	}
	return 100 * float64(s.GuardedBytes) / float64(s.AppBytes)
}

// ProtectedBytes computes the coverage statistics of this protection.
func (p *Protected) ProtectedBytes() ProtectedByteStats {
	verifySet := make(map[string]bool, len(p.VerifyFuncs))
	for _, v := range p.VerifyFuncs {
		verifySet[v] = true
	}
	type span struct{ lo, hi uint32 }
	var spans []span
	var stats ProtectedByteStats
	for _, s := range p.Image.Funcs() {
		if len(s.Name) >= 2 && s.Name[:2] == ".." || verifySet[s.Name] {
			continue
		}
		spans = append(spans, span{s.Addr, s.Addr + s.Size})
		stats.AppBytes += int(s.Size)
		stats.TotalFuncs++
	}
	guardedFuncs := make(map[int]bool)
	counted := make(map[uint32]bool)
	for _, ch := range p.Chains {
		for _, g := range ch.Gadgets() {
			lo, hi := g.Range()
			for a := lo; a < hi; a++ {
				for i, sp := range spans {
					if a >= sp.lo && a < sp.hi {
						if !counted[a] {
							counted[a] = true
							stats.GuardedBytes++
						}
						guardedFuncs[i] = true
					}
				}
			}
		}
	}
	stats.GuardedFuncs = len(guardedFuncs)
	return stats
}
