package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parallax/internal/attack"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/emu"
	"parallax/internal/farm"
	"parallax/internal/image"
	"parallax/internal/ir"
	"parallax/internal/obs"
)

// module is one protect input: a built IR module plus what its clean
// run needs.
type module struct {
	name   string
	ir     *ir.Module
	verify string
	stdin  []byte
}

// buildModule generates (or builds) the program's module.
func buildModule(p corpus.Program, stdin []byte) module {
	return module{name: p.Name, ir: p.Build(), verify: p.VerifyFunc, stdin: stdin}
}

// batchMix is the protect-batch draw: how many generated modules of
// each family one round protects, besides the six hand-written programs.
type batchMix map[string]int

// defaultBatchMix spans three size decades. The one medium module
// (1.6 MiB, ~5 s cold on one core) sets the round's critical path; the
// 16 KiB families give the latency distribution its body.
var defaultBatchMix = batchMix{
	"medium": 1, "small": 2, "callheavy": 2,
	"tiny": 3, "branchy": 3, "stringy": 3, "muldiv": 3,
}

// genPool is how many generator seeds (1..n) each family draws from.
// Every module in these pools protects to an image whose clean run
// matches its baseline; a generated module outside them can protect to
// an image that faults (gen-tiny-s149853 faults after 74 instructions
// on both engines), which would fail the correctness check instead of
// measuring anything.
var genPool = map[string]int{
	"tiny": 32, "branchy": 32, "stringy": 32, "muldiv": 32,
	"callheavy": 8, "small": 8, "medium": 4,
}

// drawBatch builds the seeded draw: for every family in mix, that many
// distinct generator seeds from the family's pool, then the
// hand-written programs.
func drawBatch(seed uint64, mix batchMix) ([]module, error) {
	r := rand.New(rand.NewPCG(seed, 0x70726f74656374))
	fams := make([]string, 0, len(mix))
	for f := range mix {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	var mods []module
	for _, name := range fams {
		fam, err := gen.FamilyByName(name)
		if err != nil {
			return nil, err
		}
		if mix[name] > genPool[name] {
			return nil, fmt.Errorf("family %s: %d modules from a pool of %d", name, mix[name], genPool[name])
		}
		for _, i := range r.Perm(genPool[name])[:mix[name]] {
			p, err := gen.FamilyProgram(fam, uint64(i+1))
			if err != nil {
				return nil, err
			}
			mods = append(mods, buildModule(p, p.Stdin))
		}
	}
	for _, p := range corpus.All() {
		mods = append(mods, buildModule(p, p.Stdin))
	}
	return mods, nil
}

// batchStream orders one round: every module once in the first half
// and once more in the second half, each half shuffled. The largest
// module leads the first half and closes the second, so its first copy
// starts at once and the stream never ends on its cold copy.
func batchStream(seed uint64, mods []module) []int {
	r := rand.New(rand.NewPCG(seed, 0x73747265616d))
	big := 0
	for i, m := range mods {
		if len(m.ir.Funcs) > len(mods[big].ir.Funcs) {
			big = i
		}
	}
	var rest []int
	for i := range mods {
		if i != big {
			rest = append(rest, i)
		}
	}
	shuffled := func() []int {
		s := append([]int(nil), rest...)
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	stream := append([]int{big}, shuffled()...)
	stream = append(stream, shuffled()...)
	return append(stream, big)
}

// job is one protect request as the closed loop saw it.
type job struct {
	mod     int
	res     farm.Result
	latency time.Duration // Submit → Done, measured by the client
	reg     *obs.Registry // the job's core.Options.Obs (traced runs only)
}

// protectStream pushes stream (indices into mods) through f from
// `clients` closed-loop clients: each submits its next job only after
// the previous one is done. With tr set, every job gets a core.Options.Obs
// registry and a span whose children are the job's stage totals.
func protectStream(ctx context.Context, f *farm.Farm, mods []module, stream []int, clients int, tr *tracer) ([]job, time.Duration) {
	jobs := make([]job, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				jobs[i] = submit(ctx, f, mods, stream[i], tr)
			}
		}()
	}
	wg.Wait()
	return jobs, time.Since(start)
}

// submit runs one job through the farm and waits for it.
func submit(ctx context.Context, f *farm.Farm, mods []module, mi int, tr *tracer) job {
	m := mods[mi]
	opts := core.Options{VerifyFuncs: []string{m.verify}}
	j := job{mod: mi}
	var sid, run int
	if tr != nil {
		j.reg = obs.NewRegistry()
		opts.Obs = j.reg
		run = tr.newRun()
		sid = tr.begin("farm.job", 0, run)
	}
	t0 := time.Now()
	fj, err := f.Submit(ctx, m.name, m.ir, opts)
	if err == nil {
		j.res, err = fj.Wait(ctx)
	}
	if err != nil {
		j.res.Err = err
	}
	j.latency = time.Since(t0)
	if tr != nil {
		sp := tr.end(sid)
		// The registry holds stage totals, not intervals: lay them end
		// to end from the job's start so the job's self time is its
		// latency minus the pipeline time its stages account for.
		at := sp.Start
		snap := j.reg.Snapshot()
		for _, st := range coreStages {
			d := snap.Stages[st].Total()
			tr.add("core."+st, sid, run, at, at+d)
			at += d
		}
	}
	return j
}

// coreStages are the pipeline stages core.Protect times into
// Options.Obs.
var coreStages = []string{"codegen", "rewrite", "layout", "scan", "chain-compile", "install"}

// runProtectBatch is the protect-batch workload.
func runProtectBatch(rc runConfig) (*outcome, error) {
	return protectBatch(context.Background(), rc, defaultBatchMix)
}

func protectBatch(ctx context.Context, rc runConfig, mix batchMix) (*outcome, error) {
	out := &outcome{}
	var mods []module
	setup, err := repeatSetup(rc, func() error {
		var err error
		mods, err = drawBatch(rc.seed, mix)
		return err
	})
	if err != nil {
		return nil, err
	}
	stream := batchStream(rc.seed, mods)

	seen := newCopies(mods)
	if rc.trace {
		// One untraced round, then the traced one: their difference is
		// the tracing overhead.
		f := farm.New(farm.Config{Workers: rc.workers})
		untraced, plain := protectStream(ctx, f, mods, stream, rc.workers, nil)
		f.Close()
		seen.add(out, untraced)
		tr := newTracer()
		freg := obs.NewRegistry()
		f = farm.New(farm.Config{Workers: rc.workers, Obs: freg})
		traced, wall := protectStream(ctx, f, mods, stream, rc.workers, tr)
		f.Close()
		seen.add(out, traced)
		out.spans = tr.snapshot()
		protectLayerMetrics(out, traced, freg)
		campaignLayerMetrics(out, nil)
		out.set("trace.overhead_s", (wall - plain).Seconds(), "s")
	} else {
		var elapsed, fastest time.Duration
		// Rounds continue while another round of the mean length so far
		// still fits in the measuring time. ops_per_s is the fastest
		// round's, for the reason timeCampaign gives.
		for rounds := 0; rounds == 0 || elapsed+elapsed/time.Duration(rounds) <= rc.seconds; rounds++ {
			// Each round starts from a collected heap, so one round's
			// garbage neither slows the next nor inflates peak_rss_mb.
			runtime.GC()
			f := farm.New(farm.Config{Workers: rc.workers})
			jobs, wall := protectStream(ctx, f, mods, stream, rc.workers, nil)
			f.Close()
			elapsed += wall
			if rounds == 0 || wall < fastest {
				fastest = wall
			}
			seen.add(out, jobs)
		}
		out.set("setup_s", setup, "s")
		out.set("ops_per_s", float64(len(stream))/fastest.Seconds(), "1/s")
	}
	sizeRatio, overhead := seen.verify(ctx, out)
	if !rc.trace {
		out.set("protected_size_ratio", sizeRatio, "ratio")
		out.set("overhead_pct", overhead, "%")
	}
	return out, nil
}

// repeatSetup runs set-up at least five times and for at least
// setupTime, and returns the median duration, so neither the first,
// cold set-up nor a disturbed one decides setup_s; a short set-up
// (protect-batch's is ~0.15 s) gets more repeats. Traced runs set up
// once.
func repeatSetup(rc runConfig, f func() error) (float64, error) {
	n, least := 5, setupTime
	if rc.trace {
		n, least = 1, 0
	}
	var ds []time.Duration
	var total time.Duration
	for len(ds) < n || total < least {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0))
		total += ds[len(ds)-1]
	}
	return median(seconds(ds)), nil
}

const setupTime = 3 * time.Second

// copies checks a batch's outputs outside the timed region. It keeps
// only the images of each module's first copy, so memory does not grow
// with the number of rounds.
type copies struct {
	mods   []module
	first  []*firstCopy
	digest [][32]byte
}

type firstCopy struct{ image, baseline *image.Image }

func newCopies(mods []module) *copies {
	return &copies{mods: mods, first: make([]*firstCopy, len(mods)), digest: make([][32]byte, len(mods))}
}

// add counts a round's jobs and checks that every copy of a module is
// byte-identical to its first copy.
func (c *copies) add(out *outcome, jobs []job) {
	out.attempted += len(jobs)
	for _, j := range jobs {
		if j.res.Err != nil {
			out.failed++
			continue
		}
		name := c.mods[j.mod].name
		d, err := imageDigest(j.res.Protected.Image)
		if err != nil {
			out.fail("%s: serializing protected image: %v", name, err)
			continue
		}
		if c.first[j.mod] == nil {
			c.first[j.mod] = &firstCopy{j.res.Protected.Image, j.res.Protected.Baseline}
			c.digest[j.mod] = d
		} else if d != c.digest[j.mod] {
			out.fail("%s: a repeated job's image differs from the first copy's", name)
		}
	}
}

// verify runs each module's protected image and its baseline once and
// checks that they agree in status and stdout. It returns the summed
// protected/baseline image-size ratio and the cycle-model overhead of
// the protected images over their baselines.
func (c *copies) verify(ctx context.Context, out *outcome) (sizeRatio, overheadPct float64) {
	var protBytes, baseBytes, protCycles, baseCycles float64
	for i, p := range c.first {
		if p == nil {
			continue
		}
		m := c.mods[i]
		prot, err := cleanRun(ctx, p.image, m.stdin)
		if err != nil {
			out.fail("%s: protected clean run: %v", m.name, err)
			continue
		}
		base, err := cleanRun(ctx, p.baseline, m.stdin)
		if err != nil {
			out.fail("%s: baseline clean run: %v", m.name, err)
			continue
		}
		if prot.Status != base.Status || prot.Stdout != base.Stdout {
			out.fail("%s: protected run (status %d) differs from baseline (status %d)", m.name, prot.Status, base.Status)
		}
		protBytes += float64(imageSize(p.image))
		baseBytes += float64(imageSize(p.baseline))
		protCycles += float64(prot.cycles)
		baseCycles += float64(base.cycles)
	}
	return ratio(protBytes, baseBytes), 100 * ratio(protCycles-baseCycles, baseCycles)
}

// cleanResult is a reference run with its cycle-model cost.
type cleanResult struct {
	attack.RunResult
	cycles uint64
}

// cleanRunMaxInst bounds reference runs; every workload program exits
// well within it.
const cleanRunMaxInst = 200_000_000

// cleanRun runs an image to exit on the tb engine and returns its
// observable outcome plus its cycle count.
func cleanRun(ctx context.Context, img *image.Image, stdin []byte) (cleanResult, error) {
	cpu, err := emu.LoadImageWith(img, emu.LoadConfig{})
	if err != nil {
		return cleanResult{}, err
	}
	res := attack.RunWith(ctx, img, attack.RunConfig{
		Stdin: stdin, MaxInst: cleanRunMaxInst, CPU: cpu, Engine: "tb",
	})
	if res.Err != nil {
		return cleanResult{}, res.Err
	}
	return cleanResult{RunResult: res, cycles: cpu.Cycles}, nil
}

func imageBytes(img *image.Image) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func imageDigest(img *image.Image) ([32]byte, error) {
	b, err := imageBytes(img)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// imageSize is the serialized size of an image (0 if it cannot be
// serialized, which checkProtected has already reported).
func imageSize(img *image.Image) int {
	b, _ := imageBytes(img)
	return len(b)
}

// protectLayerMetrics reports the farm and core layers of a traced
// protect stream.
func protectLayerMetrics(out *outcome, jobs []job, freg *obs.Registry) {
	var waits, lats []float64
	stage := map[string]time.Duration{}
	var passes, scanned float64
	gadgets := map[int]int{}
	for _, j := range jobs {
		waits = append(waits, j.res.QueueWait.Seconds())
		lats = append(lats, j.latency.Seconds())
		snap := j.reg.Snapshot()
		for _, st := range coreStages {
			stage[st] += snap.Stages[st].Total()
		}
		passes += float64(snap.Stages["scan"].Count)
		if p := j.res.Protected; p != nil {
			if text := p.Image.Text(); text != nil {
				scanned += float64(len(text.Data)) * float64(j.res.ScanMisses)
			}
			gadgets[j.mod] = len(p.Catalog.Gadgets)
		}
	}
	c := freg.Snapshot().Counters
	out.set("farm.queue_wait_p50_s", median(waits), "s")
	out.set("farm.job_p50_s", percentile(lats, 0.5), "s")
	out.set("farm.job_p90_s", percentile(lats, 0.9), "s")
	out.set("farm.scan_hit_ratio", ratio(float64(c["farm.scan_cache_hits"]),
		float64(c["farm.scan_cache_hits"]+c["farm.scan_cache_misses"])), "ratio")
	out.set("farm.hint_hit_ratio", ratio(float64(c["farm.hint_cache_hits"]),
		float64(c["farm.hint_cache_hits"]+c["farm.hint_cache_misses"])), "ratio")
	for _, st := range coreStages {
		out.set(stageMetric(st), stage[st].Seconds(), "s")
	}
	out.set("core.fixpoint_passes", passes, "count")
	out.set("core.scan_bytes_per_s", ratio(scanned, stage["scan"].Seconds()), "B/s")
	total := 0
	for _, n := range gadgets {
		total += n
	}
	out.set("gadget.catalog_gadgets", float64(total), "count")
}

// stageMetric names a core stage's per-layer metric.
func stageMetric(st string) string {
	if st == "chain-compile" {
		return "core.chain_compile_s"
	}
	return "core." + st + "_s"
}
