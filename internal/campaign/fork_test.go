package campaign

import (
	"bytes"
	"context"
	"testing"
	"time"

	"parallax/internal/attack"
	"parallax/internal/chaos"
	"parallax/internal/core"
	"parallax/internal/corpus/gen"
	"parallax/internal/dyngen"
	"parallax/internal/emu"
	"parallax/internal/emu/forktest"
	"parallax/internal/image"
	"parallax/internal/obs"
)

// assertForkMatchesReload is the fork-point differential: the same
// mutants on the snapshot path (fork-point scheduling, cfg.Engine) and
// on the clone+reload reference path (interpreter, every mutant
// replayed from the entry point) must classify alike, mutant by mutant,
// and count identical emu.insts and emu.runs — a resumed mutant's final
// Icount includes the clean prefix it inherited, so it equals the full
// replay's (without fault injection). It returns the snapshot path's
// classes.
func assertForkMatchesReload(t *testing.T, prot *core.Protected, mutants []Mutant, cfg Config) []Class {
	t.Helper()
	cfg = cfg.withDefaults()
	clean := attack.RunWith(context.Background(), prot.Image, attack.RunConfig{Stdin: cfg.Stdin, MaxInst: cfg.MaxInst})
	if clean.Err != nil {
		t.Fatalf("clean run: %v", clean.Err)
	}
	run := func(cfg Config) ([]Class, map[string]uint64) {
		reg := obs.NewRegistry()
		cfg.Obs = reg
		classes, panics, err := executeAll(context.Background(), prot, mutants, clean, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if panics != 0 {
			t.Fatalf("%d harness panics", panics)
		}
		return classes, reg.Snapshot().Counters
	}
	ref := cfg
	ref.Engine, ref.Reload, ref.cat = "", true, nil
	want, rc := run(ref)
	got, fc := run(cfg)
	diverged := 0
	for i := range mutants {
		if want[i] != got[i] {
			if diverged++; diverged <= 10 {
				t.Errorf("mutant %d (%v): reload=%v fork points=%v", i, mutants[i], want[i], got[i])
			}
		}
	}
	if diverged > 0 {
		t.Fatalf("%d of %d mutants classified differently", diverged, len(mutants))
	}
	for _, c := range []string{"emu.insts", "emu.runs"} {
		// An injected stdin cut stops a full replay at the read(2) that
		// crossed it, but a resumed run at its fork point: same class,
		// different final Icount.
		if rc[c] != fc[c] && (c == "emu.runs" || cfg.Chaos == nil) {
			t.Errorf("%s: reload path %d, fork-point path %d", c, rc[c], fc[c])
		}
	}
	if rc["campaign.inherited_insts"] != 0 {
		t.Error("the reload path inherited instructions")
	}
	if fc["campaign.inherited_insts"] == 0 {
		t.Error("the snapshot path resumed no mutant from a fork point")
	}
	return got
}

// TestForkAccounting pins the accounting identity: executed
// instructions are emu.insts − campaign.inherited_insts, where
// campaign.inherited_insts is the sum of the fork-point Icounts the
// mutants resumed from, and campaign.fork_points counts the recording's
// fork points including the exit state. The recording run's wall time
// is the campaign.record stage, one span per campaign on the snapshot
// path and none on the reload path.
func TestForkAccounting(t *testing.T) {
	prot := protectedTarget(t)
	cfg := Config{Workers: 2, Stride: 3, MaxMutants: 400, MaxInst: 2_000_000, Timeout: 60 * time.Second}
	runs := map[bool]map[string]uint64{}
	for _, reload := range []bool{true, false} {
		reg := obs.NewRegistry()
		rcfg := cfg
		rcfg.Reload, rcfg.Obs = reload, reg
		if _, err := Run(context.Background(), prot, rcfg); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		runs[reload] = snap.Counters
		st, ok := snap.Stages["campaign.record"]
		switch {
		case reload && ok:
			t.Error("the reload path timed a recording run")
		case !reload && (st.Count != 1 || st.TotalNanos <= 0):
			t.Errorf("campaign.record stage: %d spans totalling %v, want one recording run", st.Count, st.Total())
		}
	}
	if r, f := runs[true]["emu.insts"], runs[false]["emu.insts"]; r != f {
		t.Errorf("emu.insts: reload path %d, fork-point path %d", r, f)
	}

	cfg = cfg.withDefaults()
	clean, rec := reference(context.Background(), prot.Image, cfg)
	mutants, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := serialize(t, prot.Image)
	var inherited uint64
	for _, m := range mutants {
		if m.Kind == KindSerial {
			loaded, err := image.ReadFrom(bytes.NewReader(m.corruptSerial(stream)))
			if err != nil {
				continue
			}
			if fp, _ := serialFork(rec, prot.Image, loaded); fp != nil {
				inherited += fp.Icount
			}
			continue
		}
		if writableAt(prot.Image, m.Addr, uint32(m.Len)) != nil {
			continue
		}
		if fp := rec.Before(rec.FirstTouch(m.Addr, uint32(m.Len))); fp != nil {
			inherited += fp.Icount
		}
	}
	c := runs[false]
	if got := c["campaign.inherited_insts"]; got != inherited {
		t.Errorf("campaign.inherited_insts = %d, want %d", got, inherited)
	}
	if got, want := c["campaign.fork_points"], uint64(len(rec.Forks())); got != want || want < 2 {
		t.Errorf("campaign.fork_points = %d, want %d (at least one periodic plus the exit state)", got, want)
	}
	if runs[true]["campaign.fork_points"] != 0 || runs[true]["campaign.inherited_insts"] != 0 {
		t.Error("the reload path recorded or resumed from fork points")
	}
	executed := c["emu.insts"] - c["campaign.inherited_insts"]
	if executed <= clean.Icount || executed >= c["emu.insts"] {
		t.Errorf("executed %d instructions of emu.insts %d (clean run %d)", executed, c["emu.insts"], clean.Icount)
	}
	t.Logf("emu.insts %d, inherited %d, executed %d (%.1f%%)", c["emu.insts"], inherited, executed,
		100*float64(executed)/float64(c["emu.insts"]))
}

func enumerate(t *testing.T, prot *core.Protected, cfg Config) []Mutant {
	t.Helper()
	mutants, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mutants
}

func serialize(t *testing.T, img *image.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestForkDifferentialWgetIdle: the production tb configuration against
// the interpreter reload oracle on wget's idle workload.
func TestForkDifferentialWgetIdle(t *testing.T) {
	if raceEnabled {
		t.Skip("corpus differential skipped under -race (covered by the synthetic target)")
	}
	prot, stdin := protectedCorpus(t, "wget")
	cfg := Config{Workers: 2, Engine: "tb", Stride: 11, MaxMutants: 120,
		MaxInst: 6_000_000, Timeout: 60 * time.Second, Stdin: stdin}
	assertForkMatchesReload(t, prot, enumerate(t, prot, cfg), cfg)
}

// TestForkDifferentialGenHeavy: a generated small image under the heavy
// workload, which reads stdin and runs cold bodies late in the run —
// the campaign-cold shape.
func TestForkDifferentialGenHeavy(t *testing.T) {
	if raceEnabled {
		t.Skip("generated-image differential skipped under -race (covered by the synthetic target)")
	}
	fam, err := gen.FamilyByName("small")
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.FamilyProgram(fam, 1)
	if err != nil {
		t.Fatal(err)
	}
	heavy, _ := p.Workload("heavy")
	prot, err := core.Protect(p.Build(), core.Options{VerifyFuncs: []string{p.VerifyFunc}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 2, Engine: "tb", Stride: 1499, MaxMutants: 120,
		MaxInst: 4_000_000, Timeout: 60 * time.Second, Stdin: heavy}
	assertForkMatchesReload(t, prot, enumerate(t, prot, cfg), cfg)
}

// TestForkDifferentialSMC: an xor-chain target rewrites chain-guarded
// bytes on every run, so fork points carry self-modified pages; 4
// workers share the catalog.
func TestForkDifferentialSMC(t *testing.T) {
	prot, err := core.Protect(targetModule(t), core.Options{
		VerifyFuncs: []string{"mix"}, ChainMode: dyngen.ModeXor,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 4, Engine: "tb", Stride: 3, MaxMutants: 300,
		MaxInst: 2_000_000, Timeout: 60 * time.Second}
	assertForkMatchesReload(t, prot, enumerate(t, prot, cfg), cfg)
}

// TestForkDifferentialSerial: serialized-form mutants alone, dense
// enough that flips land in section data the clean run touches late or
// never — the loaded-image path that applies a fork point and re-pokes
// the differing bytes.
func TestForkDifferentialSerial(t *testing.T) {
	prot := protectedTarget(t)
	stream := serialize(t, prot.Image)
	var mutants []Mutant
	for off := 0; off < len(stream); off += 3 {
		mutants = append(mutants, Mutant{Kind: KindSerial, Region: serialRegion,
			Addr: uint32(off), Len: 1, Bit: uint8(off % 8)})
	}
	cfg := Config{Workers: 4, Engine: "tb", MaxInst: 2_000_000, Timeout: 60 * time.Second}.withDefaults()
	assertForkMatchesReload(t, prot, mutants, cfg)

	// The differential only bites where a fork point's clean page
	// overwrites a differing byte the resumed run later reads: count
	// those mutants.
	_, rec := reference(context.Background(), prot.Image, cfg)
	var resumed, touched int
	for _, m := range mutants {
		loaded, err := image.ReadFrom(bytes.NewReader(m.corruptSerial(stream)))
		if err != nil {
			continue
		}
		fp, diffs := serialFork(rec, prot.Image, loaded)
		if fp == nil {
			continue
		}
		resumed++
		for _, d := range diffs {
			if rec.FirstTouch(d.addr, 1) != 0 {
				touched++
				break
			}
		}
	}
	if resumed == 0 || touched == 0 {
		t.Errorf("%d serialized-form mutants resumed from a fork point, %d of them before touching a differing byte",
			resumed, touched)
	}
}

// TestForkStdinCutBeforeResume: with every run's stdin cut by an
// injected fault, a mutant resumed from a fork point past the cut must
// still classify as an infra error, because the resume consumes the
// clean run's stdin through the same faulting reader. Mutant by mutant,
// the snapshot path must match the reload path under the same plan.
func TestForkStdinCutBeforeResume(t *testing.T) {
	prot, heavy := workloadTarget(t)
	cfg := Config{Workers: 2, Engine: "tb", Stride: 5, MaxMutants: 200,
		MaxInst: 4_000_000, Timeout: 60 * time.Second, Stdin: heavy,
		Chaos: chaos.New(chaos.Plan{Seed: 7, Faults: []chaos.Fault{{Point: chaos.PointStdinRead, Prob: 1}}}, nil)}
	infra := 0
	for _, c := range assertForkMatchesReload(t, prot, enumerate(t, prot, cfg), cfg) {
		if c == ClassInfraError {
			infra++
		}
	}
	if infra == 0 {
		t.Error("no mutant classified as an infra error under a stdin cut on every run")
	}
}

// TestForkDifferentialDense mutates every byte of two small
// hand-written targets (stride 1) and holds each mutant to the full
// replay, under both engines. forktest.Phased rewrites its own code and
// reads stdin in pieces between fork points; forktest.Probe reads a
// data word inside the recorded run's first chain and leaves data and
// code untouched. A first touch recorded later than the true one, or a
// touched byte recorded as never touched, resumes some mutant past the
// point where it diverges and shows here as a class difference.
func TestForkDifferentialDense(t *testing.T) {
	for _, tg := range []struct {
		name  string
		img   *image.Image
		stdin []byte
	}{
		{"phased", forktest.Phased(), []byte(forktest.Stdin)},
		{"probe", forktest.Probe(), nil},
	} {
		prot := &core.Protected{Image: tg.img}
		for _, engine := range []emu.Engine{emu.Interp, emu.TB} {
			t.Run(tg.name+"/"+string(engine), func(t *testing.T) {
				cfg := Config{Workers: 2, Engine: engine, Stride: 1, MaxInst: 20_000,
					Timeout: time.Minute, Stdin: tg.stdin}
				mutants := enumerate(t, prot, cfg)
				classes := assertForkMatchesReload(t, prot, mutants, cfg)
				silent := 0
				for _, c := range classes {
					if c == ClassSilent {
						silent++
					}
				}
				if silent == 0 || silent == len(classes) {
					t.Errorf("%d of %d mutants silent: the differential needs both outcomes", silent, len(classes))
				}
			})
		}
	}
}
