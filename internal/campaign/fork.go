package campaign

import (
	"bytes"
	"context"

	"parallax/internal/attack"
	"parallax/internal/emu"
	"parallax/internal/image"
)

// Fork-point scheduling. A mutant differs from the clean image in a
// few bytes, and its run is the clean run, instruction for instruction,
// until it first fetches, reads or writes one of them: until then both
// runs see the same memory, registers and kernel. The production path
// therefore records the clean run once — fork points at fixed
// instruction intervals plus the exit state, and the first-touch
// instruction of every image byte — and starts each mutant from the
// last fork point before its first touch instead of the entry point.
// A mutant whose bytes the clean run never touches resumes at the exit
// state and finishes in zero instructions. The reference path
// (Config.Reload) records nothing and replays every mutant from the
// entry point: it is the oracle the differential tests hold the
// production path to.

// maxRecordSpan bounds the address span a recording's first-touch map
// covers (4 bytes per byte of span). Images whose sections spread
// wider are campaigned without fork points.
const maxRecordSpan = 64 << 20

// reference runs the clean image once, on the engine of cfg's path,
// and returns its result. The reference path (cfg.Reload) returns no
// recording. On the production path the run is recorded on tb, the
// recorder's only feed, with the campaign's shared catalog (cfg.cat),
// so the workers adopt the clean run's translations instead of making
// their own; the recording's wall time goes into cfg.Obs as the
// campaign.record stage: it is the serial floor of every campaign. A
// recording without fork points — a run that is too long or an image
// too sparse to record, or a failed run — makes every mutant replay
// from the entry point.
func reference(ctx context.Context, img *image.Image, cfg Config) (attack.RunResult, *emu.Recording) {
	runCfg := attack.RunConfig{
		Stdin: cfg.Stdin, MaxInst: cfg.MaxInst,
		MemBudget: cfg.MemBudget, StackSize: cfg.StackSize,
		Obs: cfg.Obs, Engine: cfg.engine(), Catalog: cfg.cat,
	}
	if cfg.Reload {
		return attack.RunWith(ctx, img, runCfg), nil
	}
	lo, hi := recordSpan(img)
	if cfg.MaxInst >= 1<<32 || hi-lo > maxRecordSpan {
		return attack.RunWith(ctx, img, runCfg), &emu.Recording{}
	}
	defer cfg.Obs.StartSpan("campaign.record").End()
	cpu, err := attack.Load(img, runCfg)
	if err != nil {
		return attack.RunResult{Err: err}, &emu.Recording{}
	}
	rec := cpu.Record(lo, hi)
	runCfg.CPU = cpu
	res := attack.RunWith(ctx, img, runCfg)
	if err := rec.Finish(); err != nil || res.Err != nil {
		return res, &emu.Recording{}
	}
	cfg.Obs.Counter("campaign.fork_points").Add(uint64(len(rec.Forks())))
	return res, rec
}

// recordSpan is the address span of the image's initialized bytes:
// every byte an in-memory mutant patches or a serialized-form mutant
// can change without changing the section layout.
func recordSpan(img *image.Image) (lo, hi uint32) {
	lo = ^uint32(0)
	for _, s := range img.Sections {
		if len(s.Data) > 0 {
			lo = min(lo, s.Addr)
			hi = max(hi, s.Addr+uint32(len(s.Data)))
		}
	}
	if hi == 0 {
		return 0, 0
	}
	return lo, hi
}

// byteDiff is one initialized byte where a loaded serialized-form
// mutant differs from the base image.
type byteDiff struct {
	addr uint32
	b    byte
}

// serialFork returns the fork point a loaded serialized-form mutant
// resumes from, plus the bytes to re-poke after applying it. Only a
// mutant with the base image's entry point and section layout (names,
// addresses, sizes, permissions, initialized lengths) loads into the
// same machine state up to its differing bytes; any other returns nil
// and replays from the entry point, as does every mutant on the
// reference path (rec nil).
func serialFork(rec *emu.Recording, base, loaded *image.Image) (*emu.ForkPoint, []byteDiff) {
	if rec == nil || loaded.Entry != base.Entry || len(loaded.Sections) != len(base.Sections) {
		return nil, nil
	}
	var diffs []byteDiff
	t := uint32(0) // first touch of any differing byte; 0 = never
	for i, s := range loaded.Sections {
		b := base.Sections[i]
		if s.Name != b.Name || s.Addr != b.Addr || s.Size != b.Size || s.Perm != b.Perm ||
			len(s.Data) != len(b.Data) {
			return nil, nil
		}
		if bytes.Equal(s.Data, b.Data) {
			continue
		}
		for off := range s.Data {
			if s.Data[off] == b.Data[off] {
				continue
			}
			addr := s.Addr + uint32(off)
			diffs = append(diffs, byteDiff{addr, s.Data[off]})
			if f := rec.FirstTouch(addr, 1); f != 0 && (t == 0 || f < t) {
				t = f
			}
		}
	}
	return rec.Before(t), diffs
}
