#!/usr/bin/env bash
# ci.sh — the repository's verification entry point.
#
# Runs the full gate: build, vet, tests with a ratcheted coverage
# minimum, the race detector over the concurrent subsystems
# (internal/farm is genuinely parallel; the race pass also replays the
# internal/obs golden-trace tests with the tracer under the detector),
# and short fuzz smoke runs of the decoder-facing fuzz targets.
#
# Usage:
#   ./ci.sh            # everything (~a few minutes)
#   FUZZTIME=0 ./ci.sh # skip the fuzz smoke runs
set -euo pipefail
cd "$(dirname "$0")"

FUZZTIME="${FUZZTIME:-10s}"

# Statement-coverage ratchet: the recorded baseline is the repo-wide
# `go test -cover ./...` total at the time it was last raised. The
# gate fails when coverage drops more than 2 points below it; raise
# the baseline when new tests push the total up.
COVERAGE_BASELINE=70.6

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# The benchmark's program is the nested perfbench module, which the root
# `./...` patterns skip. Build and vet it offline, with the settings
# perfbench/run.sh uses, so an internal API change that breaks the
# benchmark fails here.
echo "==> perfbench: go build + go vet (nested module)"
(cd perfbench && export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off && go build ./... && go vet ./...)

echo "==> go test -cover ./..."
coverprofile=$(mktemp -t parallax-cover.XXXXXX)
tbrecord=$(mktemp -t parallax-bench-tb.XXXXXX)
trap 'rm -f "$coverprofile" "$tbrecord"' EXIT
go test -coverprofile="$coverprofile" ./...
total=$(go tool cover -func="$coverprofile" | awk '/^total:/ {gsub(/%/,"",$3); print $3}')
echo "    total statement coverage: ${total}% (baseline ${COVERAGE_BASELINE}%)"
if awk -v t="$total" -v b="$COVERAGE_BASELINE" 'BEGIN { exit !(t + 2 < b) }'; then
    echo "FAIL: coverage ${total}% is more than 2 points below baseline ${COVERAGE_BASELINE}%" >&2
    exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

# Chaos smoke gate: a seeded fault plan over the wget campaign must
# degrade gracefully — every faulted cell classifies as an infra
# error, every untouched cell is byte-identical to the fault-free
# matrix — and a checkpointed campaign killed mid-flight (torn journal
# tail included) must resume to a byte-identical report. The -race
# variant replays the injection paths and the journal's concurrent
# appends under the detector on the compact synthetic target (the
# corpus sweep is too slow under the detector; see raceEnabled). The
# -race pass also reconciles the farm's registry against its per-job
# results under chaos (TestFarmReconciliation), replays the
# incidental-read load-gadget regression at the gadget, compiler and
# protect-then-run levels, and holds the incremental gadget rescan to a
# full scan (TestRescanMatchesScan, TestProtectIncrementalScanIdentical):
# rescanned catalogs share *Gadget values across passes and, through
# the farm's cache, across jobs. It also pins what one compile per
# protect job shares: the fixpoint passes' shallow copies of one base
# object and the baseline linked from it (TestProtectDigestGolden), and
# the farm's binary job key over every IR field and output-affecting
# option (TestWriteKey*, TestJobKey*). It also holds the encode-once
# linker to the earlier two-pass linker (TestLinkMatchesTwoPass) and
# x86.AppendEncode to Encode (TestAppendEncode): every fixpoint pass,
# the farm's concurrent jobs included, links through them.
echo "==> chaos smoke: seeded fault injection + checkpoint resume"
go test -run 'TestChaosCampaignGraceful|TestCheckpoint' ./internal/campaign
echo "==> chaos smoke (-race)"
go test -race ./internal/chaos
go test -race -run 'TestChaos|TestCheckpoint|TestTightDeadline|TestFarmReconciliation|TestClassifyLoadWithIncidentalRead|TestCompileSkipsLoadWithIncidentalRead|TestGenProtectedMatchesBaseline|TestRescanMatchesScan|TestProtectIncrementalScanIdentical|TestProtectDigestGolden|TestWriteKey|TestJobKey|TestLinkMatchesTwoPass|TestAppendEncode' \
    ./internal/campaign ./internal/farm ./internal/emu/tb ./internal/gadget ./internal/ropc ./internal/corpus/gen ./internal/core ./internal/ir ./internal/image ./internal/x86

# Campaign-engine hard gate: run the same enumerated wget campaign on
# the campaign's two execution paths — the reference path (interpreter,
# clone+reload per mutant) and the production path (tb, snapshot/restore,
# fork points, the campaign-wide shared translation catalog). The
# detection matrices must be byte-identical (the experiment itself exits
# non-zero and the IDENTICAL grep double-checks), and the production
# path must be at least as fast as the reference path. Per-mutant time
# is dominated by emulation, so the speed check allows 10% of wall-clock
# noise rather than failing on scheduler jitter; the speedup column
# (reference over production) is found by its header name.
echo "==> campaign-engine gate (production vs reference path, byte-identical matrices)"
engine_out=$(go run ./cmd/parallax-bench -experiment campaign-engine -progs wget -mutants 96)
echo "$engine_out"
if ! grep -q "IDENTICAL" <<<"$engine_out"; then
    echo "FAIL: campaign paths produced divergent detection matrices" >&2
    exit 1
fi
speedup=$(awk '$1 == "program" { for (i = 1; i <= NF; i++) if ($i == "speedup") col = i }
               col && $1 == "wget" { v = $col; gsub(/x$/, "", v); print v }' <<<"$engine_out")
if [[ -z "$speedup" ]] || awk -v s="$speedup" 'BEGIN { exit !(s < 0.90) }'; then
    echo "FAIL: production path slower than the reference path (speedup ${speedup:-unparsed}x)" >&2
    exit 1
fi

# Shared-catalog race smoke: the catalog's concurrent adopt/install
# paths across 4 campaign workers (plus the SMC variant) under the
# detector, and the fork-point differentials: the clean run recorded on
# tb into the shared catalog, workers adopting its translations and
# resuming mutants from the recording, each mutant held to the
# reference path's full replay (TestForkDifferentialDense at every
# byte), plus the tb recorder's own tests (TestRecording*).
echo "==> shared-catalog smoke (-race)"
go test -race -run 'TestDifferentialEngines|TestCatalog|TestFork|TestRecording' \
    ./internal/campaign ./internal/emu/tb

# Corpus-at-scale smoke: a trimmed generated-family sweep (8 programs,
# all stages — generate, invariant-check, baseline, protect, campaign —
# with the reference-path matrix-fingerprint hard gate inside
# CorpusSweep) plus the two-path table (reference vs production) on the
# 160 KiB family. IDENTICAL is the hard gate here too; at smoke scale BENCH_corpus.json is left untouched
# (only full-scale `-experiment corpus` runs record it).
echo "==> corpus smoke: generated-family sweep (-n 8)"
corpus_out=$(go run ./cmd/parallax-bench -experiment corpus -n 8)
echo "$corpus_out"
if ! grep -q "IDENTICAL" <<<"$corpus_out"; then
    echo "FAIL: corpus path table produced divergent detection matrices" >&2
    exit 1
fi

# Cold-coverage smoke gate: a trimmed idle/heavy × plain/composed
# sweep. The experiment itself exits non-zero when the workload fails
# to change the detection matrix (idle and heavy fingerprints equal on
# either image) or when the heavy/composed cold detection rate fails
# to rise above the idle/plain blind spot — those are the §VI-C
# acceptance claims, gated at smoke scale on every CI run. At this
# scale BENCH_coldcover.json is left untouched (only full-scale
# `-experiment coldcover` runs record it).
echo "==> coldcover smoke: workload + composition close the cold blind spot"
go run ./cmd/parallax-bench -experiment coldcover -families tiny -seeds 2 -mutants 48

# Farm fan-out smoke gate: 64 duplicate-heavy protect jobs across two
# worker counts. The experiment exits non-zero on any failed job, on a
# scan-miss count above the unique×workers concurrency ceiling (the
# content-addressed cache must convert every duplicate into a hit),
# or on any cross-worker-count output divergence.
echo "==> farm fan-out smoke: cache hit-rate and determinism at 64 jobs"
go run ./cmd/parallax-bench -experiment fanout -jobs 64 -unique 8 -workers 2,4

# The -race variant replays the cold-coverage campaign machinery (the
# four-cell sweep is too slow under the detector; the fan-out smoke
# exercises the farm's concurrency instead) over the composed
# differential test, which holds the production path (private caches
# and shared catalog, 4 workers) to the reference path's classification
# on a composed image under the heavy workload.
echo "==> composed-path smoke (-race)"
go test -race -run 'TestDifferentialEnginesComposed|TestFarmFanoutSmoke' \
    ./internal/campaign ./internal/experiment

# Differential-oracle hard gate: the gadget-biased generated batch,
# the corpus replay (baseline + protected binaries, hand-written six
# plus the 20-program generated-family slice in TestLockstepGenCorpus)
# and the reverted-bug demonstration must all hold in lockstep across
# all three engines — the production interpreter, the SDM-pseudocode
# reference, and the translation-block engine (internal/emu/tb; the
# TestLockstep* tests set Options.TB, so this gate holds tb to
# per-step interpreter equivalence too). Any reported divergence is a
# flag/semantics bug, not noise.
echo "==> differential oracle: three-way lockstep gate (generated batch + corpus replay)"
go test -run 'TestLockstep' ./internal/difftest

# Engine-throughput record: solo interp/ref/tb insts/s over the full
# corpus plus a three-way lockstep replay. The divergence column is
# the hard gate (the experiment exits non-zero on any divergence); the
# rates are informational because wall-clock varies by host, so the
# record goes to a temporary file and the checked-in BENCH_tb.json is
# only rewritten by a deliberate run without -tb-out.
echo "==> engine benchmark: difftest experiment"
go run ./cmd/parallax-bench -experiment difftest -progs wget,nginx,bzip2,gzip,gcc,lame -tb-out "$tbrecord"

if [[ "$FUZZTIME" != "0" ]]; then
    # FuzzLockstep replays every seed and mutation through the same
    # three-way oracle, so the tb engine is fuzzed alongside the
    # interpreters.
    echo "==> fuzz smoke: FuzzLockstep ($FUZZTIME)"
    go test -run='^$' -fuzz=FuzzLockstep -fuzztime="$FUZZTIME" ./internal/difftest
    echo "==> fuzz smoke: FuzzDecode ($FUZZTIME)"
    go test -run='^$' -fuzz=FuzzDecode -fuzztime="$FUZZTIME" ./internal/x86
    echo "==> fuzz smoke: FuzzScan ($FUZZTIME)"
    go test -run='^$' -fuzz='^FuzzScan$' -fuzztime="$FUZZTIME" ./internal/gadget
    echo "==> fuzz smoke: FuzzRescan ($FUZZTIME)"
    go test -run='^$' -fuzz=FuzzRescan -fuzztime="$FUZZTIME" ./internal/gadget
    echo "==> fuzz smoke: FuzzScanNaive ($FUZZTIME)"
    go test -run='^$' -fuzz=FuzzScanNaive -fuzztime="$FUZZTIME" ./internal/gadget
    echo "==> fuzz smoke: FuzzImageReadFrom ($FUZZTIME)"
    go test -run='^$' -fuzz=FuzzImageReadFrom -fuzztime="$FUZZTIME" ./internal/image
    echo "==> fuzz smoke: FuzzCheckpointJournal ($FUZZTIME)"
    go test -run='^$' -fuzz=FuzzCheckpointJournal -fuzztime="$FUZZTIME" ./internal/campaign
fi

echo "==> ci.sh: all green"
