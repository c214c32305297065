# Convenience targets; everything below is plain go-tool invocations.

GO       ?= go
# Baseline convention: committed baselines are numbered BENCH_<N>.json
# and append-only — a PR that shifts performance on purpose commits a
# new BENCH_<N+1>.json rather than rewriting an old one. bench-compare
# gates against the newest committed baseline by default; override
# with BASELINE=BENCH_4.json to compare against history.
BASELINE ?= $(shell git ls-files 'BENCH_*.json' | sort -V | tail -1)
# Fractional slowdown tolerated by bench-compare before it fails.
BENCHTOL ?= 0.40
# Extra `hydrastat bench` flags for bench-compare. Baselines are
# stamped with the machine they were recorded on and comparisons fail
# loudly on a mismatch; a CI runner that differs from the recording
# machine passes BENCHFLAGS=-allow-env-mismatch to downgrade that to a
# warning.
BENCHFLAGS ?=

.PHONY: all build test check fmt-check soak docs-lint bench-smoke bench-baseline bench-compare figures profile clean

all: build test

build:
	$(GO) build ./...

# Tier-1: the bar every PR must clear.
test:
	$(GO) build ./... && $(GO) test ./...

# Stricter pre-merge gate: gofmt-clean sources, static analysis, the
# full test suite under the race detector (the campaign harness is
# concurrent), plus a single-iteration pass over every benchmark so a
# broken benchmark cannot sit undetected until someone runs the perf
# gate, plus the docs-lint keeping docs/TRACKERS.md, docs/METRICS.md
# and docs/ARCHITECTURE.md's package map in sync with the code.
# The suite includes the quick tier of every property-test machine
# (internal/proptest; catalog in docs/TESTING.md) — set TEST_INTENSITY
# or use `make soak` for the thorough tier. The explicit -timeout
# raises go test's 10 m per-package default: internal/exp's campaign
# tests already run minutes natively and the race detector multiplies
# that several-fold. The memsim equivalence machines also run at the
# thorough tier: every cell runs through the epoch engine, and its 20x
# cases take about a second. The last step runs the end-to-end
# benchmark's own tests (bench/ is a separate module the root ./...
# never builds): they replay every benchmark workload against
# bench/golden.json, the proof that a hot-path change left simulated
# results bitwise-identical.
check: fmt-check bench-smoke docs-lint
	$(GO) vet ./...
	$(GO) test -race -timeout 30m ./...
	TEST_INTENSITY=thorough $(GO) test ./internal/memsim
	cd bench && $(GO) test ./...

# fmt-check fails when gofmt would reformat any file (it lists them).
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l: unformatted files:"; echo "$$files"; exit 1; fi

# soak runs the whole suite at the thorough test tier under the race
# detector: full crash-point coverage across all four workloads, long
# property-test loops (see internal/testutil), and 20x the generated
# cases in every proptest machine (tracker/scheduler/cache — see
# docs/TESTING.md). Slow by design; run it before merging
# storage-plane, tracker or harness changes.
soak:
	TEST_INTENSITY=thorough $(GO) test -race -timeout 30m ./...

# docs-lint fails if any exported rh.Tracker implementation in
# internal/track is not mentioned in docs/TRACKERS.md, if the metric
# catalog in docs/METRICS.md drifts from the registered names, or if
# the package map in docs/ARCHITECTURE.md drifts from internal/; one
# run reports every check's failures.
docs-lint:
	$(GO) run ./cmd/doclint

# bench-smoke compiles and runs every benchmark exactly once, without
# the unit tests (-run ^$$), as a fast structural check.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./... > /dev/null

# bench-baseline snapshots current benchmark results into a new
# baseline: pass BASELINE=BENCH_<N+1>.json. The default BASELINE is the
# newest committed file, which `hydrastat bench -write` refuses to
# overwrite. -p 1 runs the per-package test binaries serially:
# benchmarks must not time themselves while another package's
# benchmarks compete for the CPU. -count 5 runs every benchmark five
# times, and the baseline records the median of each column, so every
# later comparison reads a central sample rather than one outlier
# (10–11 minutes on 2 vCPUs, paid once per baseline).
bench-baseline:
	$(GO) test -p 1 -count 5 -bench . -benchmem -run '^$$' ./... \
		| $(GO) run ./cmd/hydrastat bench -write $(BASELINE)

# bench-compare re-runs the benchmarks once each (serially, about 2
# minutes on 2 vCPUs) and fails if any regresses beyond BENCHTOL in
# ns/op, or beyond 0.1% in allocs/op, against the committed baseline.
# It takes one sample: on a shared host a median of five flagged about
# as many rows at five times the cost (docs/PERFORMANCE.md).
bench-compare:
	$(GO) test -p 1 -bench . -benchmem -run '^$$' ./... \
		| $(GO) run ./cmd/hydrastat bench -compare $(BASELINE) -tolerance $(BENCHTOL) $(BENCHFLAGS)

# Regenerate every figure and table at the default scale.
figures:
	$(GO) run ./cmd/experiments all

# profile captures CPU and heap profiles of the Figure 5 sweep (the
# representative hot path: four workloads x four trackers) and prints
# the top entries of each. Artifacts land in ./profiles for deeper
# `go tool pprof` sessions.
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkFigure5$$' -benchtime 3x \
		-cpuprofile profiles/fig5.cpu.pprof -memprofile profiles/fig5.mem.pprof \
		-o profiles/fig5.test .
	$(GO) tool pprof -top -nodecount 15 profiles/fig5.test profiles/fig5.cpu.pprof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space profiles/fig5.test profiles/fig5.mem.pprof

# clean removes generated run artifacts but keeps the benchmark
# baselines the perf gate compares against (current and committed
# historical ones).
clean:
	rm -f $(filter-out $(shell git ls-files 'BENCH_*.json') $(BASELINE),$(wildcard BENCH_*.json))
	rm -rf profiles
