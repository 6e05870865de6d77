# Build/test/verification lanes. `make ci` is the gate the parallel
# scheduler must keep green; it runs ci.sh, the one list of CI lanes.
GO ?= go

.PHONY: build test vet race bench benchdiff bench-figures serve-smoke recover-smoke yield-smoke cluster-smoke persist ci

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector lanes, listed once in ci.sh: the short-mode sweep plus
# the robustness, service, yield, cluster, racing and sparse-solver
# lanes.
race:
	GO=$(GO) ./ci.sh race

# Service integration smoke: boot adcsynd, run a study over HTTP with a
# cached rerun and a /metrics scrape, SIGTERM, assert clean drain — then
# the crash-recovery leg (see recover-smoke).
serve-smoke:
	./scripts/serve_smoke.sh

# Crash-recovery smoke only: boot with -state-dir, kill -9 mid-study,
# restart, assert the same job is recovered and completes.
recover-smoke:
	SMOKE_LEG=recover ./scripts/serve_smoke.sh

# Monte-Carlo yield smoke only: the same 200-draw mode:yield study on two
# daemons with different -workers must produce bit-identical results.
yield-smoke:
	SMOKE_LEG=yield ./scripts/serve_smoke.sh

# Sharded-cluster smoke: three nodes on loopback — consistent-hash
# routing with cluster-wide dedupe, a zero-evaluation peer-cache run on
# a cold node, bit-identical results vs a single-node daemon, and a
# kill -9 lease takeover that finishes the same job id on a survivor.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Persistence lane: journal replay, crash recovery, retention/leak, and
# cache-durability tests under the race detector (listed in ci.sh).
persist:
	GO=$(GO) ./ci.sh persist

# Kernel/evaluator benchmark lane: the benchmark set listed in
# scripts/bench.sh, recorded as go-test JSON events in BENCH_kernels.json
# for before/after comparison. The benchfilter pipe strips run-volatile
# fields (timestamps, elapsed seconds, iteration counts) so the committed
# snapshot diffs cleanly.
bench:
	GO=$(GO) ./scripts/bench.sh -json -benchmem | ./scripts/benchfilter.sh > BENCH_kernels.json
	@grep -F 'ns/op' BENCH_kernels.json \
		| sed -E 's/.*"Test":"([^"]*)".*"Output":"(\1)? *([^"]*)\\n"\}/\1\t\3/; s/\\t/   /g'

# Advisory perf gate: rerun the benchmark set and compare against the
# committed BENCH_kernels.json, warning on >10% ns/op regressions.
# Always exits 0 (shared CI boxes are noisy); BENCHDIFF_STRICT=1 makes
# regressions fatal for local use.
benchdiff:
	./scripts/benchdiff.sh

# Paper-figure benchmarks (root package only, human-readable).
bench-figures:
	$(GO) test -bench=. -benchmem -run='^$$' .

# The whole gate: every lane ci.sh lists, in its order — static checks,
# tests, race, persistence, the daemon and cluster smokes, and the
# benchmark smoke with the advisory diff.
ci:
	GO=$(GO) ./ci.sh
