#!/bin/sh
# CI gate: the one list of CI lanes. `./ci.sh` runs every lane in order;
# `./ci.sh race persist` runs only the named lanes. The Makefile's `ci`,
# `race` and `persist` targets call in here, so a lane added below is
# picked up by every entry point. GO overrides the go binary.
set -eux
GO=${GO:-go}

# Static checks and the full test suite.
static() {
	"$GO" vet ./...
	"$GO" build ./...
}
unit() {
	"$GO" test ./...
}

# Race-detector lanes. Short mode keeps the seconds-long hybrid studies
# out, while the scheduler, cache and parallel-study tests still run
# under the detector; the packages below then run in full or by pattern.
race() {
	"$GO" test -race -short ./...
	# Robustness: the cancellation, fault-injection and goroutine-leak
	# tests (stalled evaluators, injected panics, deadline teardowns
	# across the scheduler/synthesis/core stack).
	"$GO" test -race -run 'Cancel|Fault|Leak' ./...
	# Service: the full adcsynd job-manager/HTTP suite (queue
	# backpressure, single-flight dedup, NDJSON streaming, drain).
	"$GO" test -race ./internal/service
	# Yield: the Monte-Carlo draw pool, the behavioral simulator and the
	# spectral metrics — the determinism contract (per-draw seeds,
	# order-independent mismatch streams) is what concurrent draws lean on.
	"$GO" test -race ./internal/yield ./internal/adcsim ./internal/dsp
	# Cluster: the consistent-hash ring and the 3-node in-process cluster
	# tests (routing/dedupe, peer cache fill, lease takeover, hop guard) —
	# membership, replication and proxy paths are concurrent by
	# construction.
	"$GO" test -race ./internal/cluster
	# Racing: successive-halving plan/promotion ranking, the quadratic
	# surrogate, and the worker-count bit-identity tests at the synthesis,
	# study and service levels — rung promotion is a cross-worker
	# reduction, so the determinism contract and the data-race check are
	# the same test.
	"$GO" test -race ./internal/race
	"$GO" test -race -run 'Race|Surrogate' ./internal/synth ./internal/core ./internal/service
	# Sparse solver: sparse/dense bit-exactness, symbolic coverage,
	# modified-Newton determinism, ordered-pivot equivalence and batched
	# evaluation equivalence — the correctness contract of the fast path.
	"$GO" test -race -run 'MatchesDense|SymbolicCovers|NewtonReuse|BitIdentical|Batch|OrderedPivot' \
		./internal/la ./internal/sim ./internal/hybrid ./internal/synth
}

# Persistence: journal replay, crash recovery, the terminal-job retention
# and leak regression (500-job soak), and the disk-cache durability tests
# under the race detector.
persist() {
	"$GO" test -race -run 'Recover|Retention|Retain|Journal|RetryAfter|Leak|CacheDisk' ./internal/service ./internal/synth
}

# End-to-end smokes. The daemon smoke runs all legs: boot → study over
# HTTP → cached rerun → /metrics → SIGTERM drain; the kill -9
# crash-recovery leg; and the yield leg (a 200-draw study bit-identical
# across -workers). The cluster smoke boots three loopback nodes:
# cluster-wide dedupe, a zero-evaluation peer-cache run, bit-identity
# with a single node, and a kill -9 lease takeover.
smoke() {
	./scripts/serve_smoke.sh
	./scripts/cluster_smoke.sh
}

# Benchmark smoke: one iteration of the kernel and end-to-end benchmarks,
# so perf-path regressions (panics, singular matrices) surface without a
# full measurement run; then the advisory diff against the committed
# BENCH_kernels.json, which never fails the gate (shared CI boxes are
# noisy; BENCHDIFF_STRICT=1 makes it fatal locally).
bench() {
	GO="$GO" ./scripts/bench.sh -benchtime=1x
	GO="$GO" BENCHDIFF_BENCHTIME=1x ./scripts/benchdiff.sh || true
}

[ $# -gt 0 ] || set -- static unit race persist smoke bench
for lane in "$@"; do
	case $lane in
	static | unit | race | persist | smoke | bench) "$lane" ;;
	*)
		echo "ci.sh: unknown lane $lane (want static, unit, race, persist, smoke or bench)" >&2
		exit 2
		;;
	esac
done
