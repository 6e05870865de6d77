#!/bin/sh
# The benchmark set, listed once: the la factor/solve kernels (dense,
# sparse, and ordered), the compiled transfer-function evaluator, the sim
# analyses, the batched hybrid evaluator, and the end-to-end MDAC
# operating-point/settling/AC/full-study benchmarks of the root package,
# plus the search-layer equation sweep (BenchmarkSweepEquation).
# `make bench`, `make benchdiff` (scripts/benchdiff.sh) and ci.sh all run
# it, each adding its own go test flags:
#
#   ./scripts/bench.sh -json -benchmem    # record (make bench)
#   ./scripts/bench.sh -benchtime=1x      # one-iteration smoke (ci.sh)
set -eu

"${GO:-go}" test -bench=. -run='^$' "$@" \
    ./internal/la ./internal/expr ./internal/sim ./internal/hybrid
"${GO:-go}" test -bench='^Benchmark(OP|TranSettle|TranSettleFullNewton|ACSweep|Study13b|Study13bRacing|SweepEquation)$' \
    -run='^$' "$@" .
