#!/usr/bin/env bash
# Runs the gated benchmark suite and records or compares against the
# committed baseline.
#
#   scripts/bench_gate.sh record    # rewrite BENCH_baseline.json in place
#   scripts/bench_gate.sh compare   # exit nonzero on >25% median regression
#
# The gated set is the four benches that exercise the paper-critical paths:
# flow (GCN-guided OP insertion), incremental (dirty-cone embedding reuse),
# serve (admission/ladder/journal), kernels (scalar vs register-blocked
# GEMM row kernels at dims 32/64). The paper-scale pass, serial and
# partitioned, is gated end to end by the benchmark's `infer_b1_120k`.
# GCNT_BENCH_TOLERANCE=<percent> widens or narrows the compare gate.

set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-compare}"
baseline="BENCH_baseline.json"
# GCNT_BENCH_LOGDIR keeps the raw bench logs (CI uploads them and records a
# fresh-baseline artifact from them); otherwise they live in a temp dir.
if [ -n "${GCNT_BENCH_LOGDIR:-}" ]; then
    logdir="$GCNT_BENCH_LOGDIR"
    mkdir -p "$logdir"
else
    logdir="$(mktemp -d)"
    trap 'rm -rf "$logdir"' EXIT
fi

# Each suite runs REPEATS times; bench_gate keeps the best median per bench
# id, which is stable against transient machine load where any single run
# is not. A real regression slows every repeat and still trips the gate.
REPEATS="${GCNT_BENCH_REPEATS:-3}"
for bench in flow incremental serve kernels; do
    rm -f "$logdir/$bench.log"
    for ((i = 1; i <= REPEATS; i++)); do
        echo "== cargo bench --bench $bench (run $i/$REPEATS) =="
        cargo bench -p gcnt-bench --bench "$bench" | tee -a "$logdir/$bench.log"
    done
done

case "$mode" in
record)
    cargo run -q -p gcnt-bench --bin bench_gate -- record --out "$baseline" \
        "$logdir"/flow.log "$logdir"/incremental.log "$logdir"/serve.log \
        "$logdir"/kernels.log
    ;;
compare)
    cargo run -q -p gcnt-bench --bin bench_gate -- compare --baseline "$baseline" \
        "$logdir"/flow.log "$logdir"/incremental.log "$logdir"/serve.log \
        "$logdir"/kernels.log
    ;;
*)
    echo "usage: $0 [record|compare]" >&2
    exit 2
    ;;
esac
