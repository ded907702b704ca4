#!/bin/sh
# End-to-end smoke test of the minnoc CLI: generate a trace, analyze,
# design, round-trip the design file through show/simulate/dot, and
# run the phase-gain pipeline on a synthetic phase-shift workload.
# Invoked by CTest with $1 = path to the minnoc binary and
# $2 = path to the json_lint validator (optional; JSON checks are
# skipped when absent).
set -e

MINNOC="$1"
JSON_LINT="$2"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

lint_json() {
    if [ -n "$JSON_LINT" ]; then
        "$JSON_LINT" "$@"
    fi
}

"$MINNOC" gen --bench CG --ranks 8 --iterations 1 --out "$DIR/cg.trace"
test -s "$DIR/cg.trace"

"$MINNOC" analyze "$DIR/cg.trace" | grep -q "contention periods"

"$MINNOC" design "$DIR/cg.trace" --max-degree 5 --restarts 4 \
    --out "$DIR/cg.design" 2>/dev/null
test -s "$DIR/cg.design"
head -1 "$DIR/cg.design" | grep -q "minnoc-design 1"

"$MINNOC" show "$DIR/cg.design" | grep -q "FinalizedDesign"

"$MINNOC" simulate "$DIR/cg.trace" --network "$DIR/cg.design" \
    | grep -q "deadlocks=0"
"$MINNOC" simulate "$DIR/cg.trace" --network mesh | grep -q "exec="

# A traced design simulation shows where its set-up went: the
# floorplan and build spans precede the simulator's epochs. Tracing
# leaves the metrics dump as it is.
"$MINNOC" simulate "$DIR/cg.trace" --network "$DIR/cg.design" \
    --metrics-out "$DIR/sim_metrics.json" >/dev/null
"$MINNOC" simulate "$DIR/cg.trace" --network "$DIR/cg.design" \
    --metrics-out "$DIR/sim_metrics_traced.json" \
    --chrome-trace "$DIR/sim_trace.json" >/dev/null
cmp "$DIR/sim_metrics.json" "$DIR/sim_metrics_traced.json"
lint_json "$DIR/sim_trace.json"
if grep -q '"name": "epoch"' "$DIR/sim_trace.json"; then
    grep -q '"name": "floorplan"' "$DIR/sim_trace.json"
    grep -q '"name": "build"' "$DIR/sim_trace.json"
fi

# Section 4's comparison: the crossbar, mesh, torus and generated lines
# of `compare` are pinned, and identical at any thread count.
GOLDEN="$(dirname "$0")/golden"
"$MINNOC" compare "$DIR/cg.trace" --threads 1 >"$DIR/compare1.txt" \
    2>/dev/null
cmp "$DIR/compare1.txt" "$GOLDEN/compare_cg8.txt"
"$MINNOC" compare "$DIR/cg.trace" >"$DIR/compare.txt" 2>/dev/null
cmp "$DIR/compare.txt" "$GOLDEN/compare_cg8.txt"

"$MINNOC" dot "$DIR/cg.design" --out "$DIR/cg.dot"
grep -q "graph design" "$DIR/cg.dot"

# Phase pipeline: a synthetic phase-shift workload must segment into
# at least two phases, verify contention-free per phase, and produce a
# byte-identical report at any thread count.
"$MINNOC" gen --patterns neighbor,transpose,hotspot --ranks 16 \
    --out "$DIR/shift.trace"
test -s "$DIR/shift.trace"

"$MINNOC" phases "$DIR/shift.trace" --restarts 4 --threads 1 \
    --out "$DIR/phases1.json" >"$DIR/phases.log" 2>/dev/null
grep -q "phase(s)" "$DIR/phases.log"
phases=$(sed -n 's/^\([0-9]*\) phase(s).*/\1/p' "$DIR/phases.log")
test "$phases" -ge 2

"$MINNOC" phases "$DIR/shift.trace" --restarts 4 --threads 4 \
    --out "$DIR/phases4.json" 2>/dev/null
cmp "$DIR/phases1.json" "$DIR/phases4.json"
lint_json "$DIR/phases1.json"
grep -q '"union_phase_violations": \[0\(, 0\)*\]' "$DIR/phases1.json"

# The explore sweep accepts the phase-window dimension, reports it,
# and emits byte-identical reports for time-multiplexed jobs at any
# thread count.
"$MINNOC" explore "$DIR/shift.trace" --degrees 5 --vcs 3 \
    --unidirectional 0 --phase-windows 0,64 --cache 0 --threads 1 \
    --out "$DIR/explore.json" 2>/dev/null
lint_json "$DIR/explore.json"
grep -q '"phase_window": 64' "$DIR/explore.json"
"$MINNOC" explore "$DIR/shift.trace" --degrees 5 --vcs 3 \
    --unidirectional 0 --phase-windows 0,64 --cache 0 --threads 4 \
    --out "$DIR/explore4.json" 2>/dev/null
cmp "$DIR/explore.json" "$DIR/explore4.json"

# --seed takes the full 64-bit range explore --seeds accepts, so any
# design explore reported can be rebuilt.
"$MINNOC" design "$DIR/cg.trace" --max-degree 5 --restarts 2 \
    --seed 4294967297 --out "$DIR/seed64.design" 2>/dev/null
test -s "$DIR/seed64.design"

# One process parallelizes with --threads and machines with --hosts;
# explore, phases and serve have no --workers flag. A daemon that
# accepted it would never exit: the timeout turns that into rc 124.
for cmd in explore phases serve; do
    rc=0
    timeout 20 "$MINNOC" $cmd "$DIR/cg.trace" --workers 2 \
        --out "$DIR/workers.json" --socket "$DIR/workers.sock" \
        2>"$DIR/workers.log" || rc=$?
    test "$rc" -eq 1
    grep -q "unknown flag --workers" "$DIR/workers.log"
    test ! -e "$DIR/workers.json"
    test ! -e "$DIR/workers.sock"
done

# Distributed explore: a zero --worker-timeout-ms, or one whose
# microsecond value overflows int64, is a usage error, caught before
# any host is contacted.
for ms in 0 18446744073709551615 9223372036854776; do
    rc=0
    "$MINNOC" explore "$DIR/cg.trace" --degrees 4 --vcs 2 \
        --unidirectional 0 --restarts 2 --cache 0 \
        --hosts 127.0.0.1:1 \
        --worker-timeout-ms "$ms" --out "$DIR/timeout.json" \
        2>"$DIR/timeout.log" || rc=$?
    test "$rc" -eq 1
    grep -q "fatal: flag --worker-timeout-ms" "$DIR/timeout.log"
    test ! -e "$DIR/timeout.json"
done

# A shard that fails twice (its only job refused by both hosts) ends
# the run with one message and exit 1, not an abort, and writes no
# report.
rc=0
"$MINNOC" explore "$DIR/cg.trace" --degrees 4 --vcs 2 \
    --unidirectional 0 --restarts 2 --cache 0 \
    --hosts 127.0.0.1:1,127.0.0.1:1 --out "$DIR/twice.json" \
    2>"$DIR/twice.log" || rc=$?
test "$rc" -eq 1
grep -q "^explore: dist: shard failed twice" "$DIR/twice.log"
test ! -e "$DIR/twice.json"

echo "cli pipeline OK"
