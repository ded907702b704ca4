#!/usr/bin/env bash
# CI entry point: sanitized builds + full test suite + bench smoke.
#
# Usage: tools/ci.sh [build-dir]
#
# Eleven phases:
#  1. ASan + UBSan build tree running the full ctest suite.
#  2. TSan build tree running the concurrency-sensitive tests (thread
#     pool, parallel-restart determinism, Fast_Color cache and counters
#     under the pool, pipe slots, a two-thread BT-36 design, the phase
#     evaluator and explorer on nested pools, the serve daemon's
#     requests on its one pool) — ASan and TSan cannot share a binary,
#     hence the second tree.
#  3. Release build tree running the partitioner_perf benchmark on one
#     small pattern as a smoke test (its JSON lands in the build dir),
#     and the simulator golden corpus, floorplan plan pins, routing
#     path pins (mesh and crossbar, plus the irregular tables: the
#     design fallback, up*/down* and degraded routing, RoutingBytes.*
#     in test_routing), route consolidation and repair pins, scale pins,
#     evaluation and explore report pins, the explorer tests and cache
#     record pins, the job-wire byte pins (DistProtocol.*), the golden
#     designs and the switch-merge tests, so simulated results,
#     placements, routes, designs, the methodology's acceptance rules,
#     shared DSE work and the result record bytes hold under the -O3
#     build the figure benches use.
#  4. Explore cache smoke: a tiny DSE grid on CG-8 run twice against a
#     fresh cache dir under the build tree — the warm rerun must hit
#     the cache on every job (zero design recomputations) and its
#     frontier JSON must be byte-identical to the cold run's.
#  5. Observability: golden-design + metrics-determinism suites rerun
#     explicitly under ASan, sample metrics/Chrome-trace artifacts are
#     exported through the CLI, and the explore metrics dump is
#     compared byte-for-byte across thread counts.
#  6. Phase pipeline smoke: a synthetic phase-shift trace must segment
#     into >= 2 phases with a contention-free union design, the phases
#     report must be byte-identical across reruns and thread counts,
#     and the phase_gain bench emits its comparison JSON.
#  7. Serve robustness: the ASan/UBSan `minnoc serve` daemon is booted
#     on a unix socket and hammered by the serve_chaos harness (valid
#     traffic mixed with malformed, oversized, slow-writer and
#     disconnecting clients, a concurrent-duplicate dedup wave, and a
#     cache-corruption saboteur); the run must report zero crashes,
#     hangs or leaked in-flight jobs, SIGTERM must drain cleanly, and
#     the chaos JSON artifact lands in the build dir.
#  8. Scale-curve smoke: the hierarchical partitioner synthesizes
#     256-rank designs under ASan/UBSan within a wall-time budget,
#     every design Theorem-1-verified; the curve JSON lands in the
#     build dir.
#  9. Distributed explore (ASan) over `--hosts` (loopback `minnoc
#     serve` daemons): a cold sweep over two daemons must be
#     byte-identical to the in-process run with no host failures, its
#     warm rerun must hit every job on the daemon-side caches and stay
#     byte-identical, a sweep whose only host is a dead address must
#     converge byte-identical through the in-process fallback with the
#     failure recorded in `host_failed`, and a sweep with one daemon
#     SIGKILLed mid-run (wedged via the serve hang hook so the kill is
#     guaranteed to land mid-sweep) must still converge byte-identical
#     with the failure recorded in `host_failed`; the surviving
#     daemons must drain cleanly on SIGTERM. The dist status JSON
#     artifacts land in the build dir.
# 10. Coherence stress smoke: the MSI traffic generator and per-phase
#     synthesis pipeline under ASan at small N within a wall-time
#     budget; the JSON must be byte-identical across thread counts,
#     every design Theorem-1-verified, the replay deadlock-free; the
#     artifact lands in the build dir.
# 11. Benchmark self-test: perfbench/selftest.py builds the benchmark
#     in its own tree under phase 3's build dir and runs every workload
#     on reduced inputs, traced and untraced; each design and explore
#     report must match the bytes recorded in perfbench/expected.json,
#     and a deliberately wrong recorded value must count as a failed
#     operation.
#
# Any sanitizer report fails the run (halt_on_error / abort on UB).

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-asan}"
build_tsan="${build%-asan}-tsan"
build_bench="${build%-asan}-bench"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "=== phase 1: ASan + UBSan ==="
cmake -S "$repo" -B "$build" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMINNOC_SANITIZE=ON
cmake --build "$build" -j "$jobs"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo "=== phase 2: TSan (threaded subsystems) ==="
cmake -S "$repo" -B "$build_tsan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMINNOC_SANITIZE_THREAD=ON
cmake --build "$build_tsan" -j "$jobs" \
    --target test_thread_pool test_threads_determinism \
    test_fastcolor_diff test_design_network test_route_bytes test_phase \
    test_dse test_serve
export TSAN_OPTIONS="halt_on_error=1"
"$build_tsan/tests/test_thread_pool"
"$build_tsan/tests/test_serve"
"$build_tsan/tests/test_threads_determinism"
"$build_tsan/tests/test_fastcolor_diff"
"$build_tsan/tests/test_design_network"
"$build_tsan/tests/test_route_bytes" \
    --gtest_filter='RouteBytes.DesignBT36TwoThreads'
"$build_tsan/tests/test_phase" --gtest_filter='Evaluator.*'
"$build_tsan/tests/test_dse" \
    --gtest_filter='ExplorerTest.ReportIsThreadCountInvariant'

echo "=== phase 3: Release bench smoke ==="
cmake -S "$repo" -B "$build_bench" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_bench" -j "$jobs" --target partitioner_perf \
    test_sim_golden test_floorplan test_routing test_route_bytes \
    test_scale test_eval_bytes test_dse test_dist test_golden_designs \
    test_merge
"$build_bench/bench/partitioner_perf" \
    --bench CG --ranks 8 --iterations 1 \
    --out "$build_bench/partitioner_perf.json"
"$build_bench/tests/test_sim_golden"
"$build_bench/tests/test_floorplan"
"$build_bench/tests/test_routing"
"$build_bench/tests/test_route_bytes"
"$build_bench/tests/test_scale"
"$build_bench/tests/test_eval_bytes"
"$build_bench/tests/test_dse"
"$build_bench/tests/test_dist" --gtest_filter='DistProtocol.*'
"$build_bench/tests/test_golden_designs"
"$build_bench/tests/test_merge"

echo "=== phase 4: explore cache smoke ==="
cmake --build "$build_bench" -j "$jobs" --target minnoc
cache_dir="$build_bench/explore-cache"
rm -rf "$cache_dir"
"$build_bench/tools/minnoc" gen --bench CG --ranks 8 --iterations 1 \
    --out "$build_bench/ci-cg.trace"
explore_flags=(--degrees 4,5 --vcs 2,3 --restarts 2
               --cache-dir "$cache_dir")
"$build_bench/tools/minnoc" explore "$build_bench/ci-cg.trace" \
    "${explore_flags[@]}" --out "$build_bench/cg_frontier.json"
warm="$("$build_bench/tools/minnoc" explore "$build_bench/ci-cg.trace" \
    "${explore_flags[@]}" --out "$build_bench/cg_frontier_warm.json")"
echo "$warm"
echo "$warm" | grep -q "0 misses" ||
    { echo "FAIL: warm explore rerun recomputed designs"; exit 1; }
echo "$warm" | grep -q "100.0% hit rate" ||
    { echo "FAIL: warm explore rerun below 100% cache hits"; exit 1; }
cmp "$build_bench/cg_frontier.json" "$build_bench/cg_frontier_warm.json" ||
    { echo "FAIL: warm frontier JSON differs from cold"; exit 1; }

echo "=== phase 5: observability exports ==="
# Golden designs + metrics determinism explicitly under ASan (they also
# run inside phase 1's ctest; this re-run makes a drift failure loud
# and self-describing in the CI log).
"$build/tests/test_golden_designs"
"$build/tests/test_metrics_determinism"

# Sample artifacts: one simulate run with both exporters on, plus a
# cross-thread byte-identity check on the explore metrics dump.
"$build_bench/tools/minnoc" simulate "$build_bench/ci-cg.trace" \
    --network mesh \
    --metrics-out "$build_bench/sim_metrics.json" \
    --chrome-trace "$build_bench/sim_trace.json"
grep -q '"traceEvents"' "$build_bench/sim_trace.json" ||
    { echo "FAIL: chrome trace missing traceEvents"; exit 1; }
grep -q '"minnoc-metrics-v1"' "$build_bench/sim_metrics.json" ||
    { echo "FAIL: metrics dump missing schema marker"; exit 1; }
# --cache 0 pins cache state: hit/miss metrics must reflect thread
# count only, never what a previous phase happened to warm.
"$build_bench/tools/minnoc" explore "$build_bench/ci-cg.trace" \
    --degrees 4,5 --vcs 2,3 --restarts 2 --cache 0 --threads 1 \
    --metrics-out "$build_bench/explore_metrics_t1.json" >/dev/null
"$build_bench/tools/minnoc" explore "$build_bench/ci-cg.trace" \
    --degrees 4,5 --vcs 2,3 --restarts 2 --cache 0 --threads 4 \
    --metrics-out "$build_bench/explore_metrics_t4.json" >/dev/null
cmp "$build_bench/explore_metrics_t1.json" \
    "$build_bench/explore_metrics_t4.json" ||
    { echo "FAIL: explore metrics differ across thread counts"; exit 1; }

echo "=== phase 6: phase pipeline smoke ==="
cmake --build "$build_bench" -j "$jobs" --target phase_gain
"$build_bench/tools/minnoc" gen \
    --patterns neighbor,transpose,hotspot --ranks 16 \
    --out "$build_bench/ci-shift.trace"
phases_out="$("$build_bench/tools/minnoc" phases \
    "$build_bench/ci-shift.trace" --restarts 4 --threads 1 \
    --out "$build_bench/phase_report.json" 2>/dev/null)"
echo "$phases_out"
detected="$(echo "$phases_out" | sed -n 's/^\([0-9]*\) phase(s).*/\1/p')"
[ "${detected:-0}" -ge 2 ] ||
    { echo "FAIL: phase-shift trace detected < 2 phases"; exit 1; }
grep -q '"union_phase_violations": \[0\(, 0\)*\]' \
    "$build_bench/phase_report.json" ||
    { echo "FAIL: union design not contention-free per phase"; exit 1; }
"$build_bench/tools/minnoc" phases "$build_bench/ci-shift.trace" \
    --restarts 4 --threads 4 \
    --out "$build_bench/phase_report_t4.json" >/dev/null 2>&1
cmp "$build_bench/phase_report.json" \
    "$build_bench/phase_report_t4.json" ||
    { echo "FAIL: phases report differs across thread counts"; exit 1; }
"$build_bench/tools/minnoc" phases "$build_bench/ci-shift.trace" \
    --restarts 4 --threads 1 \
    --out "$build_bench/phase_report_rerun.json" >/dev/null 2>&1
cmp "$build_bench/phase_report.json" \
    "$build_bench/phase_report_rerun.json" ||
    { echo "FAIL: phases report differs across reruns"; exit 1; }
"$build_bench/bench/phase_gain" --ranks 16 --iterations 1 --restarts 2 \
    --out "$build_bench/phase_gain.json" 2>/dev/null
grep -q '"benchmark": "phase_gain"' "$build_bench/phase_gain.json" ||
    { echo "FAIL: phase_gain bench produced no report"; exit 1; }

echo "=== phase 7: serve daemon chaos (ASan) ==="
serve_sock="$build/ci-serve.sock"
serve_cache="$build/ci-serve-cache"
rm -rf "$serve_sock" "$serve_cache"
"$build/tools/minnoc" serve --socket "$serve_sock" --threads 4 \
    --cache-dir "$serve_cache" 2>"$build/ci-serve.log" &
serve_pid=$!
for _ in $(seq 50); do
    [ -S "$serve_sock" ] && break
    kill -0 "$serve_pid" 2>/dev/null ||
        { echo "FAIL: serve daemon died on boot"; cat "$build/ci-serve.log"; exit 1; }
    sleep 0.1
done
[ -S "$serve_sock" ] ||
    { echo "FAIL: serve daemon never bound its socket"; exit 1; }
# 500+ mixed requests: valid design/explore/ping traffic, malformed
# JSON, garbage bytes, oversized lines, slow writers, mid-request
# disconnects, tiny deadlines, a concurrent-duplicate dedup wave and a
# cache-corruption saboteur — all against the sanitized daemon.
"$build/bench/serve_chaos" --socket "$serve_sock" \
    --clients 8 --requests 500 --seed 1 \
    --corrupt-cache "$serve_cache" \
    --out "$build/serve_chaos.json" ||
    { echo "FAIL: serve chaos run"; cat "$build/ci-serve.log"; exit 1; }
grep -q '"pass": true' "$build/serve_chaos.json" ||
    { echo "FAIL: chaos artifact does not report pass"; exit 1; }
# Graceful drain: SIGTERM must finish in-flight work and exit 0.
kill -TERM "$serve_pid"
wait "$serve_pid" ||
    { echo "FAIL: serve daemon exited nonzero on SIGTERM"; exit 1; }
grep -q "drained and stopped" "$build/ci-serve.log" ||
    { echo "FAIL: serve daemon did not drain cleanly"; cat "$build/ci-serve.log"; exit 1; }
echo "serve chaos artifact: $build/serve_chaos.json"

echo "=== phase 8: scale curve (ASan) ==="
cmake --build "$build" -j "$jobs" --target scale_curve
# 256 ranks across all four patterns under ASan must finish inside the
# budget (the un-instrumented binary is ~10x faster; the bound guards
# against the pre-hierarchical super-linear blowup, where N=256 alone
# took minutes).
scale_budget=600
start_s=$SECONDS
"$build/bench/scale_curve" --sizes 64,128,256 --restarts 2 \
    --out "$build/scale_curve.json" ||
    { echo "FAIL: scale_curve produced a non-verified design"; exit 1; }
elapsed=$((SECONDS - start_s))
echo "scale_curve wall time: ${elapsed}s (budget ${scale_budget}s)"
[ "$elapsed" -le "$scale_budget" ] ||
    { echo "FAIL: scale_curve exceeded ${scale_budget}s budget"; exit 1; }
grep -q '"verified": false' "$build/scale_curve.json" &&
    { echo "FAIL: scale_curve JSON contains unverified designs"; exit 1; }
echo "scale curve artifact: $build/scale_curve.json"

echo "=== phase 9: distributed explore (ASan) ==="
cmake --build "$build" -j "$jobs" --target minnoc
"$build/tools/minnoc" gen --bench CG --ranks 8 --iterations 1 \
    --out "$build/ci-dist.trace"
# In-process reference every distributed sweep must reproduce. Two
# seeds make 4 shards (one per degree and seed), so each of two
# daemons gets two requests.
"$build/tools/minnoc" explore "$build/ci-dist.trace" \
    --degrees 4,5 --vcs 2,3 --restarts 2 --seeds 1,2 --cache 0 \
    --out "$build/dist_frontier_ref.json"
# The same sweep over two loopback `minnoc serve` daemons.
# Wait until a daemon accepts TCP on its port (or die with its log).
await_port() { # pid port log
    for _ in $(seq 100); do
        kill -0 "$1" 2>/dev/null ||
            { echo "FAIL: serve daemon on port $2 died on boot"; cat "$3"; exit 1; }
        (exec 3<>"/dev/tcp/127.0.0.1/$2") 2>/dev/null &&
            { exec 3>&- 3<&-; return 0; }
        sleep 0.1
    done
    echo "FAIL: serve daemon never bound port $2"; cat "$3"; exit 1
}
port_a=18871; port_b=18872; port_c=18873
rm -rf "$build"/ci-hosts-cache-*
"$build/tools/minnoc" serve --port $port_a \
    --max-deadline-ms 600000 --cache-dir "$build/ci-hosts-cache-a" \
    2>"$build/ci-hosts-a.log" &
host_a_pid=$!
"$build/tools/minnoc" serve --port $port_b \
    --max-deadline-ms 600000 --cache-dir "$build/ci-hosts-cache-b" \
    2>"$build/ci-hosts-b.log" &
host_b_pid=$!
await_port "$host_a_pid" "$port_a" "$build/ci-hosts-a.log"
await_port "$host_b_pid" "$port_b" "$build/ci-hosts-b.log"
# Cold sweep over both daemons: byte-identical to the in-process
# reference above, no failures of either kind.
"$build/tools/minnoc" explore "$build/ci-dist.trace" \
    --degrees 4,5 --vcs 2,3 --restarts 2 --seeds 1,2 --cache 0 \
    --hosts "127.0.0.1:$port_a,127.0.0.1:$port_b" \
    --dist-report "$build/hosts_status_cold.json" \
    --out "$build/hosts_frontier_cold.json"
cmp "$build/dist_frontier_ref.json" "$build/hosts_frontier_cold.json" ||
    { echo "FAIL: --hosts frontier differs from in-process"; exit 1; }
grep -q '"host_failed": \[\]' "$build/hosts_status_cold.json" ||
    { echo "FAIL: clean --hosts run reports host failures"; exit 1; }
# Warm rerun: every job must hit the caches the daemons populated.
hosts_warm="$("$build/tools/minnoc" explore "$build/ci-dist.trace" \
    --degrees 4,5 --vcs 2,3 --restarts 2 --seeds 1,2 --cache 0 \
    --hosts "127.0.0.1:$port_a,127.0.0.1:$port_b" \
    --out "$build/hosts_frontier_warm.json")"
echo "$hosts_warm"
echo "$hosts_warm" | grep -q "100.0% hit rate" ||
    { echo "FAIL: warm --hosts rerun below 100% cache hits"; exit 1; }
cmp "$build/hosts_frontier_cold.json" "$build/hosts_frontier_warm.json" ||
    { echo "FAIL: warm --hosts frontier differs from cold"; exit 1; }
# A dead address as the only host: its shard falls back in-process
# and must converge byte-identical, the failure in host_failed.
"$build/tools/minnoc" explore "$build/ci-dist.trace" \
    --degrees 4,5 --vcs 2,3 --restarts 2 --seeds 1,2 --cache 0 \
    --hosts 127.0.0.1:1 \
    --dist-report "$build/hosts_status_dead.json" \
    --out "$build/hosts_frontier_dead.json"
cmp "$build/dist_frontier_ref.json" "$build/hosts_frontier_dead.json" ||
    { echo "FAIL: in-process fallback frontier differs"; exit 1; }
grep -q '"host_failed": \[{' "$build/hosts_status_dead.json" ||
    { echo "FAIL: dead host not recorded in host_failed"; exit 1; }
# Kill one daemon mid-sweep. The victim is armed with the serve hang
# hook, so after its first request it wedges and the sweep provably
# cannot finish until the SIGKILL lands — the kill always hits
# mid-run. The coordinator must requeue onto the survivor and converge
# with identical bytes and the death recorded in host_failed only.
MINNOC_DIST_TEST_HANG=serve "$build/tools/minnoc" serve \
    --port $port_c --threads 1 --max-deadline-ms 600000 \
    --cache-dir "$build/ci-hosts-cache-c" \
    2>"$build/ci-hosts-c.log" &
host_c_pid=$!
await_port "$host_c_pid" "$port_c" "$build/ci-hosts-c.log"
( sleep 2; kill -KILL "$host_c_pid" 2>/dev/null ) &
killer_pid=$!
"$build/tools/minnoc" explore "$build/ci-dist.trace" \
    --degrees 4,5 --vcs 2,3 --restarts 2 --seeds 1,2 --cache 0 \
    --hosts "127.0.0.1:$port_c,127.0.0.1:$port_b" \
    --worker-timeout-ms 60000 \
    --dist-report "$build/hosts_status_kill.json" \
    --out "$build/hosts_frontier_kill.json"
wait "$killer_pid" 2>/dev/null || true
cmp "$build/dist_frontier_ref.json" "$build/hosts_frontier_kill.json" ||
    { echo "FAIL: frontier changed after mid-sweep SIGKILL"; exit 1; }
grep -q '"host_failed": \[{' "$build/hosts_status_kill.json" ||
    { echo "FAIL: SIGKILLed daemon not recorded in host_failed"; exit 1; }
grep -q "\"requeued_jobs\": \[" "$build/hosts_status_kill.json" ||
    { echo "FAIL: no jobs requeued off the killed daemon"; exit 1; }
# The daemons that were not killed must still drain cleanly.
kill -TERM "$host_a_pid" "$host_b_pid"
wait "$host_a_pid" ||
    { echo "FAIL: daemon A exited nonzero on SIGTERM"; exit 1; }
wait "$host_b_pid" ||
    { echo "FAIL: daemon B exited nonzero on SIGTERM"; exit 1; }
wait "$host_c_pid" 2>/dev/null || true
echo "dist status artifacts: $build/hosts_status_cold.json," \
     "$build/hosts_status_dead.json, $build/hosts_status_kill.json"

echo "=== phase 10: coherence stress (ASan) ==="
cmake --build "$build" -j "$jobs" --target coherence_stress
# Small N under ASan inside a wall-time budget: the generator, the
# per-phase synthesis pipeline, and both power tiers end-to-end. The
# JSON must be byte-identical across reruns and thread counts, every
# synthesized design Theorem-1-verified, and the replay deadlock-free.
coh_budget=420
start_s=$SECONDS
"$build/bench/coherence_stress" --ranks 12 --blocks 48 --rounds 4 \
    --ops 12 --threads 1 --out "$build/coherence_stress.json" ||
    { echo "FAIL: coherence_stress exited nonzero"; exit 1; }
"$build/bench/coherence_stress" --ranks 12 --blocks 48 --rounds 4 \
    --ops 12 --threads 3 --out "$build/coherence_stress_t3.json" ||
    { echo "FAIL: coherence_stress (threaded) exited nonzero"; exit 1; }
elapsed=$((SECONDS - start_s))
echo "coherence_stress wall time: ${elapsed}s (budget ${coh_budget}s)"
[ "$elapsed" -le "$coh_budget" ] ||
    { echo "FAIL: coherence_stress exceeded ${coh_budget}s budget"; exit 1; }
cmp "$build/coherence_stress.json" "$build/coherence_stress_t3.json" ||
    { echo "FAIL: coherence_stress JSON differs across thread counts"; exit 1; }
grep -q '"verified": false' "$build/coherence_stress.json" &&
    { echo "FAIL: coherence_stress JSON contains unverified designs"; exit 1; }
grep -q '"deadlock_recoveries": 0' "$build/coherence_stress.json" ||
    { echo "FAIL: coherence replay hit deadlock recovery"; exit 1; }
echo "coherence stress artifact: $build/coherence_stress.json"

echo "=== phase 11: benchmark self-test ==="
CARGO_TARGET_DIR="$build_bench/perfbench" python3 "$repo/perfbench/selftest.py"
