#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of minnoc.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/perfbench.cpp together with the library sources
into $CARGO_TARGET_DIR (default .bench_build), runs one workload in a
single process for S seconds, and prints as the last line of standard
output one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 gives the end-to-end metrics of BENCHMARK.json,
measured with tracing off; --trace 1 gives its per-layer metrics, from
repetitions that hand a trace-event log to the library where it takes
one (design, explore). The line before it records the run's context:
nproc, build type, MINNOC_OBS, thread counts and the source revision.

Every set-up the program reports (each batch's first pass over the
variants, and each round's) and every repetition is one operation. Its
outputs must equal the values recorded in perfbench/expected.json, and
Theorem-1 violations and deadlock recoveries must be zero; otherwise
the operation counts as failed. A traced repetition also fails when its
trace spans cover less or more than its wall time by over a tenth.
--small 1 runs reduced inputs (for perfbench/selftest.py); --expected
names another file of recorded values.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("design-bt36", "sim-cg64", "sim-ring1024", "explore-cg16")

# Input variants (kVariants in perfbench.cpp). A run with seed N makes
# fresh inputs for every round, of variants 1 + (N - 1) mod 16, then
# the next one, and so on. Each variant has recorded outputs, so every
# run is checked exactly.
VARIANTS = 16

# Threads of the workloads that run a pool (design, explore): explicit,
# never the hardware-concurrency default, and never above nproc.
THREADS = 2

# Outputs compared with the recorded values.
CHECKED = ("trace_fnv", "sends", "cliques", "design_fnv", "switches",
           "links", "exec_cycles", "flit_hops", "packets", "report_fnv",
           "jobs", "distinct_points")
# Outputs that must be zero whatever was recorded.
ZERO = ("violations", "design_violations", "deadlock_recoveries")

# Track ids of the library's trace spans (obs/trace_event.hpp).
PID_METHODOLOGY = 2
PID_DSE = 3

# A traced repetition's spans must cover its wall time to within this
# share.
COVERAGE_TOLERANCE = 0.1


def nproc():
    return len(os.sched_getaffinity(0))


def threads():
    return min(THREADS, nproc())


def build():
    """Configure and build perfbench; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no minnoc sources next to perfbench/; run "
                 "from the root of a full checkout")
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                          or os.path.join(ROOT, ".bench_build"))
    for cmd in (["cmake", "-S", HERE, "-B", out],
                ["cmake", "--build", out, "--target", "perfbench",
                 "-j", str(nproc())]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_program(binary, workload, seed, seconds, trace, small):
    """One perfbench process; returns its JSON document."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(threads()), "--small", str(int(small))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.exit("perfbench: run failed: " + " ".join(cmd))
    return json.loads(proc.stdout)


def wrong_outputs(outputs, want):
    """Why @p outputs disagree with @p want (empty list when right)."""
    bad = ["%s=%r, want 0" % (k, outputs[k])
           for k in ZERO if outputs.get(k, 0) != 0]
    bad += ["%s=%r, want %r" % (k, outputs.get(k), v)
            for k, v in want.items() if outputs.get(k) != v]
    return bad


def spans(rep):
    return [e for e in rep.get("spans", {}).get("traceEvents", [])
            if e["ph"] == "X"]


def span_seconds(events, pid, match):
    return sum(e["dur"] for e in events
               if e["pid"] == pid and match(e["name"])) / 1e6


def covered_seconds(events):
    """Length of the union of the spans' intervals."""
    total, end = 0, None
    for e in sorted(events, key=lambda e: e["ts"]):
        lo, hi = e["ts"], e["ts"] + e["dur"]
        if end is None or lo >= end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total / 1e6


def coverage(rep):
    """Share of a traced repetition's wall time its spans cover."""
    return covered_seconds(spans(rep)) / rep["wall_s"]


def layer_values(rep, pool_threads):
    """Per-layer metrics of one repetition."""
    st, out, events = rep["stages"], rep["out"], spans(rep)
    run_s = st.get("run_s", 0.0)
    hops = out.get("flit_hops", 0)
    cycles = out.get("exec_cycles", 0)
    calls = out.get("fastcolor_calls", 0)
    explore_s = st.get("explore_s", 0.0)
    jobs = out.get("jobs", 0)
    lanes = min(pool_threads, jobs)
    return {
        "core.methodology_s": st.get("methodology_s", 0.0),
        "core.restarts_s": span_seconds(
            events, PID_METHODOLOGY, lambda n: n == "restarts"),
        "core.merge_switches_s": span_seconds(
            events, PID_METHODOLOGY, lambda n: n == "merge_switches"),
        "core.verify_s": span_seconds(
            events, PID_METHODOLOGY, lambda n: n == "verify"),
        "core.restarts_used": out.get("restarts_used", 0),
        "core.moves_evaluated": out.get("moves_evaluated", 0),
        "core.rounds": out.get("rounds", 0),
        "core.fastcolor_calls": calls,
        "core.fastcolor_hit_ratio":
            out.get("fastcolor_hits", 0) / calls if calls else 0.0,
        "topo.floorplan_s": st.get("floorplan_s", 0.0),
        "topo.build_s": st.get("build_s", 0.0),
        "topo.energy_s": st.get("energy_s", 0.0),
        "sim.run_s": run_s,
        "sim.cycles": cycles,
        "sim.flit_hops": hops,
        "sim.packets": out.get("packets", 0),
        "sim.ns_per_flit_hop": 1e9 * run_s / hops if hops else 0.0,
        "sim.cycles_per_s": cycles / run_s if run_s else 0.0,
        "sim.flit_hops_per_s": hops / run_s if run_s else 0.0,
        "dse.explore_s": explore_s,
        "dse.jobs": jobs,
        "dse.distinct_points": out.get("distinct_points", 0),
        "dse.distinct_ratio":
            out.get("distinct_points", 0) / jobs if jobs else 0.0,
        "dse.methodology_s": span_seconds(
            events, PID_DSE, lambda n: n == "methodology"),
        "dse.build_s": span_seconds(events, PID_DSE, lambda n: n == "build"),
        "dse.simulate_s": span_seconds(
            events, PID_DSE, lambda n: n == "simulate"),
        "dse.lane_busy_ratio":
            span_seconds(events, PID_DSE, lambda n: n.startswith("job "))
            / (lanes * explore_s) if lanes and explore_s else 0.0,
    }


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end_metrics(doc):
    # Means, not medians: a sim workload's repetitions take turns on the
    # CPUs, which run at different speeds on a shared host, and a median
    # would pick one CPU's speed.
    reps = [r for r in doc["reps"] if not r["traced"]]
    last = reps[-1]["out"]
    return {
        "wall_s": statistics.mean(r["wall_s"] for r in reps),
        "setup_s": statistics.median(doc["setup_batches_s"]),
        "cpu_s": statistics.mean(r["cpu_s"] for r in reps),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024,
        "links": last["links"],
        "switches": last["switches"],
    }


def per_layer_metrics(doc):
    traced = [r for r in doc["reps"] if r["traced"]]
    untraced = [r for r in doc["reps"] if not r["traced"]]
    # The sim workloads take no log and run untraced repetitions only;
    # their stage times are timed from outside either way.
    per_rep = [layer_values(r, doc["threads"]) for r in traced or untraced]
    values = {k: statistics.median(v[k] for v in per_rep)
              for k in per_rep[0]}
    values["trace.generate_s"] = median_of(doc["setups"], "generate_s")
    values["trace.analyze_s"] = median_of(doc["setups"], "analyze_s")
    values["obs.untraced_wall_s"] = median_of(untraced, "wall_s")
    values["obs.traced_wall_s"] = values["obs.overhead_s"] = 0.0
    values["obs.coverage"] = 0.0
    if traced:
        values["obs.traced_wall_s"] = median_of(traced, "wall_s")
        values["obs.overhead_s"] = (values["obs.traced_wall_s"]
                                    - values["obs.untraced_wall_s"])
        values["obs.coverage"] = statistics.median(map(coverage, traced))
    return values


def failures(doc, want):
    """(operations attempted, descriptions of the failed ones); @p want
    maps each input variant to its recorded outputs."""
    failed = []
    for i, s in enumerate(doc["setups"]):
        bad = wrong_outputs(s, want[str(s["seed"])]["setup"])
        if bad:
            failed.append("setup %d: %s" % (i, "; ".join(bad)))
    for i, r in enumerate(doc["reps"]):
        bad = wrong_outputs(r["out"], want[str(r["seed"])]["rep"])
        if r["traced"] and abs(coverage(r) - 1) > COVERAGE_TOLERANCE:
            bad.append("spans cover %.3f of the wall time" % coverage(r))
        if bad:
            failed.append("repetition %d: %s" % (i, "; ".join(bad)))
    return len(doc["setups"]) + len(doc["reps"]), failed


def revision():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "none"


def source_digest():
    """SHA-1 over the library and benchmark sources, for checkouts
    without git history."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", type=int, choices=(0, 1), default=0)
    p.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = build()
    doc = run_program(binary, args.workload, args.seed, args.seconds,
                     args.trace, args.small)
    with open(args.expected) as f:
        want = json.load(f)[args.workload]["small" if args.small else "full"]
    attempted, failed = failures(doc, want)
    for line in failed:
        print("perfbench: FAILED " + line, file=sys.stderr)

    if args.trace:
        values, listed = per_layer_metrics(doc), bench["per_layer"]
    else:
        values, listed = end_to_end_metrics(doc), bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    context = {
        "workload": args.workload, "seed": args.seed,
        "input_seeds": sorted({r["seed"] for r in doc["reps"]}),
        "seconds": args.seconds, "trace": args.trace, "small": args.small,
        "nproc": nproc(), "threads": doc["threads"],
        "sim_threads": 1, "build_type": doc["build_type"],
        "minnoc_obs": doc["minnoc_obs"], "revision": revision(),
        "source_sha1": source_digest(),
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
