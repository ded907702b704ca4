#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, on reduced inputs, that every workload prints every metric
BENCHMARK.json names, with its unit, and no failed operation, with
tracing off and on; then that a deliberately wrong recorded value is
counted as a failed operation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = 3


def bench(workload, trace, expected=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace), "--small", "1"]
    if expected:
        cmd += ["--expected", expected]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit("selftest: %s exited with %d" % (cmd, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in run.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            result = bench(workload, trace)
            units = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append("%s trace %d: metrics %r, want %r"
                                % (workload, trace, got, units))
            if (not result["correct"] or result["failed"]
                    or result["attempted"] < 1):
                problems.append("%s trace %d: %r" % (workload, trace,
                                                     result))

    with open(os.path.join(HERE, "expected.json")) as f:
        wrong = json.load(f)
    # A run's first repetition is on variant SEED.
    rep = wrong["sim-cg64"]["small"][str(SEED)]["rep"]
    rep["exec_cycles"] += 1
    path = os.path.join(os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR")
        or os.path.join(ROOT, ".bench_build")), "selftest-expected.json")
    with open(path, "w") as f:
        json.dump(wrong, f)
    result = bench("sim-cg64", 0, expected=path)
    if result["correct"] or result["failed"] < 1:
        problems.append("a wrong recorded exec_cycles was not counted as "
                        "a failed operation: %r" % result)

    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
