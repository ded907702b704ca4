#!/usr/bin/env python3
"""Record the outputs perfbench/run.py checks, in perfbench/expected.json.

Runs each workload once per input variant, at full and reduced size,
and keeps the outputs listed in run.CHECKED. Every set-up and every
repetition of a run must agree, and Theorem-1 violations and deadlock
recoveries must be zero, before anything is written. Rerun only for a
deliberate model change, and say so in that change.

    python3 perfbench/record.py
"""

import json
import os
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402


def agreed(records):
    """The CHECKED outputs all @p records share; exits if they differ."""
    picked = [{k: r[k] for k in run.CHECKED if k in r} for r in records]
    for r, p in zip(records, picked):
        if p != picked[0] or run.wrong_outputs(r, {}):
            sys.exit("record: outputs differ or are wrong: %r" % r)
    return picked[0]


def main():
    binary = run.build()
    table = {}
    for workload in run.WORKLOADS:
        for size in ("full", "small"):
            for seed in range(1, run.VARIANTS + 1):
                doc = run.run_program(binary, workload, seed, 0, 0,
                                     size == "small")
                table.setdefault(workload, {}).setdefault(size, {})[
                    str(seed)] = {
                        "setup": agreed(doc["setups"]),
                        "rep": agreed([r["out"] for r in doc["reps"]]),
                    }
                print("record: %s %s seed %d" % (workload, size, seed),
                      file=sys.stderr)
    path = os.path.join(run.HERE, "expected.json")
    with open(path, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
