#!/usr/bin/env python3
"""Compare a benchmark result against a baseline recorded on the same kind of host.

    python3 perfbench/compare.py BASELINE.json CURRENT.json

Both files are result records the benchmark writes under
<build dir>/results/. The host class is the CPU count, CPU model, compiler
and build type. When the two records come from different host classes, the
script prints a warning and compares nothing. Otherwise it prints each
metric's change, and flags an end-to-end metric that got worse by more than
its bound in BENCHMARK.json. Exits 1 when any metric is flagged.
"""
import json
import os
import sys

HOST_CLASS = ("host_cpus", "cpu_model", "compiler", "build_type")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        cur = json.load(f)
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")
    rules = {}
    if os.path.exists(bench):
        with open(bench) as f:
            for m in json.load(f)["end_to_end"]:
                rules[m["name"]] = m

    diff = [k for k in HOST_CLASS if base["host"].get(k) != cur["host"].get(k)]
    if diff:
        print("warning: baseline host class differs (%s); not comparing" %
              ", ".join("%s %r vs %r" % (k, base["host"].get(k),
                                         cur["host"].get(k)) for k in diff))
        return 0
    if (base["workload"], base["trace"]) != (cur["workload"], cur["trace"]):
        print("warning: different workloads or trace modes; not comparing")
        return 0

    flagged = 0
    for name, m in cur["metrics"].items():
        if name not in base["metrics"]:
            continue
        b = base["metrics"][name]["value"]
        c = m["value"]
        change = (c - b) / b if b else 0.0
        note = ""
        rule = rules.get(name)
        if rule and b:
            worse = change if rule["better"] == "lower" else -change
            if worse > rule["bound"]:
                note = "  REGRESSION (bound %.0f%%)" % (100 * rule["bound"])
                flagged += 1
        print("%-34s %14.6g -> %14.6g %s %+7.2f%%%s" %
              (name, b, c, m["unit"], 100 * change, note))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
