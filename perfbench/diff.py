#!/usr/bin/env python3
"""Per-layer diff of two sets of benchmark records.

    python3 perfbench/diff.py BASE NEW

BASE and NEW are each a record file written by perfbench/run.py or a
directory of them (searched recursively). Records are grouped by workload;
where a set holds several records of one workload (several seeds), each
metric is taken as the median of its valid values; a value the record marks
invalid (an accounting fault, see README.md) is left out. For every
workload and metric present in both sets it prints the base value, the new
value and the ratio new/base, or "invalid" where a side has no valid value,
and flags a move beyond the metric's bound: end-to-end metrics use the
bound BENCHMARK.json declares, per-layer metrics (which declare none) use
PER_LAYER_BAND. A flag reads "worse" or "better" by the metric's declared
direction.
"""

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The share a per-layer metric may move before it is flagged.
PER_LAYER_BAND = 0.10


def load(path):
    """{workload: {metric: [values]}} plus each metric's unit."""
    files = []
    if os.path.isdir(path):
        for dirpath, _, names in os.walk(path):
            files += [os.path.join(dirpath, n) for n in sorted(names)
                      if n.endswith(".json")]
    else:
        files = [path]
    sets, units = {}, {}
    for f in files:
        with open(f) as fh:
            try:
                rec = json.load(fh)
            except ValueError:
                continue
        if not isinstance(rec, dict) or "workload" not in rec:
            continue
        by_metric = sets.setdefault(rec["workload"], {})
        for name, m in rec.get("metrics", {}).items():
            value = None if m.get("invalid") else m["value"]
            by_metric.setdefault(name, []).append(value)
            units[name] = m["unit"]
    return sets, units


def valid_median(values):
    """Median of the valid values; None if there are none."""
    ok = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(ok) if ok else None


def fmt(v):
    return "invalid" if v is None else "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, units = load(args.base)
    new, _ = load(args.new)
    if not base or not new:
        print("no records found", file=sys.stderr)
        return 2

    flagged = 0
    for workload in sorted(set(base) & set(new)):
        print("== %s" % workload)
        print("  %-30s %14s %14s %9s  %s" % ("metric", "base", "new",
                                             "new/base", "unit"))
        for name in sorted(set(base[workload]) & set(new[workload])):
            b = valid_median(base[workload][name])
            n = valid_median(new[workload][name])
            d = declared.get(name, {})
            bound = d.get("bound", PER_LAYER_BAND)
            if b is None or n is None:
                print("  %-30s %14s %14s %9s  %s" % (
                    name, fmt(b), fmt(n), "invalid", units.get(name, "")))
                continue
            if b != 0:
                ratio = n / b
                moved = abs(ratio - 1) > bound
                ratio_s = "%9.3f" % ratio
            else:
                moved = n != 0
                ratio_s = "%9s" % "n/a"
            flag = ""
            if moved:
                higher = d.get("better") == "higher"
                flag = "better" if (n > b) == higher else "worse"
                flag += " (beyond %.0f%%)" % (bound * 100)
                flagged += 1
            print("  %-30s %14.6g %14.6g %s  %-6s %s" % (
                name, b, n, ratio_s, units.get(name, ""), flag))
    print("%d metric(s) moved beyond their bound" % flagged)
    return 0


if __name__ == "__main__":
    sys.exit(main())
