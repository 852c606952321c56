#!/usr/bin/env python3
"""Compares results of `run.py --runs N` for two commits.

  python3 bench/e2e/compare.py --base B1.json [B2.json ...] \\
                               --new N1.json [N2.json ...]

Each side's runs are the runs of its files, in order. For every workload
and end-to-end metric it prints each side's median and interquartile range
(IQR, the distance between the first and third quartile of the runs) and
one verdict:

  unresolved  the base runs spread more than the metric's bound (IQR over
              median), and not every new run beats every base run
  regression  the new median is worse than the base median by more than
              the bound, a share of the base median
  improved    a gain claim holds: the new side wins at least 9 of every 10
              paired runs (ties count for neither side) and the medians
              differ by more than the base IQR
  same        none of the above

Bounds and directions come from BENCHMARK.json. The timing metrics every
run reports but BENCHMARK.json does not gate have no bound, so they get the
claim rule in both directions: "improved", "worse" (the base side wins 9
of every 10 pairs by more than the base IQR) or "no clear change".
Runs pair up in order (base run i with new run i), so take the two sides
alternately: base, new, base, new, ... The script refuses (exit 2) to
compare results taken on a different number of CPUs, with another seed or
run length, or whose workload_hash differs; it exits 1 when any gated
metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
IDENTITY = ("num_cpus", "seed", "seconds", "traced", "workload_hash")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when `a` reads better than `b`."""
    return a < b if direction == "lower" else a > b


def claim_holds(base, new, direction, iqr):
    """The new side wins 9 of every 10 pairs and the medians differ by more
    than the base IQR."""
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b, direction))
    return bool(pairs) and wins >= 0.9 * len(pairs) and \
        abs(statistics.median(new) - statistics.median(base)) > iqr


def verdict(base, new, direction, bound):
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    if bound is None:
        if claim_holds(base, new, direction, iqr):
            return "improved", base_median, new_median, iqr
        opposite = "higher" if direction == "lower" else "lower"
        if claim_holds(base, new, opposite, iqr):
            return "worse", base_median, new_median, iqr
        return "no clear change", base_median, new_median, iqr
    all_better = all(better(n, b, direction) for n in new for b in base)
    if base_median != 0 and iqr / abs(base_median) > bound and not all_better:
        return "unresolved", base_median, new_median, iqr
    worse_by = (new_median - base_median if direction == "lower"
                else base_median - new_median)
    if worse_by > bound * abs(base_median):
        return "regression", base_median, new_median, iqr
    if claim_holds(base, new, direction, iqr):
        return "improved", base_median, new_median, iqr
    return "same", base_median, new_median, iqr


def load_side(paths):
    """Merges result files into one: identity fields must agree."""
    merged = None
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        if merged is None:
            merged = result
            continue
        for key in IDENTITY:
            if merged.get(key) != result.get(key):
                raise ValueError("%s: %s differs from %s" %
                                 (path, key, paths[0]))
        for workload, runs in result["runs"].items():
            merged["runs"].setdefault(workload, []).extend(runs)
    return merged


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__[__doc__.index("\n"):])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    try:
        base = load_side(args.base)
        new = load_side(args.new)
    except ValueError as error:
        print("refusing to compare: %s" % error, file=sys.stderr)
        return 2
    for key in IDENTITY:
        if base.get(key) != new.get(key):
            print("refusing to compare: %s differs (%r vs %r)" %
                  (key, base.get(key), new.get(key)), file=sys.stderr)
            return 2
    if base.get("traced"):
        print("refusing to compare traced runs: they carry no end-to-end "
              "metrics", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = [(s["name"], s["better"], s["bound"])
                 for s in json.load(f)["end_to_end"]]
    specs += [(s["name"], s["better"], None) for s in base.get("reported", [])]

    regressions = 0
    print("%-17s %-15s %12s %10s %12s %8s  %s" % (
        "workload", "metric", "base median", "base IQR", "new median",
        "delta", "verdict"))
    for workload, base_runs in base["runs"].items():
        new_runs = new["runs"].get(workload, [])
        for name, direction, bound in specs:
            b = [r["metrics"][name] for r in base_runs]
            n = [r["metrics"][name] for r in new_runs]
            if not b or not n:
                continue
            result, bm, nm, iqr = verdict(b, n, direction, bound)
            regressions += result == "regression"
            delta = (nm - bm) / bm * 100.0 if bm else 0.0
            print("%-17s %-15s %12.6g %10.4g %12.6g %+7.1f%%  %s" % (
                workload, name, bm, iqr, nm, delta, result))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
