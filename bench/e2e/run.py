#!/usr/bin/env python3
"""Builds bench_e2e and runs the end-to-end serving benchmark.

One run of one workload (each run is its own bench_e2e process):

  python3 bench/e2e/run.py --workload inex-unique --seed 1 --seconds 20 --trace 0

prints `workload metric value unit` lines (with --trace 0 also the
ungated timing metrics) and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. It exits 0 whenever the run completed; "correct" is false when
a check failed (oracle mismatch, generator lag, or a workload_hash that
differs from the one baseline.json records for that seed).

Every workload, N runs each, one process per run:

  python3 bench/e2e/run.py --seed 1 --runs 3 [--traced] [--out FILE]

writes FILE (default .bench_build/e2e-results.json) with num_cpus, seed and
each workload's workload_hash plus every run's metrics, for compare.py, and
exits non-zero if any correctness check failed.

Smoke check of all four workloads at toy scale (the bench_e2e_smoke ctest):

  python3 bench/e2e/run.py --smoke [--binary PATH]

The benchmark is built from source into .bench_build/ at the repository
root unless --binary names an existing bench_e2e.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_JSON = os.path.join(HERE, "baseline.json")
WORKLOADS = ["inex-unique", "dblp-zipf", "dblp-sharded-rpc", "dblp-live"]
RUN_TIMEOUT_S = 170
# Timing metrics every untraced run emits but BENCHMARK.json does not gate:
# on a shared host their medians drift between sets of runs by more than
# any bound it may set (README.md). compare.py judges them by paired runs.
REPORTED = [
    {"name": "p50_ms", "unit": "ms", "better": "lower"},
    {"name": "cpu_us_per_req", "unit": "us", "better": "lower"},
    {"name": "p99_ms", "unit": "ms", "better": "lower"},
    {"name": "max_qps", "unit": "1/s", "better": "higher"},
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once, then brings bench_e2e up to date; returns its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "bench_e2e", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "bench_e2e")


def run_binary(binary, workload, seed, seconds, traced, smoke):
    """One bench_e2e process; returns its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    # Trace files land next to the binary, inside the ignored build tree.
    proc = subprocess.run(cmd, cwd=os.path.dirname(binary),
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("bench_e2e %s failed with code %d" %
                           (workload, proc.returncode))
    return json.loads(lines[-1])


def recorded_hash(workload, seed):
    if not os.path.exists(BASELINE_JSON):
        return None
    hashes = load_json(BASELINE_JSON).get("workload_hash", {})
    return hashes.get(workload, {}).get(str(seed))


def check_result(result, metric_specs, smoke):
    """Adds the hash check; returns (correct, reasons)."""
    reasons = []
    if not result["correct"]:
        reasons.append("checks failed: %s" % json.dumps(result["checks"]))
    want = None if smoke else recorded_hash(result["workload"], result["seed"])
    if want is not None and want != result["workload_hash"]:
        reasons.append("workload_hash %s differs from the recorded %s" %
                       (result["workload_hash"], want))
    missing = [m["name"] for m in metric_specs
               if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError("bench_e2e did not emit: " + ", ".join(missing))
    return not reasons, reasons


def metric_specs(traced):
    """(gated or per-layer specs, reported-only specs) of a run."""
    bench = load_json(BENCHMARK_JSON)
    if traced:
        return bench["per_layer"], []
    return bench["end_to_end"], REPORTED


def print_metrics(workload, specs, values, note=""):
    for spec in specs:
        print("%s %s %.17g %s%s" % (workload, spec["name"],
                                    values[spec["name"]], spec["unit"], note),
              flush=True)


def single_run(args):
    binary = args.binary or build()
    specs, reported = metric_specs(args.trace == 1)
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace == 1, False)
    correct, reasons = check_result(result, specs + reported, False)
    log("%s seed %d: workload_hash %s" % (args.workload, args.seed,
                                          result["workload_hash"]))
    for reason in reasons:
        log("%s: %s" % (args.workload, reason))
    print_metrics(args.workload, specs, result["metrics"])
    print_metrics(args.workload, reported, result["metrics"], " (not gated)")
    metrics = {s["name"]: {"value": result["metrics"][s["name"]],
                           "unit": s["unit"]} for s in specs}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def all_runs(args):
    binary = args.binary or build()
    traced = args.traced
    specs, reported = metric_specs(traced)
    out = {
        "num_cpus": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "reported": reported,
        "workload_hash": {},
        "correct": True,
        "runs": {w: [] for w in WORKLOADS},
    }
    for run in range(args.runs):
        for workload in WORKLOADS:
            result = run_binary(binary, workload, args.seed, args.seconds,
                                traced, False)
            correct, reasons = check_result(result, specs + reported, False)
            for reason in reasons:
                log("%s run %d: %s" % (workload, run, reason))
            previous = out["workload_hash"].setdefault(
                workload, result["workload_hash"])
            if previous != result["workload_hash"]:
                correct = False
                log("%s: workload_hash changed between runs" % workload)
            out["correct"] = out["correct"] and correct
            values = {s["name"]: result["metrics"][s["name"]]
                      for s in specs + reported}
            out["runs"][workload].append(
                {"correct": correct, "attempted": result["attempted"],
                 "failed": result["failed"], "metrics": values})
            print_metrics(workload, specs, values)
            print_metrics(workload, reported, values, " (not gated)")
    log("medians over %d run(s):" % args.runs)
    for workload in WORKLOADS:
        for spec in specs + reported:
            values = [r["metrics"][spec["name"]]
                      for r in out["runs"][workload]]
            log("  %-17s %-32s %14.6g %s" % (
                workload, spec["name"], statistics.median(values),
                spec["unit"]))
    path = args.out or os.path.join(BUILD_DIR, "e2e-results.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
    log("wrote %s" % path)
    return 0 if out["correct"] else 1


def smoke(args):
    binary = args.binary or build()
    failures = []
    for workload in WORKLOADS:
        for traced in (False, True):
            try:
                result = run_binary(binary, workload, 1, args.seconds or 1.0,
                                    traced, True)
                specs, reported = metric_specs(traced)
                correct, reasons = check_result(result, specs + reported,
                                                True)
            except (RuntimeError, subprocess.TimeoutExpired,
                    ValueError) as error:
                correct, reasons = False, [str(error)]
            label = "%s%s" % (workload, " traced" if traced else "")
            log("smoke %-25s %s" % (label, "ok" if correct else
                                    "FAILED: " + "; ".join(reasons)))
            if not correct:
                failures.append(label)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int)
    parser.add_argument("--traced", action="store_true",
                        help="with --runs: per-layer (traced) runs")
    parser.add_argument("--out", help="with --runs: results file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this bench_e2e, do not build")
    args = parser.parse_args()
    if args.smoke:
        return smoke(args)
    if args.seconds is None:
        args.seconds = load_json(BENCHMARK_JSON)["run_seconds"]
    if args.workload is not None:
        return single_run(args)
    if args.runs is not None and args.runs > 0:
        return all_runs(args)
    parser.error("give --workload, --runs N, or --smoke")
    return 2


if __name__ == "__main__":
    sys.exit(main())
