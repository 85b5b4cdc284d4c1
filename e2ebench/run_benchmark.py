#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see e2ebench/README.md).

The first call configures and builds e2ebench/ with Release flags in
.bench_build/ at the repository root; later calls rebuild incrementally.

  run_benchmark.py --workload NAME --seed N [--trace 0|1]
      One run of one workload. The last line of standard output is the
      run's JSON result: {"correct", "attempted", "failed", "metrics"}.
  run_benchmark.py [--seed N]
      Every workload untraced, then traced; prints every metric.
  run_benchmark.py --repeat K [--seed N] [--workload NAME] [--out FILE]
      K untraced runs per workload on seeds N..N+K-1: median, quartiles
      and spread per metric; '!' marks a spread wider than the bound.
  run_benchmark.py --compare PARENT.json CHANGE.json
      Reads two --out files and rates every (workload, metric) pairing
      improved, unchanged, worse or unresolved.
  run_benchmark.py --check
      The driver's oracle self-test and its smoke pass over every workload.

Every run measures BENCHMARK.json's run_seconds. --seconds is accepted
only with that value, so that runs of one length are compared.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_SECONDS = SPEC["run_seconds"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run_benchmark: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(command, timeout):
    """Runs a build step; its output goes to stderr only if it fails."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-8000:])
        fail(f"failed: {' '.join(command)}")


def build():
    if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release", *generator], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs],
              BUILD_TIMEOUT_S)


def run_driver(arguments, echo):
    """Runs bench_e2e; returns (exit code, stdout lines). `echo` forwards
    every line but the last to our stdout."""
    try:
        done = subprocess.run([str(BINARY), *arguments], stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e {' '.join(arguments)} ran past {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    return done.returncode, lines


def run_once(workload, seed, trace, echo=False):
    arguments = ["--workload", workload, "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                 "--trace", str(trace)]
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        arguments += ["--spans-out", str(spans / f"{workload}.jsonl")]
    code, lines = run_driver(arguments, echo)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} (trace {trace}) exited {code} without a result")
    return code, lines[-1], result


def metric_specs(trace):
    return SPEC["per_layer"] if trace else SPEC["end_to_end"]


def check_metrics(workload, trace, result):
    """Every metric BENCHMARK.json names must be present with its unit."""
    problems = []
    for metric in metric_specs(trace):
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            problems.append(f"{workload}: metric {metric['name']} missing or wrong unit")
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_all(args):
    problems = []
    for trace in (0, 1):
        for workload in WORKLOADS:
            code, _, result = run_once(workload, args.seed, trace)
            print(f"== {workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:<40} {metric['value']:>16.6g} {metric['unit']}")
            problems += check_metrics(workload, trace, result)
            if code != 0 or not result["correct"]:
                problems.append(f"{workload} (trace {trace}): exit {code}, "
                                f"failed {result['failed']}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def run_repeat(args):
    workloads = [args.workload] if args.workload else WORKLOADS
    runs = {}
    failed = False
    for workload in workloads:
        runs[workload] = {}
        for k in range(args.repeat):
            code, _, result = run_once(workload, args.seed + k, args.trace)
            failed |= code != 0 or not result["correct"]
            for name, metric in result["metrics"].items():
                runs[workload].setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m.get("bound") for m in metric_specs(args.trace)}
    print(f"{'workload':<15} {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'spread':>8}")
    for workload, metrics in runs.items():
        for name, values in metrics.items():
            median = statistics.median(values)
            q1, q3 = quartiles(values)
            iqr = (q3 - q1) / median if median else 0.0
            spread = (max(values) - min(values)) / median if median else 0.0
            bound = bounds.get(name)
            mark = " !" if bound is not None and spread > bound else ""
            print(f"{workload:<15} {name:<36} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{iqr:>8.3f} {spread:>8.3f}{mark}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": RUN_SECONDS, "trace": args.trace, "runs": runs}, indent=1))
    return 1 if failed else 0


def rate(parent, change, better, bound):
    """One verdict for one metric: worse past the bound; improved when the
    median moved by more than the parent's IQR and the change won 90% of
    the seed-paired runs; unresolved when the parent's own IQR exceeds the
    bound and neither side beats every run of the other."""
    sign = 1 if better == "higher" else -1
    median_a = statistics.median(parent)
    median_b = statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = (median_b - median_a) * sign  # > 0: the change is better.
    if median_a == 0:
        return "unresolved"
    all_better = min(v * sign for v in change) > max(v * sign for v in parent)
    all_worse = max(v * sign for v in change) < min(v * sign for v in parent)
    if (q3 - q1) / abs(median_a) > bound:
        return "improved" if all_better else "worse" if all_worse else "unresolved"
    if -gain / abs(median_a) > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if (b - a) * sign > 0)
    if gain > q3 - q1 and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def run_compare(args):
    files = [json.loads(Path(path).read_text()) for path in args.compare]
    for key in ("seconds", "trace"):
        if files[0][key] != files[1][key]:
            fail(f"cannot compare: {key} is {files[0][key]} in {args.compare[0]} "
                 f"and {files[1][key]} in {args.compare[1]}")
    if files[0]["trace"] != 0:
        fail("cannot compare traced runs: only end-to-end metrics have bounds")
    parent, change = files[0]["runs"], files[1]["runs"]
    print(f"{'workload':<15} {'metric':<20} {'parent':>12} {'change':>12} {'delta':>8}  verdict")
    worse = False
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            a = parent.get(workload, {}).get(metric["name"])
            b = change.get(workload, {}).get(metric["name"])
            if not a or not b:
                continue
            verdict = rate(a, b, metric["better"], metric["bound"])
            worse |= verdict == "worse"
            median_a, median_b = statistics.median(a), statistics.median(b)
            delta = (median_b - median_a) / median_a if median_a else 0.0
            print(f"{workload:<15} {metric['name']:<20} {median_a:>12.6g} {median_b:>12.6g} "
                  f"{delta:>+8.3f}  {verdict}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, choices=(RUN_SECONDS,), default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    if args.compare:
        return run_compare(args)
    build()
    if args.check:
        failed = False
        for arguments in (["--selftest"], ["--benchmark_smoke"]):
            code, lines = run_driver(arguments, echo=False)
            print("\n".join(lines))
            failed |= code != 0
        return 1 if failed else 0
    if args.repeat > 0:
        return run_repeat(args)
    if args.workload is None:
        return run_all(args)
    code, last_line, result = run_once(args.workload, args.seed, args.trace, echo=True)
    problems = check_metrics(args.workload, args.trace, result)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(last_line)
    return 1 if code != 0 or problems else 0


if __name__ == "__main__":
    sys.exit(main())
