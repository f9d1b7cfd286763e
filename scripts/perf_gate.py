#!/usr/bin/env python3
"""Regression gate over perfbench results.

    python3 scripts/perf_gate.py BASELINE_DIR NEW_DIR

Each directory holds, per workload of BENCHMARK.json, one or more runs:
`<workload>.json` or `<workload>.<k>.json` (CI keeps three per side),
each the standard output of

    python3 perfbench/run.py --workload <workload> --seed 1 --seconds 30 --trace 0

whose last line is the result object. Metric names and directions come
from BENCHMARK.json's `end_to_end` list. Each side's value of a metric
is its median over that side's runs, so one noisy run cannot fail (or
pass) the gate. The gate fails (exit 1) when

* a workload has no new result, or a new run has `correct` false or
  `failed` above 0, or
* an end-to-end metric's median is more than THRESHOLD times worse than
  the baseline's: new/base for lower-is-better metrics, base/new for
  higher-is-better ones.

A baseline directory or workload file that does not exist is not an
error: the new results are reported and not compared, so a runner can
seed its first baseline. Prints one markdown table per workload.
"""

import glob
import json
import os
import statistics
import sys

# Worse-by ratio that fails the gate.
THRESHOLD = 1.15

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def last_result(path):
    """The result object on the last non-empty line of `path`, or None."""
    if not os.path.isfile(path):
        return None
    lines = [l for l in open(path, encoding="utf-8").read().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def runs(directory, workload):
    """The result objects of every run of `workload` in `directory`."""
    paths = glob.glob(os.path.join(glob.escape(directory), workload + ".json"))
    paths += glob.glob(os.path.join(glob.escape(directory), workload + ".*.json"))
    return [r for r in map(last_result, sorted(paths)) if r is not None]


def value(results, name):
    """The median of metric `name` over `results`, or None."""
    values = []
    for result in results:
        metric = result.get("metrics", {}).get(name)
        if isinstance(metric, dict) and isinstance(metric.get("value"), (int, float)):
            values.append(metric["value"])
    return statistics.median(values) if values else None


def worse_by(base, new, better):
    """How many times worse `new` is than `base` (>1 is a regression)."""
    if better == "lower":
        base, new = new, base
    if new > 0:
        return base / new
    return 1.0 if base <= 0 else float("inf")


def gate(baseline_dir, new_dir, bench):
    """Returns (report lines, failure count)."""
    out, failures = [], 0
    for workload in (w["name"] for w in bench["workloads"]):
        new = runs(new_dir, workload)
        out.append(f"### {workload}")
        if not new:
            out.append("FAIL: no result")
            failures += 1
            continue
        for run in new:
            if run.get("correct") is not True or run.get("failed", 0) > 0:
                out.append(f"FAIL: correct={run.get('correct')} failed={run.get('failed')}")
                failures += 1
        base = runs(baseline_dir, workload)
        if not base:
            out.append("no baseline: reported, not compared")
        out.append(f"medians over {len(base)} baseline and {len(new)} new run(s)")
        out.append("| metric | baseline | new | worse by | verdict |")
        out.append("|---|---|---|---|---|")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            n = value(new, name)
            b = value(base, name)
            shown = ["-" if v is None else f"{v:.4g}" for v in (b, n)]
            if n is None or b is None:
                out.append(f"| {name} | {shown[0]} | {shown[1]} | - | - |")
                continue
            ratio = worse_by(b, n, metric["better"])
            verdict = "REGRESSED" if ratio > THRESHOLD else "ok"
            failures += ratio > THRESHOLD
            out.append(f"| {name} | {shown[0]} | {shown[1]} | {ratio:.3f}x | {verdict} |")
    return out, failures


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    lines, failures = gate(argv[1], argv[2], bench)
    print("\n".join(lines))
    if failures:
        print(f"FAIL: {failures} regression(s) or failed run(s) (threshold {THRESHOLD}x)")
        return 1
    print(f"OK: no end-to-end metric worse than {THRESHOLD}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
