#!/usr/bin/env python3
"""Compare two or more sets of benchmark results.

Usage:

    python3 bench/suite/compare.py BASE_DIR OTHER_DIR [MORE_DIRS ...]

Each directory holds one file per run: the standard output of
`python3 bench/suite/run.py ...` (or of suite.exe), in any file names.
For every workload and metric the script prints each set's median and
quartiles (Python's statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median.  It exits nonzero when

- a run of any set failed a correctness check,
- an end-to-end metric's median in a later set is worse than the first
  set's median by more than the metric's bound in BENCHMARK.json, or
- two runs of the same workload and seed in different sets disagree on
  a field that must repeat exactly (inputs digest, checksums, ring
  lengths, round counts).

Per-layer metrics (traced runs) are printed without bounds.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_run(path):
    """(info, result) from one run's output, or None if it has neither."""
    info = None
    last = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("info {"):
                info = json.loads(line[len("info "):])
            elif line.startswith("{"):
                last = line
    if info is None or last is None:
        return None
    return info, json.loads(last)


def load_set(path):
    runs = []
    for name in sorted(os.listdir(path)):
        r = load_run(os.path.join(path, name))
        if r is not None:
            runs.append(r)
    if not runs:
        sys.exit("compare.py: no runs in %s" % path)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def worse_by(base, other, better):
    """Relative worsening of other against base (positive = worse)."""
    if base == 0:
        return 0.0
    delta = (other - base) / abs(base)
    return delta if better == "lower" else -delta


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [(d, load_set(d)) for d in sys.argv[1:]]
    problems = []

    for d, runs in sets:
        for info, res in runs:
            if not res["correct"]:
                problems.append("%s: %s seed %d failed %d of %d" % (
                    d, info["workload"], info["seed"], res["failed"], res["attempted"]))

    keys = sorted({(info["workload"], info["traced"])
                   for _, runs in sets for info, _ in runs})
    for workload, traced in keys:
        print("== %s%s" % (workload, " (traced)" if traced else ""))
        per_set = [[res for info, res in runs
                    if info["workload"] == workload and info["traced"] == traced]
                   for _, runs in sets]
        names = []
        for results in per_set:
            for res in results:
                for name in res["metrics"]:
                    if name not in names:
                        names.append(name)
        for name in names:
            cells = []
            base = None
            for (d, _), results in zip(sets, per_set):
                values = [r["metrics"][name]["value"] for r in results
                          if name in r["metrics"]]
                if not values:
                    cells.append("%-40s" % "-")
                    continue
                med, q1, q3, spread = summary(values)
                cells.append("%14.6g [%.6g, %.6g] %5.1f%%" % (med, q1, q3, 100 * spread))
                if base is None:
                    base = med
                elif name in bounds and not traced:
                    w = worse_by(base, med, better[name])
                    if w > bounds[name]["bound"]:
                        problems.append(
                            "%s %s: median %.6g in %s is %.1f%% worse than %.6g (bound %.0f%%)"
                            % (workload, name, med, d, 100 * w, base,
                               100 * bounds[name]["bound"]))
            print("  %-32s %s" % (name, " | ".join(cells)))

    # Exact fields: pair runs of one workload and seed across sets.
    exact = {}
    for d, runs in sets:
        for info, _ in runs:
            key = (info["workload"], info["seed"])
            exact.setdefault(key, []).append((d, info["exact"]))
    for (workload, seed), seen in sorted(exact.items()):
        d0, ref = seen[0]
        for d, fields in seen[1:]:
            for k in sorted(set(ref) | set(fields)):
                if ref.get(k) != fields.get(k):
                    problems.append("%s seed %d: %s differs (%s in %s, %s in %s)" % (
                        workload, seed, k, ref.get(k), d0, fields.get(k), d))

    for p in problems:
        print("PROBLEM " + p)
    print("compare.py: %s" % ("FAIL" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
