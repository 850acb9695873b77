#!/usr/bin/env python3
"""Compares two sets of benchmark runs (a parent and a change).

    python3 perfbench/compare.py <parent_runs_dir> <change_runs_dir>

Each directory holds the run files perfbench/run.py saves under
.perfbench_out/runs/ (one JSON per workload, seed and trace mode). For every
workload and end-to-end metric it prints both sides' medians and quartiles
and a verdict against the bound in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than
              the bound;
  better      the change wins at least 9 of 10 runs paired by seed and the
              medians differ by more than the parent's quartile distance;
  unresolved  the parent's own spread is wider than the bound and not every
              change run beats every parent run (if every one does: better);
  same        none of the above: no regression beyond the bound.

It then prints the per-layer self-time deltas of the traced runs.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(runs_dir):
    runs = {}
    for path in sorted(glob.glob(os.path.join(runs_dir, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        key = (r["workload"], r["trace"])
        runs.setdefault(key, {})[r["seed"]] = r["result"]["metrics"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better, bound, paired):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    if worse_by > bound:
        return "worse"
    wins = sum(1 for p, c in paired if sign * c < sign * p)
    if (paired and wins >= 0.9 * len(paired)
            and sign * (p_med - c_med) > p_q3 - p_q1):
        return "better"
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    if spread > bound:
        all_beat = max(sign * c for c in change) < min(sign * p for p in parent)
        return "better" if all_beat else "unresolved"
    return "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    workloads = [w["name"] for w in spec["workloads"]]

    print("%-18s %-16s %12s %12s %12s %12s %12s %12s  %s" % (
        "workload", "metric", "parent q1", "parent med", "parent q3",
        "change q1", "change med", "change q3", "verdict"))
    for wl in workloads:
        p_runs, c_runs = parent.get((wl, 0), {}), change.get((wl, 0), {})
        if not p_runs or not c_runs:
            print("%-18s (no timed runs on one side)" % wl)
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r[name]["value"] for _, r in sorted(p_runs.items())]
            c = [r[name]["value"] for _, r in sorted(c_runs.items())]
            paired = [(p_runs[s][name]["value"], c_runs[s][name]["value"])
                      for s in sorted(set(p_runs) & set(c_runs))]
            pq, cq = quartiles(p), quartiles(c)
            print("%-18s %-16s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g  %s"
                  % (wl, name, *pq, *cq,
                     verdict(p, c, m["better"], m["bound"], paired)))

    print("\nper-layer self time of the traced runs (median ms per pass)")
    print("%-18s %-18s %12s %12s %12s %9s" % (
        "workload", "layer", "parent", "change", "delta", "delta %"))
    for wl in workloads:
        p_runs, c_runs = parent.get((wl, 1), {}), change.get((wl, 1), {})
        if not p_runs or not c_runs:
            print("%-18s (no traced runs on one side)" % wl)
            continue
        names = sorted({n for r in list(p_runs.values()) + list(c_runs.values())
                        for n in r if n.startswith("self_ms.")})
        for name in names:
            p = statistics.median(r.get(name, {"value": 0})["value"]
                                  for r in p_runs.values())
            c = statistics.median(r.get(name, {"value": 0})["value"]
                                  for r in c_runs.values())
            pct = "%8.1f%%" % (100 * (c - p) / p) if p else "        -"
            print("%-18s %-18s %12.3f %12.3f %12.3f %s" % (
                wl, name[len("self_ms."):], p, c, c - p, pct))


if __name__ == "__main__":
    main()
