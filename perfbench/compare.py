#!/usr/bin/env python3
"""Compares two sets of benchmark records, one row per (workload, metric).

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are each a directory of records (the JSON files run.py
--out writes) or a list of such files separated by commas. Untraced records
contribute their end-to-end metrics and each workload's own named metrics
(the record's "detail" map); traced records contribute their per-layer
metrics, which carry no verdict.

Each row gives both sides' median and quartiles and a verdict by the rules
the benchmark is held to:

  unresolved  either side has fewer than ten runs, or fewer than ten run
              pairs form: too few to tell a change from the spread;
  improved    the change wins at least nine tenths of the run pairs (runs
              of one seed on both sides form a pair; otherwise runs pair in
              file order), ties counting for neither, and the medians differ
              by more than the distance between BEFORE's quartiles;
  unresolved  BEFORE's spread (quartile distance over median) is wider than
              the metric's bound, and not every AFTER run beats every
              BEFORE run;
  worse       AFTER's median is worse than BEFORE's by more than the bound;
  unchanged   otherwise.

Bounds and directions come from BENCHMARK.json at the repository root.
Detail metrics use a bound of 0.1 and take their direction from the unit:
times and sizes are better lower, rates (1/s) higher; any other unit gets
no verdict.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETAIL_BOUND = 0.1
MIN_RUNS = 10
LOWER_UNITS = {"s", "ms", "us", "ns", "MB", "bytes"}


def load(spec):
    files = []
    for part in spec.split(","):
        if os.path.isdir(part):
            files += sorted(glob.glob(os.path.join(part, "*.json")))
        elif part:
            files.append(part)
    records = []
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("record") == "procon-perfbench":
            records.append(rec)
    return records


def series(records):
    """{(workload, metric, trace): [(seed, value, unit), ...]} in file order."""
    out = {}
    for rec in records:
        maps = [rec["metrics"]]
        if not rec["trace"]:
            maps.append(rec.get("detail", {}))
        for m in maps:
            for name, v in m.items():
                if v["value"] is None:
                    continue
                key = (rec["workload"], name, rec["trace"])
                out.setdefault(key, []).append((rec["seed"], v["value"], v["unit"]))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def pairs(before, after):
    by_seed_a = {}
    for seed, v, _ in after:
        by_seed_a.setdefault(seed, []).append(v)
    paired = []
    for seed, v, _ in before:
        if by_seed_a.get(seed):
            paired.append((v, by_seed_a[seed].pop(0)))
    if not paired:
        paired = [(b[1], a[1]) for b, a in zip(before, after)]
    return paired


def verdict(before, after, better, bound):
    b = [v for _, v, _ in before]
    a = [v for _, v, _ in after]
    b_q1, b_med, b_q3 = quartiles(b)
    _, a_med, _ = quartiles(a)
    sign = 1.0 if better == "higher" else -1.0
    paired = pairs(before, after)
    if min(len(b), len(a), len(paired)) < MIN_RUNS:
        return "unresolved"
    wins = sum(1 for x, y in paired if sign * (y - x) > 0)
    if wins >= 0.9 * len(paired) and sign * (a_med - b_med) > (b_q3 - b_q1):
        return "improved"
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    all_better = all(sign * (y - x) > 0 for x in b for y in a)
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = -sign * (a_med - b_med) / abs(b_med) if b_med else 0.0
    if worse_by > bound:
        return "worse"
    return "unchanged"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("before")
    p.add_argument("after")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    before = series(load(args.before))
    after = series(load(args.after))
    if not before or not after:
        print("compare: no records found", file=sys.stderr)
        return 1

    header = f"{'workload':10s} {'metric':34s} {'unit':6s} " \
             f"{'before q1/med/q3':>32s} {'after q1/med/q3':>32s}  verdict"
    print(header)
    print("-" * len(header))
    for key in sorted(set(before) & set(after)):
        workload, name, trace = key
        b, a = before[key], after[key]
        unit = b[0][2]
        if trace:
            better, bound = None, None
        elif name in e2e:
            better, bound = e2e[name]["better"], e2e[name]["bound"]
        else:
            better = "lower" if unit in LOWER_UNITS else "higher" if unit == "1/s" else None
            bound = DETAIL_BOUND
        bq = quartiles([v for _, v, _ in b])
        aq = quartiles([v for _, v, _ in a])
        v = verdict(b, a, better, bound) if better else "-"
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:10s} {name:34s} {unit:6s} {fmt(bq):>32s} {fmt(aq):>32s}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
