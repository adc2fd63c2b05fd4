#!/usr/bin/env python3
"""Compare two sets of ashbench reports, metric by metric.

usage: benchcmp.py BASE.json [BASE.json ...] --vs NEW.json [NEW.json ...]
                   [--bench BENCHMARK.json]

Each file is a report written by `ashbench --all --out FILE` or
`ashbench --workload NAME --report FILE`. Give one file per run, in run
order: run i of the base set is paired with run i of the new set.

For every workload and end-to-end metric it prints each side's median and
quartiles and one verdict:
  better      the new side wins at least 9 of 10 pairs (ties count for
              neither) and its median beats the base median by more than
              the base runs' interquartile range;
  worse       the new median is worse than the base median by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the base runs spread wider than the bound, so "unchanged"
              cannot be claimed (unless every new run beats every base run);
  unchanged   otherwise.
failed_ratio is compared with an absolute bound of +0.001.
Exits 1 when any metric is worse, else 0.
"""
import argparse
import json
import pathlib
import statistics
import sys

FAILED_RATIO_BOUND = 0.001


def load_runs(paths):
    """{workload: [report, ...]} in the order the files were given."""
    runs = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        reports = doc["workloads"].values() if "workloads" in doc else [doc]
        for rep in reports:
            runs.setdefault(rep["workload"], []).append(rep)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, lower_is_better, bound, absolute=False):
    gain = (lambda b, n: b - n) if lower_is_better else (lambda b, n: n - b)
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if gain(b, n) > 0)
    improvement = gain(bmed, nmed)
    if pairs and wins * 10 >= 9 * len(pairs) and improvement > b3 - b1:
        return "better"
    worsening = -improvement if absolute else (
        -improvement / abs(bmed) if bmed else (0 if improvement >= 0 else 1))
    if worsening > bound:
        return "worse"
    spread = (b3 - b1) if absolute else ((b3 - b1) / abs(bmed) if bmed else 0)
    if spread > bound and not all(gain(b, n) > 0 for b in base for n in new):
        return "unresolved"
    return "unchanged"


def main():
    here = pathlib.Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(
        description="Compare two sets of ashbench reports.")
    ap.add_argument("base", nargs="+", help="base-side report files")
    ap.add_argument("--vs", nargs="+", required=True, dest="new",
                    help="new-side report files")
    ap.add_argument("--bench", default=str(here.parent.parent /
                                           "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)

    any_worse = False
    fmt = "  {:<18} {:>13} {:>13} {:>13}  {:>13} {:>13} {:>13}  {}"
    for workload in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[workload], new_runs[workload]
        print(f"{workload}: {len(base)} base runs, {len(new)} new runs")
        print(fmt.format("metric", "base q1", "base median", "base q3",
                         "new q1", "new median", "new q3", "verdict"))
        rows = []
        for name, m in bounds.items():
            if name not in base[0]["e2e"]:
                continue
            rows.append((name, [r["e2e"][name]["value"] for r in base],
                         [r["e2e"][name]["value"] for r in new],
                         m["better"] == "lower", m["bound"], False))
        rows.append(("failed_ratio", [r["failed_ratio"] for r in base],
                     [r["failed_ratio"] for r in new], True,
                     FAILED_RATIO_BOUND, True))
        for name, b, n, lower, bound, absolute in rows:
            v = verdict(b, n, lower, bound, absolute)
            any_worse = any_worse or v == "worse"
            bq, nq = quartiles(b), quartiles(n)
            print(fmt.format(name, *(f"{x:.6g}" for x in bq + nq), v))
        for side, reps in (("base", base), ("new", new)):
            bad = sum(1 for r in reps if not r["correct"])
            if bad:
                print(f"  {side}: {bad} run(s) failed a check")
                any_worse = any_worse or side == "new"
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
