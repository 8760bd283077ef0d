"""Summarise a before/after benchmark record, or compare two records.

    python3 tools/bench_summary.py BENCH_9.json
    python3 tools/bench_summary.py BENCH_10.json BENCH_13.json

A record holds, per workload, interleaved ``pairs`` of perfbench results,
each ``{"seed", "first", "parent": {metric: value}, "change": {...}}``, and
optionally one ``traced`` run per side.  For every workload and end-to-end
metric this prints each side's median and quartiles and the pairs the
change won; for every traced metric that moved, parent and change side by
side.  Every metric here is better lower, so a win is a pair where the
change's value is lower; ties count for neither side.

Given two records, it prints instead, for every workload and end-to-end
metric both hold, the median of each record's change side and the delta
from the first record to the second: the trajectory across changes.  Runs
in different records were made at different times on a shared host, so a
delta smaller than either record's quartile spread says little.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

# perfbench's per-run counts, not metrics
_COUNTS = ("attempted", "failed")


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(pairs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles and the change's wins."""
    metrics = [m for m in pairs[0]["parent"] if m not in _COUNTS]
    out = {}
    for m in metrics:
        before = [p["parent"][m] for p in pairs]
        after = [p["change"][m] for p in pairs]
        wins = sum(a < b for a, b in zip(after, before))
        out[m] = {
            "parent": _quartiles(before),
            "change": _quartiles(after),
            "change_lower_in": f"{wins}/{len(pairs)}",
        }
    return out


def _side(q: dict) -> str:
    return f"{q['median']:10.4f}  [{q['q1']:.4f}, {q['q3']:.4f}]"


def compare(first: dict, second: dict) -> None:
    """Per workload and metric: each record's change-side median and the delta."""
    print(f"{'workload':14} {'metric':12} {'first median':>14} {'second median':>14} "
          f"{'delta':>11} {'delta %':>8}")
    for name, w in first["workloads"].items():
        if name not in second["workloads"]:
            continue
        before, after = summary(w["pairs"]), summary(second["workloads"][name]["pairs"])
        for metric in before:
            if metric not in after:
                continue
            a, b = before[metric]["change"]["median"], after[metric]["change"]["median"]
            print(f"{name:14} {metric:12} {a:14.4f} {b:14.4f} {b - a:+11.4f} "
                  f"{100 * (b - a) / a:+7.1f}%")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("record", type=Path, help="a BENCH_*.json file")
    p.add_argument("second", type=Path, nargs="?",
                   help="a later BENCH_*.json file to compare the first with")
    args = p.parse_args(argv)
    bench = json.loads(args.record.read_text())
    if args.second is not None:
        compare(bench, json.loads(args.second.read_text()))
        return

    print(f"{'workload':14} {'metric':12} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30}  change lower in")
    for name, w in bench["workloads"].items():
        for metric, s in summary(w["pairs"]).items():
            print(f"{name:14} {metric:12} {_side(s['parent']):>30} "
                  f"{_side(s['change']):>30}  {s['change_lower_in']}")

    for name, t in bench.get("traced", {}).items():
        before, after = t["parent"], t["change"]
        print(f"\ntraced {name} (seed {t['seed']}), correct: "
              f"{before['correct']} -> {after['correct']}; metrics that moved:")
        for metric, b in before["metrics"].items():
            a = after["metrics"][metric]
            if a != b:
                print(f"  {metric:40} {b:14.6g} -> {a:.6g}")


if __name__ == "__main__":
    main()
