"""Summarise a before/after benchmark record.

    python3 tools/bench_summary.py BENCH_9.json

A record holds, per workload, interleaved ``pairs`` of perfbench results,
each ``{"seed", "first", "parent": {metric: value}, "change": {...}}``, and
optionally one ``traced`` run per side.  For every workload and end-to-end
metric this prints each side's median and quartiles and the pairs the
change won; for every traced metric that moved, parent and change side by
side.  Every metric here is better lower, so a win is a pair where the
change's value is lower; ties count for neither side.
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


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("record", type=Path, help="a BENCH_*.json file")
    bench = json.loads(p.parse_args(argv).record.read_text())

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
