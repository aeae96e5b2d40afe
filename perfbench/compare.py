"""Compare the benchmark results of a parent commit and a change.

Usage::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the runs ``run.py`` appended to its ``--results`` file.
Untraced runs are paired by workload and seed (seeds that appear on one side
only are ignored); the runs of a pair should have been made one after the
other, alternating which side goes first.  For every workload and
end-to-end metric of BENCHMARK.json the verdict is

* ``improved``: at least ten pairs, the change wins at least 9 in 10 of them
  (ties count for neither side) and the medians differ by more than the
  parent's interquartile range;
* ``unresolved``: not improved, and the parent's interquartile range is
  wider than the metric's bound, unless every change run reads better than
  every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from run import describe

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load_runs(path: str) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] or rec["tiny"] or not rec["end_to_end"]:
                continue
            runs[rec["workload"], rec["seed"]].append(rec)
    return runs


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, dict]:
    """Apply the pairing rule to matched run medians of one metric."""
    sign = 1 if better == "lower" else -1  # positive gain means the change is better
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    ps = describe(parent)
    pm, cm = ps["median"], describe(change)["median"]
    iqr = ps["q3"] - ps["q1"]
    gain = sign * (pm - cm)
    info = {"pairs": len(gains), "wins": wins, "parent_median": pm, "change_median": cm,
            "parent_iqr": iqr, "delta": (cm - pm) / pm if pm else float("inf")}
    if len(gains) >= MIN_PAIRS and wins >= 0.9 * len(gains) and gain > iqr:
        return "improved", info
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if pm and iqr / abs(pm) > bound and not all_better:
        return "unresolved", info
    if -gain > bound * abs(pm):
        return "worse", info
    return "unchanged", info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    if not workloads:
        print("error: no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':8} {'metric':12} {'unit':5} {'parent':>11} {'change':>11} "
          f"{'delta':>8} {'p.IQR':>9} {'wins':>6} {'first':>6}  verdict")
    worse = 0
    for w in workloads:
        pairs = []
        for (wl, seed), runs in sorted(parent.items()):
            if wl == w:
                pairs += list(zip(runs, change.get((w, seed), [])))
        if not pairs:
            print(f"{w:8} no parent and change runs share a seed")
            continue
        parent_first = sum(p["time"] < c["time"] for p, c in pairs)
        for m in metrics:
            name = m["name"]
            pv = [p["end_to_end"][name]["median"] for p, _ in pairs]
            cv = [c["end_to_end"][name]["median"] for _, c in pairs]
            v, info = verdict(pv, cv, m["better"], m["bound"])
            worse += v == "worse"
            print(f"{w:8} {name:12} {m['unit']:5} {info['parent_median']:11.5g} "
                  f"{info['change_median']:11.5g} {info['delta']:+8.2%} "
                  f"{info['parent_iqr']:9.3g} {info['wins']:>3}/{info['pairs']:<2} "
                  f"{parent_first:>3}/{len(pairs):<2}  {v}")
    print("wins: pairs the change won; first: pairs in which the parent ran first; "
          "p.IQR: the parent's interquartile range")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
