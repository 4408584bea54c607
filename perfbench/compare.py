"""Compare two sets of benchmark results, such as a parent and a change.

Usage: python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --record FILE`` appended, one per run.
Run the two sides alternately (base, change, base, change, ...) with the
same seeds: the i-th base run and the i-th change run of a workload form
a pair.  For every workload and metric this prints each side's median
and quartiles, the change's wins over the pairs, and a verdict:

* improved: the change wins at least 9 of 10 pairs and the medians differ
  by more than the base's quartile distance;
* worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json (for metrics without a bound: it loses
  9 of 10 pairs by more than the base's quartile distance);
* unresolved: either side's quartile distance, as a share of its median,
  is wider than the bound, and not every change run beats every base run;
* unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{(workload, trace): [metrics of each run, in file order]}"""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                key = (rec["env"]["workload"], rec["trace"])
                runs.setdefault(key, []).append(rec["metrics"])
    return runs


def specs() -> dict:
    """Metric name -> (better, bound or None) from BENCHMARK.json."""
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], better: str, bound) -> tuple[str, int, int]:
    sign = -1.0 if better == "lower" else 1.0
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - bmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
        return "improved", wins, len(pairs)
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > bq3 - bq1:
            return "worse", wins, len(pairs)
        return "unchanged", wins, len(pairs)
    if -gain > bound * abs(bmed):
        return "worse", wins, len(pairs)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    known = specs()
    print(f"{'workload':15s} {'metric':45s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>7s}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, _ = key
        for name in base[key][0]:
            b = [m[name]["value"] for m in base[key] if name in m]
            c = [m[name]["value"] for m in change[key] if name in m]
            if not b or not c:
                continue
            better, bound = known.get(name, ("lower", None))
            word, wins, n = verdict(b, c, better, bound)
            bq, cq = quartiles(b), quartiles(c)
            print(f"{workload:15s} {name:45s} "
                  f"{bq[1]:12.5g} [{bq[0]:9.4g}, {bq[2]:9.4g}] "
                  f"{cq[1]:12.5g} [{cq[0]:9.4g}, {cq[2]:9.4g}] "
                  f"{wins:>3d}/{n:<3d}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
