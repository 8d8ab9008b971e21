"""Compare two sets of benchmark records, metric by metric.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that `bench/run.py --out FILE` appended, for one
commit.  Records are grouped by workload and trace mode; each metric's value
per side is the median over that side's records.  For every workload and
metric the table gives the base value, the new value and their ratio
(new / base).  An end-to-end metric is "unresolved" when either side's
run-to-run spread (quartile distance over median) exceeds the metric's bound
in BENCHMARK.json, unless every new record reads better than every base
record, and always when a side has fewer than two records.  A resolved metric
is a "regression" when it is worse than the base by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, trace): {metric: (unit, [value per record])}}"""
    groups: dict = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["env"]["workload"], record["env"]["trace"])
            group = groups.setdefault(key, {})
            for name, m in record["metrics"].items():
                group.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return groups


def spread(values) -> float:
    """Quartile distance over median, of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(base, new, bound, better) -> str:
    """A side with one record has no known spread, so nothing resolves it."""
    if len(base) < 2 or len(new) < 2:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    if all(sign * (b - n) > 0 for b in base for n in new):
        return "better"
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    return "regression" if sign * (n - b) > bound * abs(b) else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    with open(ROOT / "BENCHMARK.json") as handle:
        bounds = {m["name"]: (m["bound"], m["better"])
                  for m in json.load(handle)["end_to_end"]}
    print(f"{'workload':<10} {'metric':<34} {'unit':<6} {'base':>12} {'new':>12} "
          f"{'ratio':>8}  verdict")
    for key in sorted(base.keys() & new.keys()):
        for name, (unit, base_values) in base[key].items():
            if name not in new[key]:
                continue
            new_values = new[key][name][1]
            b, n = statistics.median(base_values), statistics.median(new_values)
            ratio = f"{n / b:.3f}" if b else "-"
            mark = (verdict(base_values, new_values, *bounds[name])
                    if name in bounds else "")
            print(f"{key[0]:<10} {name:<34} {unit:<6} {b:>12.6g} {n:>12.6g} "
                  f"{ratio:>8}  {mark}")
    for key in sorted(base.keys() ^ new.keys()):
        print(f"{key[0]} (trace {key[1]}): only in one file", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
