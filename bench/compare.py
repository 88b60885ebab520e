#!/usr/bin/env python3
"""Compare two sets of runs: ``python3 bench/compare.py A.json [B.json]``.

Each file is what ``bench/run.py --repeat N --out FILE`` wrote.  For
every workload and metric this prints the median and quartiles of each
set and, for end-to-end metrics, a verdict against the bound fixed in
``BENCHMARK.json``:

within      B's median is no worse than A's by more than the bound
worse       it is
unresolved  the spread between A's own quartiles is wider than the
            bound, so the sets cannot tell (unless every run of B
            reads better than every run of A)

With one file it prints each metric's spread (quartile distance over
median) beside its bound, which is how a benchmark is shown to be
steady.  Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
Key = Tuple[str, str]


def load(path: str) -> Dict[Key, List[float]]:
    values: Dict[Key, List[float]] = {}
    for result in json.loads(Path(path).read_text()):
        for name, metric in result["metrics"].items():
            values.setdefault((result["workload"], name), []).append(
                metric["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worsening = sign * (median_b - median_a) / abs(median_a) if median_a \
        else 0.0
    if worsening > bound:
        return "worse"
    if spread(a) > bound and not all(
            sign * y < sign * x for x in a for y in b):
        return "unresolved"
    return "within"


def main(argv: List[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated: Dict[str, Any] = {m["name"]: m for m in manifest["end_to_end"]}
    a = load(argv[1])
    b = load(argv[2]) if len(argv) == 3 else None
    worse = 0
    workload = None
    for key in a:
        if key[0] != workload:
            workload = key[0]
            print(f"\n{workload}")
        name = key[1]
        q1, median, q3 = quartiles(a[key])
        line = (f"  {name:<42} {median:>13.6g} [{q1:.6g} .. {q3:.6g}] "
                f"n={len(a[key])} spread {spread(a[key]):.3f}")
        gate = gated.get(name)
        if gate is not None:
            line += f" bound {gate['bound']}"
        if b is not None and key in b:
            q1, median, q3 = quartiles(b[key])
            line += f" | {median:>13.6g} [{q1:.6g} .. {q3:.6g}]"
            if gate is not None:
                outcome = verdict(a[key], b[key], gate["better"],
                                  gate["bound"])
                worse += outcome == "worse"
                line += f" {outcome}"
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
