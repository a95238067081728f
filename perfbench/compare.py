#!/usr/bin/env python3
"""Compare two sets of benchmark results recorded with ``run.py --record``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Refuses (exit 2) when the runs used different kernel backends, since
their times measure different code.  For every workload and end-to-end
metric it prints both medians, the base's spread (quartile distance
over median), the change, how many seed pairs the new side won, and a
verdict against the metric's bound from BENCHMARK.json.  Exits 1 when
any metric is worse than its bound allows.  Computed counts from traced
runs are compared exactly, seed by seed.

A claimed gain counts only when the named metric improves on the named
workload and no metric on any workload is worse than its bound (see
predictions.json).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["env"]["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"refusing to compare runs that used different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    for key in ("python", "numpy", "nproc", "cpu"):
        seen = {str(r["env"][key]) for r in base + new}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(seen)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    print(f"{'workload':18s} {'metric':12s} {'base':>11s} {'new':>11s} {'spread':>7s} {'change':>8s} {'wins':>6s}  verdict")
    for workload in sorted({r["workload"] for r in base + new}):
        b = {r["seed"]: r for r in base if r["workload"] == workload and r["trace"] == 0}
        n = {r["seed"]: r for r in new if r["workload"] == workload and r["trace"] == 0}
        if not b or not n:
            continue
        for metric in bench["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            bv = [r["metrics"][name]["value"] for r in b.values()]
            nv = [r["metrics"][name]["value"] for r in n.values()]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm
            worse = change if lower else -change
            pairs = [s for s in b if s in n]
            wins = sum((n[s]["metrics"][name]["value"] < b[s]["metrics"][name]["value"]) == lower for s in pairs)
            if worse > bound:
                verdict, status = f"WORSE than bound {bound}", 1
            elif -worse > spread(bv) and wins >= 0.9 * len(pairs) > 0:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:18s} {name:12s} {bm:11.5g} {nm:11.5g} {spread(bv):7.3f} {change:+8.3f} {wins:>2d}/{len(pairs):<3d}  {verdict}")
    counts = defaultdict(dict)
    for side, records in (("base", base), ("new", new)):
        for r in records:
            if r["trace"] == 1:
                computed = {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                counts[(r["workload"], r["seed"])][side] = computed
    for (workload, seed), sides in sorted(counts.items()):
        if len(sides) == 2 and sides["base"] != sides["new"]:
            changed = sorted(k for k in sides["base"] if sides["base"][k] != sides["new"].get(k))
            print(f"computed counts differ on {workload} seed {seed}: {', '.join(changed)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
