"""``python -m benchmarks.suite compare A.jsonl B.jsonl``

Compares two trajectory files (rows appended by ``run``), workload by
workload and end-to-end metric by end-to-end metric: both medians, B's
ratio to A (A is the base), the metric's bound from ``BENCHMARK.json`` and
a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread of either side's own runs is wider than the
  bound, so a difference that small cannot be told from noise;
* ``ok`` — neither.

A side's median is the median over its rows' medians.  Its spread is the
distance between the quartiles of those row medians as a share of their
median when it has four rows or more, and otherwise the distance between
the smallest and largest value seen in any rep, as a share of the median.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple


def load_rows(path: str) -> Dict[str, List[dict]]:
    """Rows of a trajectory file, grouped by workload name."""
    rows: Dict[str, List[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                rows.setdefault(row["workload"], []).append(row)
    return rows


def side(rows: List[dict], metric: str) -> Tuple[float, float]:
    """(median, spread as a share of the median) of one file's rows."""
    cells = [row["end_to_end"][metric] for row in rows if metric in row["end_to_end"]]
    if not cells:
        raise KeyError(metric)
    medians = [cell["median"] for cell in cells]
    median = statistics.median(medians)
    if len(medians) >= 4:
        q1, _, q3 = statistics.quantiles(medians, n=4)
        width = q3 - q1
    else:
        width = max(c["max"] for c in cells) - min(c["min"] for c in cells)
    return median, (width / abs(median) if median else 0.0)


def verdict(a: float, b: float, better: str, bound: float, spread: float) -> str:
    worse_by = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    if worse_by > bound:
        return "worse"
    if spread > bound:
        return "unresolved"
    return "ok"


def compare(path_a: str, path_b: str, spec: dict) -> Tuple[List[str], bool]:
    """The report's lines, and whether any pairing came out ``worse``."""
    rows_a, rows_b = load_rows(path_a), load_rows(path_b)
    lines = [
        f"A = {path_a}   B = {path_b}   ratio = B / A (A is the base)",
        f"{'workload':24}{'metric':20}{'A median':>14}{'B median':>14}"
        f"{'ratio':>9}{'bound':>7}{'spread':>8}  verdict",
    ]
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in rows_a or workload not in rows_b:
            lines.append(f"{workload:24}missing from {'A' if workload not in rows_a else 'B'}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, spread_a = side(rows_a[workload], name)
            b, spread_b = side(rows_b[workload], name)
            spread = max(spread_a, spread_b)
            word = verdict(a, b, metric["better"], metric["bound"], spread)
            any_worse |= word == "worse"
            lines.append(
                f"{workload:24}{name:20}{a:14.6g}{b:14.6g}{b / a if a else 0.0:9.3f}"
                f"{metric['bound']:7.2f}{spread:8.3f}  {word}"
            )
        prints_a = {(r["seed"], r["fingerprint"]) for r in rows_a[workload]}
        prints_b = {(r["seed"], r["fingerprint"]) for r in rows_b[workload]}
        seeds = {s for s, _ in prints_a} & {s for s, _ in prints_b}
        if any(fp for _, fp in prints_a) and seeds:
            same = all(
                {fp for s, fp in prints_a if s == seed} == {fp for s, fp in prints_b if s == seed}
                for seed in seeds
            )
            lines.append(
                f"{workload:24}simulated results (fingerprint, seeds "
                f"{sorted(seeds)}): {'identical' if same else 'DIFFERENT'}"
            )
    return lines, any_worse
