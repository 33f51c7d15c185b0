"""Alternating parent/change pairs of one pinned-suite workload, or of all.

``python benchmarks/pairs.py --workload sim_scale_n64 --base HEAD~1 --pairs 10``
(or ``make pairs W=... BASE=... N=...``; ``W=all`` runs every workload of
``BENCHMARK.json`` back to back and prints one table) is the procedure a
performance PR has to follow (docs/PERFORMANCE.md §7): export ``BASE`` into
a scratch directory, then for seeds 11, 12, ... measure the workload once in
that export and once in this working tree — whichever went second last time goes
first now, so slow drift of the host hits both sides alike — and report, per
end-to-end metric of ``BENCHMARK.json``, both medians and quartiles and in
how many pairs the change was ahead.  Next to ``host_wall_s`` each side's
``child_cpu_s`` is printed: the CPU seconds (user + system, from
``getrusage(RUSAGE_CHILDREN)``) its whole suite run spent, with the number
of timed reps it made (the suite times reps until ``--seconds`` are
measured, so only runs with equal reps compare).  Wall time that moves
while CPU time does not is the host, not the code.

Each measurement is the suite's own ``python -m benchmarks.suite run`` of
the tree it measures (the same reps-and-medians as ``benchmarks/suite/
run.py``, plus the fingerprint), so the parent is judged by the parent's
copy of the suite.  Exit status is 0 when every run passed the suite's
correctness checks; seconds never decide it.

``--layers`` (``make pairs ... LAYERS=1``) then makes one traced rep per side
(``benchmarks/suite/run.py --trace 1``, the first seed) and prints where the
time went before and after: ``calls``, ``self_s`` and ``share`` of every
layer that ran, and each count metric on which the two sides differ.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
FIRST_SEED = 11
#: Not a BENCHMARK.json metric: whole-run CPU of one suite run, for reading
#: ``host_wall_s`` against host drift.
CHILD_CPU = {"name": "child_cpu_s", "unit": "s", "better": "lower"}


def export(rev: str, into: Path) -> None:
    """The committed files of ``rev``, unpacked under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=REPO_ROOT, check=True, capture_output=True,
    )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def child_cpu_s() -> float:
    """User + system CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure(tree: Path, workload: str, seed: int, seconds: float) -> Optional[dict]:
    """One suite run in ``tree``; its trajectory row plus ``child_cpu_s``,
    or None if it failed."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "row.jsonl"
        cpu0 = child_cpu_s()
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.suite", "run", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)],
            cwd=tree, capture_output=True, text=True,
        )
        cpu = child_cpu_s() - cpu0
        if proc.returncode != 0 or not out.exists():
            print(proc.stderr[-2000:], file=sys.stderr)
            return None
        row = json.loads(out.read_text().splitlines()[-1])
        row[CHILD_CPU["name"]] = cpu
        return row


def traced_layers(tree: Path, workload: str, seconds: float) -> Optional[Dict[str, float]]:
    """One traced rep in ``tree``; its per-layer metrics, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", workload,
         "--seed", str(FIRST_SEED), "--seconds", str(seconds), "--trace", "1"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return {name: cell["value"] for name, cell in json.loads(lines[-1])["metrics"].items()}


def layer_rows(spec: dict, parent: Dict[str, float], change: Dict[str, float]) -> List[str]:
    """The before/after layer table and the count metrics that differ."""
    layers = [m["name"][: -len(".self_s")] for m in spec["per_layer"]
              if m["name"].endswith(".self_s")]
    rows = [f"{'layer':16}{'calls':>10} {'-> change':>10}{'self_s':>10} {'-> change':>10}"
            f"{'share':>8} {'-> change':>9}"]
    for layer in layers:
        calls, self_s, share = (f"{layer}.{col}" for col in ("calls", "self_s", "share"))
        if parent[calls] or change[calls]:
            rows.append(
                f"{layer:16}{parent[calls]:10d} {change[calls]:10d}"
                f"{parent[self_s]:10.3f} {change[self_s]:10.3f}"
                f"{parent[share]:8.3f} {change[share]:9.3f}"
            )
    in_table = {f"{layer}.calls" for layer in layers}
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] == "count" and m["name"] not in in_table]
    differing = [name for name in counts if parent[name] != change[name]]
    rows += [f"{name:38}{parent[name]:12g} -> {change[name]:g}" for name in differing]
    rows.append(f"{len(counts) - len(differing)} of {len(counts)} count metrics identical")
    return rows


def quartiles(values: List[float]):
    if len(values) < 2:
        return (values[0],) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(metric: dict, parent: List[float], change: List[float]) -> str:
    lower = metric["better"] == "lower"
    ahead = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    delta = (c2 - p2) / p2 if p2 else 0.0
    return (
        f"{metric['name']:16} parent {p2:10.6g} [{p1:.6g}, {p3:.6g}]  "
        f"change {c2:10.6g} [{c1:.6g}, {c3:.6g}]  {delta:+7.1%}  "
        f"change ahead {ahead} of {len(parent)}"
        + (f" ({ties} tied)" if ties else "")
        + f"  {metric['unit']}"
    )


def run_pairs(trees: Dict[str, Path], workload: str, base: str, pairs: int,
              seconds: float) -> Tuple[Dict[str, List[dict]], int]:
    """The alternating pairs of one workload: (rows per side, failed pairs)."""
    rows: Dict[str, List[dict]] = {"parent": [], "change": []}
    failed = 0
    print(f"{workload}: {pairs} pairs, {base} (parent) against "
          f"the working tree (change), {seconds:g} s per run")
    print(f"{'seed':>4}  {'first':6}  {'parent wall_s':>13}  {'change wall_s':>13}  "
          f"{'delta':>7}  {'parent cpu_s/reps':>17}  {'change cpu_s/reps':>17}  "
          f"fingerprint", flush=True)
    for pair in range(pairs):
        seed = FIRST_SEED + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        got = {side: measure(trees[side], workload, seed, seconds) for side in order}
        if None in got.values():
            failed += 1
            print(f"{seed:4}  {order[0]:6}  a run failed its checks", flush=True)
            continue
        for side, row in got.items():
            rows[side].append(row)
        p = got["parent"]["end_to_end"]["host_wall_s"]["median"]
        c = got["change"]["end_to_end"]["host_wall_s"]["median"]
        cpu = [f"{got[side][CHILD_CPU['name']]:.2f}/{got[side]['reps']}"
               for side in ("parent", "change")]
        same = got["parent"]["fingerprint"] == got["change"]["fingerprint"]
        print(f"{seed:4}  {order[0]:6}  {p:13.3f}  {c:13.3f}  {(c - p) / p:+7.1%}  "
              f"{cpu[0]:>17}  {cpu[1]:>17}  "
              f"{'same' if same else 'DIFFERENT'}", flush=True)
    return rows, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a BENCHMARK.json workload, or 'all' for every one in turn")
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--layers", action="store_true",
                        help="then one traced rep per side: the before/after layer rows")
    args = parser.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = (
        [w["name"] for w in spec["workloads"]] if args.workload == "all"
        else [args.workload]
    )
    with tempfile.TemporaryDirectory(prefix="pairs-base-") as scratch:
        export(args.base, Path(scratch))
        trees = {"parent": Path(scratch), "change": REPO_ROOT}
        results = {
            workload: run_pairs(trees, workload, args.base, args.pairs, seconds)
            for workload in workloads
        }
        traced = {
            workload: {side: traced_layers(tree, workload, seconds)
                       for side, tree in trees.items()}
            for workload in (workloads if args.layers else ())
        }
    failed_total = 0
    for workload, (rows, failed) in results.items():
        failed_total += failed
        print(f"\n{workload}")
        if rows["parent"]:
            for metric in spec["end_to_end"]:
                name = metric["name"]
                print(summarize(
                    metric,
                    [row["end_to_end"][name]["median"] for row in rows["parent"]],
                    [row["end_to_end"][name]["median"] for row in rows["change"]],
                ))
            name = CHILD_CPU["name"]
            equal = [(p[name], c[name]) for p, c in zip(rows["parent"], rows["change"])
                     if p["reps"] == c["reps"]]
            if equal:
                print(summarize(CHILD_CPU, *map(list, zip(*equal)))
                      + " (pairs with equal reps)")
        matching = sum(
            p["fingerprint"] == c["fingerprint"]
            for p, c in zip(rows["parent"], rows["change"])
        )
        print(f"fingerprints match in {matching} of {len(rows['parent'])} pairs; "
              f"{failed} pairs failed")
        if workload in traced:
            sides = traced[workload]
            if None in sides.values():
                failed_total += 1
                print("a traced rep failed its checks")
            else:
                print(f"traced rep, seed {FIRST_SEED}: {args.base} (parent) -> "
                      f"the working tree (change)")
                print("\n".join(layer_rows(spec, sides["parent"], sides["change"])))
    return 1 if failed_total else 0


if __name__ == "__main__":
    sys.exit(main())
