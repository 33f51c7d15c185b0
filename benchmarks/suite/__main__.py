"""``python -m benchmarks.suite run|compare`` — the suite's command line.

``run`` runs every workload (or one), prints each metric by name with its
unit, and appends one row per workload to ``results/BENCH.jsonl``;
``run --traced`` adds the traced rep and the per-layer table.
``compare A.jsonl B.jsonl`` judges B against A by the bounds in
``BENCHMARK.json``.  Both exit non-zero on a failed check / a ``worse``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

from . import compare as cmp
from . import runner
from .layers import LAYERS
from .workloads import WORKLOADS


def _commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, cwd=runner.REPO_ROOT, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _print_result(name: str, plain: dict, traced: dict, spec: dict) -> None:
    print(f"\n== {name}  seed {plain['seed']}  reps {plain['reps']}")
    print(f"   {WORKLOADS[name].why}")
    print(f"   {'end-to-end metric':22}{'median':>14}{'min':>14}{'max':>14}  unit")
    for metric in spec["end_to_end"]:
        cell = plain["end_to_end"].get(metric["name"])
        if cell is not None:
            print(f"   {metric['name']:22}{cell['median']:14.6g}{cell['min']:14.6g}"
                  f"{cell['max']:14.6g}  {metric['unit']}")
    print(f"   attempted {plain['attempted']}  failed {plain['failed']}  "
          f"fingerprint {(plain['fingerprint'] or 'n/a')[:16]}  "
          f"host speed {plain.get('host_speed', 1.0):.3f}")
    layers = traced.get("per_layer") if traced else None
    if not layers:
        return
    print(f"   {'layer':22}{'calls':>12}{'self_s':>12}{'share':>9}"
          f"   (traced rep; overhead ratio {layers['trace.overhead_ratio']:.2f}, "
          f"{layers['trace.spans']} spans)")
    for layer in LAYERS:
        print(f"   {layer:22}{layers[layer + '.calls']:12d}"
              f"{layers[layer + '.self_s']:12.4f}{layers[layer + '.share']:9.3f}")
    table = {f"{layer}.{col}" for layer in LAYERS for col in ("calls", "self_s", "share")}
    for metric in spec["per_layer"]:
        if metric["name"] not in table:
            print(f"   {metric['name']:38}{layers[metric['name']]:16.6g}  {metric['unit']}")


def cmd_run(args) -> int:
    spec = runner.load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    stamp = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    failed = False
    for name in names:
        plain = runner.run_untraced(name, args.seed, seconds)
        traced = runner.run_traced(name, args.seed, plain) if args.traced else {}
        errors = plain["errors"] + traced.get("errors", [])
        _print_result(name, plain, traced, spec)
        for error in errors:
            failed = True
            print(f"   FAILED: {error}", file=sys.stderr)
        if errors:
            continue
        row = {
            "workload": name, **stamp,
            **{k: plain[k] for k in ("seed", "reps", "attempted", "failed",
                                     "fingerprint", "host_speed")},
            "end_to_end": plain["end_to_end"],
        }
        if traced:
            row["per_layer"] = traced["per_layer"]
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(row) + "\n")
    return 1 if failed else 0


def cmd_compare(args) -> int:
    lines, any_worse = cmp.compare(args.a, args.b, runner.load_spec())
    print("\n".join(lines))
    return 1 if any_worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the workloads and append to the trajectory")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--seconds", type=float, default=None,
                     help="timed region to measure per workload (default: run_seconds)")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--traced", action="store_true",
                     help="also run the traced rep for the per-layer metrics")
    run.add_argument("--out", default=str(runner.RESULTS_DIR / "BENCH.jsonl"))
    run.set_defaults(fn=cmd_run)
    comp = sub.add_parser("compare", help="judge B.jsonl against A.jsonl")
    comp.add_argument("a")
    comp.add_argument("b")
    comp.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
