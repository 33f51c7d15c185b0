"""Run a workload's reps in child processes and fold them into one result.

An untraced run repeats the rep (a fresh ``rep.py`` process each time)
until ``seconds`` of timed region have been measured, and reports the
median of every end-to-end metric.  Simulated workloads are deterministic,
so their reps must agree bit for bit (same fingerprint, same simulated
metrics) or the run fails; host metrics vary, which is what the median is
for; the wall-clock workload (TCP), whose every metric varies, makes at
least :data:`WALL_CLOCK_REPS` reps.  ``setup_s`` is the median over at
least :data:`SETUP_SAMPLES` set-ups: reps that stop where the timed region
would begin fill the count.

A traced run is one untraced rep plus one rep with the span wrappers in:
the fingerprints must match (the tracer did not perturb the simulation),
and the wall-clock difference is the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import workloads as wl

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
RESULTS_DIR = SUITE_DIR / "results"

#: Set-ups timed per run (measured reps count; set-up-only reps fill up).
SETUP_SAMPLES = 5

#: Reps a run of a wall-clock workload makes at least.
WALL_CLOCK_REPS = 5

#: One child may take this long; the contract allows a whole run 180 s.
CHILD_TIMEOUT_S = 100


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def spawn_rep(workload: str, seed: int, *flags: str) -> dict:
    """One ``rep.py`` child; its report, or a report holding the failure."""
    cmd = [sys.executable, str(SUITE_DIR / "rep.py"), workload, str(seed), *flags]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            cwd=REPO_ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"rep timed out after {CHILD_TIMEOUT_S}s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"errors": [f"rep exited {proc.returncode}: {proc.stderr[-2000:]}"]}


def _fold(values: List[float]) -> Dict[str, float]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    """Reps until ``seconds`` are measured; medians of end-to-end metrics."""
    deterministic = wl.WORKLOADS[workload].kind != "tcp"
    min_reps = 1 if deterministic else WALL_CLOCK_REPS
    reps: List[dict] = []
    errors: List[str] = []
    measured = 0.0
    while measured < seconds or len(reps) < min_reps:
        rep = spawn_rep(workload, seed)
        errors += rep["errors"]
        if rep["errors"]:
            break
        reps.append(rep)
        measured += rep["host_wall_s"]
    if deterministic and any(
        (rep["fingerprint"], rep["metrics"]) != (reps[0]["fingerprint"], reps[0]["metrics"])
        for rep in reps
    ):
        errors.append("reps of one seed disagree on simulated results")
    setups = [rep["setup_s"] for rep in reps]
    while not errors and len(setups) < SETUP_SAMPLES:
        rep = spawn_rep(workload, seed, "--setup-only")
        errors += rep["errors"]
        if not rep["errors"]:
            setups.append(rep["setup_s"])
    out = {
        "workload": workload,
        "seed": seed,
        "reps": len(reps),
        "errors": errors,
        "attempted": sum(rep["attempted"] for rep in reps) or 1,
        "failed": sum(rep["failed"] for rep in reps),
        "fingerprint": reps[0]["fingerprint"] if reps else None,
        "end_to_end": {},
    }
    if errors:
        # A rep that failed a check is a failed attempt even when the
        # workload counts operations rather than reps.
        out["failed"] = max(out["failed"], 1)
        return out
    e2e = out["end_to_end"]
    e2e["setup_s"] = _fold(setups)
    for name in ("host_wall_s", "peak_rss_mb"):
        e2e[name] = _fold([rep[name] for rep in reps])
    out["host_speed"] = statistics.median(rep["host_speed"] for rep in reps)
    for name in reps[0]["metrics"]:
        e2e[name] = _fold([rep["metrics"][name] for rep in reps])
    return out


def run_traced(workload: str, seed: int, untraced: Optional[dict] = None) -> dict:
    """One untraced and one traced rep; the per-layer metrics.

    ``untraced`` is the result of a :func:`run_untraced` of the same
    workload and seed made just before, if there is one: its median wall
    and fingerprint then stand in for the untraced rep.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    trace_file = RESULTS_DIR / f"trace-{workload}.json"
    if untraced is not None and not untraced["errors"]:
        plain = {
            "errors": [],
            "fingerprint": untraced["fingerprint"],
            "host_wall_s": untraced["end_to_end"]["host_wall_s"]["median"],
        }
    else:
        plain = spawn_rep(workload, seed)
    out = {
        "workload": workload, "seed": seed, "errors": list(plain["errors"]),
        "attempted": 1, "failed": 0, "per_layer": {},
        "fingerprint": plain.get("fingerprint"),
    }
    if not out["errors"]:
        traced = spawn_rep(
            workload, seed, "--traced",
            "--untraced-wall", repr(plain["host_wall_s"]),
            "--trace-file", str(trace_file),
        )
        out["errors"] += traced["errors"]
        if not traced["errors"]:
            if traced["fingerprint"] != plain["fingerprint"]:
                out["errors"].append(
                    "the traced rep's fingerprint differs from the untraced "
                    "rep's: the tracer perturbed the simulation"
                )
            out["per_layer"] = traced["layers"]
    if out["errors"]:
        out["failed"] = 1
    return out


def contract_line(result: dict, spec: dict, traced: bool) -> Optional[str]:
    """The one JSON object the benchmark contract wants as the last line."""
    wanted = spec["per_layer" if traced else "end_to_end"]
    got = result["per_layer" if traced else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = got.get(metric["name"])
        if value is None:
            return None
        if isinstance(value, dict):
            value = value["median"]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": not result["errors"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )
