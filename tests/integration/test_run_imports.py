"""A run imports only what it runs, and nothing while it runs.

Every process compiles from source each module it imports (unless cached
bytecode is on disk), so whatever a run path pulls in is paid again by
every replica process and every benchmark rep as set-up.  A simulated run
needs the protocol, broadcast, DAG, crypto and engine modules; it needs no
TCP runtime (asyncio, ssl), no process pool (multiprocessing,
concurrent.futures), no exporters (subprocess) and no CLI.  Package
``__init__`` files are docstrings and the TCP runtime is imported by the
one function that starts it, which is what keeps these out.

Each check starts a fresh interpreter: the test process itself has long
since imported everything.  An import *inside* the timed region would move
its cost from set-up into the measured run, so the set of loaded modules
must also stay the same across every ``Simulation.run`` and across the TCP
cluster's run, from the first ``on_start`` to the end of ``TcpCluster.run``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.harness.runner import PROTOCOL_REGISTRY

SRC = Path(repro.__file__).parent.parent

#: Modules a simulated run must not load.
NOT_ON_THE_SIMULATION_PATH = (
    "asyncio",
    "ssl",
    "multiprocessing",
    "concurrent.futures",
    "subprocess",
    "repro.net.tcp",
    "repro.harness.parallel",
    "repro.harness.experiments",
    "repro.analysis.obs_export",
    "repro.analysis.latency",
    "repro.workload.clients",
    "repro.check.explorer",
    "repro.check.fuzzer",
    "repro.cli",
)

SIMULATED_RUNS = """
import sys

from repro.config import ExperimentConfig, SystemConfig
from repro.harness.runner import PROTOCOL_REGISTRY, run_experiment
from repro.net.simulator import Simulation

grew = []
run = Simulation.run


def watched(self, *args, **kwargs):
    before = set(sys.modules)
    try:
        return run(self, *args, **kwargs)
    finally:
        grew.append(sorted(set(sys.modules) - before))


Simulation.run = watched
for name in PROTOCOL_REGISTRY:
    run_experiment(ExperimentConfig(
        system=SystemConfig(n=4), protocol_name=name,
        duration=2.0, warmup=0.5, check_level="full",
    ))
print(repr((sorted(sys.modules), grew)))
"""

TCP_RUN = """
import sys

from repro.config import ExperimentConfig, SystemConfig
from repro.core.base import BaseDagNode
from repro.harness.runner import run_async_experiment
from repro.net.tcp import TcpCluster

at_start, at_end = [], []
start = BaseDagNode.on_start
run = TcpCluster.run


def watched_start(self):
    if not at_start:
        at_start.append(set(sys.modules))
    start(self)


async def watched_run(self, *args, **kwargs):
    try:
        await run(self, *args, **kwargs)
    finally:
        at_end.append(set(sys.modules))


BaseDagNode.on_start = watched_start
TcpCluster.run = watched_run
summary = run_async_experiment(ExperimentConfig(
    system=SystemConfig(n=4), protocol_name="lightdag2",
    duration=1.0, warmup=0.2, latency_model="lan",
))
(first,), (last,) = at_start, at_end
print(repr((sorted(last - first), sorted(first - last), summary["committed_txs"])))
"""


def _run_fresh(script: str):
    """Run ``script`` in a fresh interpreter; its last stdout line, evaluated."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_simulated_runs_load_no_runtime_they_do_not_use():
    loaded, grew = _run_fresh(SIMULATED_RUNS)
    assert sorted(set(loaded) & set(NOT_ON_THE_SIMULATION_PATH)) == []
    # One Simulation.run per protocol, and none of them imported anything.
    assert grew == [[]] * len(PROTOCOL_REGISTRY)


def test_a_tcp_run_imports_nothing_while_it_runs():
    loaded, unloaded, committed = _run_fresh(TCP_RUN)
    assert committed > 0
    assert (loaded, unloaded) == ([], [])
