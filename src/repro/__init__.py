"""LightDAG reproduction: low-latency DAG-based BFT consensus.

A full from-scratch Python implementation of *LightDAG: A Low-latency
DAG-based BFT Consensus through Lightweight Broadcast* (Dai et al.,
IPDPS 2024), including both protocol variants, the DAG-Rider / Tusk /
Bullshark baselines, every substrate they stand on (PBC/CBC/RBC broadcast,
threshold-coin cryptography, a deterministic WAN network simulator, a
TCP prototype runtime), and a harness regenerating every table and
figure of the paper's evaluation.

Quick start::

    from repro import ExperimentConfig, ProtocolConfig, SystemConfig, run_experiment

    cfg = ExperimentConfig(
        system=SystemConfig(n=7),
        protocol=ProtocolConfig(batch_size=400),
        protocol_name="lightdag2",
        duration=10.0,
    )
    result = run_experiment(cfg)
    print(result.throughput_tps, result.mean_latency)

The names below are the public entry points.  Importing this package loads
the whole simulation path (every protocol, the simulator, the cluster
recipe and its checks, the SMR layer) and nothing else; the TCP runtime
is imported by :func:`run_async_experiment` when it starts.  Subpackages
re-export nothing: import any other name from the module that defines it,
e.g. ``from repro.dag.block import Block``.

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for paper-vs-measured results.
"""

from .config import ExperimentConfig, ProtocolConfig, SystemConfig
from .core.lightdag1 import LightDag1Node
from .core.lightdag2 import LightDag2Node
from .baselines.bullshark import BullsharkNode
from .baselines.dagrider import DagRiderNode
from .baselines.tusk import TuskNode
from .harness.runner import (
    PROTOCOL_REGISTRY,
    ExperimentResult,
    run_async_experiment,
    run_experiment,
)
from .net.simulator import Simulation
from .smr.kv import KvStateMachine
from .smr.machine import StateMachine
from .smr.replica import SmrCluster, SmrReplica

__version__ = "1.0.0"

__all__ = [
    "BullsharkNode",
    "DagRiderNode",
    "ExperimentConfig",
    "ExperimentResult",
    "LightDag1Node",
    "LightDag2Node",
    "PROTOCOL_REGISTRY",
    "ProtocolConfig",
    "Simulation",
    "SystemConfig",
    "TuskNode",
    "KvStateMachine",
    "SmrCluster",
    "SmrReplica",
    "StateMachine",
    "run_async_experiment",
    "run_experiment",
]
