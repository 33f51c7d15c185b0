"""Build and run one configured experiment.

:func:`run_experiment` is the single entry point the benchmarks, examples
and integration tests share: given an :class:`~repro.config.ExperimentConfig`
it has :mod:`repro.harness.cluster` assemble the replicas (keys, mempools,
metrics, the requested adversary, the oracles), runs them on the
discrete-event simulator, checks the honest ledgers, and returns the
measurements.  :func:`run_async_experiment` is the same recipe over
loopback TCP in wall-clock time, the config's latency model injected per
frame.

Adversary names (``ExperimentConfig.adversary_name``), each a fault
schedule (:data:`repro.adversary.schedule.ATTACKS`):

=================  ============================================================
``none``           favorable situation (no interference)
``crash``          crash ``f`` replicas at t=0 (§VI-A attack on Tusk/LightDAG1)
``leader-delay``   delay predefined Bullshark leaders' blocks (§VI-A)
``equivocate``     ``f`` staggered equivocating replicas (§VI-A vs LightDAG2)
``random-sched``   unstructured random delays (property tests)
``withhold``       ``f`` replicas ignore retrieval requests (§IV-A attack)
``withhold-garbage``  same, but answering with mislabeled junk bodies
``worst``          the §VI-A per-protocol strongest attack, resolved from the
                   protocol name — what Fig. 15 plots
``schedule:SPEC``  a composed, timed multi-phase fault schedule in the
                   :mod:`repro.adversary.schedule` grammar (fuzzer cases)
=================  ============================================================

``ExperimentConfig.check_level`` (overridable per call) decides how hard
the run is checked: ``prefix`` keeps the historical digest-prefix check,
``final`` adds the post-run deep audit, and ``full`` also installs the
mid-run :class:`~repro.check.InvariantMonitor` on every honest replica.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Type

from ..baselines.bullshark import BullsharkNode
from ..baselines.dagrider import DagRiderNode
from ..baselines.tusk import TuskNode
from ..config import ExperimentConfig
from ..core.base import BaseDagNode
from ..core.lightdag1 import LightDag1NoMergeNode, LightDag1Node
from ..core.lightdag2 import LightDag2Node
from ..errors import ConfigError
from ..net.latency import make_latency_model
from ..net.simulator import CpuCost, Simulation
from ..obs import NULL_OBS, HealthMonitor, Observability
from .cluster import assemble_experiment

#: Protocol-name → node class.
PROTOCOL_REGISTRY: Dict[str, Type[BaseDagNode]] = {
    "lightdag1": LightDag1Node,
    "lightdag1-nomerge": LightDag1NoMergeNode,
    "lightdag2": LightDag2Node,
    "dagrider": DagRiderNode,
    "tusk": TuskNode,
    "bullshark": BullsharkNode,
}


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run a simulated event loop with the cycle collector suspended.

    The loop creates no reference cycles (``tests/integration/
    test_no_cyclic_garbage.py``) but allocates fast enough to trigger
    thousands of collections that re-scan every queued event to find
    nothing.  One collection first — a previous run's finished cluster *is*
    a cycle — then none until the caller's setting is restored.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class ExperimentResult:
    """Everything one run measures."""

    config: ExperimentConfig
    throughput_tps: float
    mean_latency: float
    p50_latency: float
    p95_latency: float
    committed_txs: int
    rounds_reached: int
    events: int
    messages_sent: int
    bytes_sent: int
    extras: Dict[str, float] = field(default_factory=dict)
    #: attached when the run was instrumented (``run_experiment(cfg, obs=...)``)
    obs: Optional[Observability] = None
    #: run-end health verdict (``run_experiment(..., health=True)``)
    health: Optional[Dict[str, object]] = None

    def row(self) -> Dict[str, object]:
        """Flat dict for tabular reports."""
        row: Dict[str, object] = {
            "protocol": self.config.protocol_name,
            "n": self.config.system.n,
            "batch": self.config.protocol.batch_size,
            "adversary": self.config.adversary_name,
            "tps": round(self.throughput_tps, 1),
            "latency_s": round(self.mean_latency, 4),
            "p95_s": round(self.p95_latency, 4),
            "rounds": self.rounds_reached,
        }
        if self.obs is not None:
            row.update({k: int(v) for k, v in self.obs.summary().items()})
        return row


def node_class(
    name: str, protocols: Optional[Dict[str, Type[BaseDagNode]]] = None
) -> Type[BaseDagNode]:
    """The class registered under ``name`` (in :data:`PROTOCOL_REGISTRY`
    unless another registry is given), or a :class:`ConfigError`."""
    protocols = PROTOCOL_REGISTRY if protocols is None else protocols
    node_cls = protocols.get(name)
    if node_cls is None:
        raise ConfigError(
            f"unknown protocol {name!r}; choose from {sorted(protocols)}"
        )
    return node_cls


def run_experiment(
    cfg: ExperimentConfig,
    obs: Optional[Observability] = None,
    check_level: Optional[str] = None,
    registry: Optional[Dict[str, Type[BaseDagNode]]] = None,
    health: bool = False,
) -> ExperimentResult:
    """Run one experiment to completion and collect its measurements.

    Pass an :class:`~repro.obs.Observability` to instrument the run: the
    registry and journal are threaded through the simulator, every node,
    and all broadcast/retrieval managers, and come back attached to the
    result (``result.obs``) for export via :mod:`repro.analysis.obs_export`.
    An enabled journal records the ``trace.*`` lifecycle milestones with
    the ``block.*`` events, and is what
    :func:`repro.analysis.latency.explain_report` decomposes.

    ``health=True`` (requires an enabled journal) installs the
    :class:`~repro.obs.health.HealthMonitor` watchdog: ``health.*``
    events land in the journal and the run-end verdict is attached as
    ``result.health``.

    ``check_level`` overrides ``cfg.check_level`` for this run;
    ``registry`` replaces :data:`PROTOCOL_REGISTRY` for protocol lookup
    (the oracle self-tests merge deliberately broken mutants in).
    """
    system = cfg.system
    node_cls = node_class(cfg.protocol_name, registry)
    obs = obs if obs is not None else NULL_OBS
    watchdog = None
    if health and obs.journal.enabled:
        # Listener installation swaps journal.emit — must happen before
        # node construction, which pre-binds that method for hot paths.
        watchdog = HealthMonitor(system.n)
        watchdog.install(obs.journal)
    cluster, collector = assemble_experiment(
        cfg, node_cls, check_level=check_level, obs=obs
    )

    cpu = None
    if cfg.cpu_fixed_us > 0 or cfg.cpu_per_byte_ns > 0:
        cpu = CpuCost(
            fixed_s=cfg.cpu_fixed_us * 1e-6,
            per_byte_s=cfg.cpu_per_byte_ns * 1e-9,
        )
    sim = Simulation(
        cluster.factories,
        latency_model=make_latency_model(cfg.latency_model),
        bandwidth_bps=cfg.bandwidth_bps,
        adversary=cluster.adversary,
        cpu=cpu,
        seed=cfg.seed,
        obs=obs,
    )
    cluster.bind(sim.nodes)
    with collector_paused():
        sim.run(until=cfg.duration)
    honest = cluster.check(sim.nodes, crashed=sim.crashed, now=sim.now)

    window = cfg.duration - cfg.warmup
    extras: Dict[str, float] = {}
    for node in honest:
        if hasattr(node, "reproposals"):
            extras["reproposals"] = extras.get("reproposals", 0) + node.reproposals
    extras["retrieval_requests"] = sum(n.retrieval.requests_sent for n in honest)

    return ExperimentResult(
        config=cfg,
        throughput_tps=collector.throughput(window),
        mean_latency=collector.mean_latency(),
        p50_latency=collector.latency_quantile(0.5),
        p95_latency=collector.latency_quantile(0.95),
        committed_txs=collector.total_committed_txs(),
        rounds_reached=max(node.current_round for node in honest),
        events=sim.stats.events_processed,
        messages_sent=sim.stats.messages_sent,
        bytes_sent=sim.stats.bytes_sent,
        extras=extras,
        obs=obs if obs.enabled else None,
        health=watchdog.summary(now=sim.now) if watchdog is not None else None,
    )


def run_async_experiment(cfg: ExperimentConfig) -> Dict[str, float]:
    """:func:`run_experiment`'s replicas, hooks and checks over loopback
    TCP in wall-clock time, ``cfg.latency_model`` delaying each frame.

    Message-level faults need the simulator's per-send hook and are
    refused.  The numbers include Python handler cost: prototype numbers.

    The TCP runtime (and with it asyncio and ssl) is imported here, by the
    one function that starts it, so a simulated run never loads it.
    """
    import asyncio

    from ..net.tcp import TcpCluster

    assembly, collector = assemble_experiment(cfg, node_class(cfg.protocol_name))
    if assembly.adversary is not None:
        raise ConfigError(
            "the TCP runtime runs favorable situations and Byzantine node "
            "classes only; message-level faults (crash, delay, partition, "
            "loss) need the simulator harness"
        )
    cluster = TcpCluster(
        assembly.factories,
        latency_model=make_latency_model(cfg.latency_model),
        seed=cfg.seed,
    )
    assembly.bind(cluster.nodes)
    asyncio.run(cluster.run(cfg.duration))
    assembly.check(cluster.nodes)
    return {
        "throughput_tps": collector.throughput(cfg.duration - cfg.warmup),
        "mean_latency_s": collector.mean_latency(),
        "committed_txs": float(collector.total_committed_txs()),
        "frames_received": float(cluster.frames_received),
    }
