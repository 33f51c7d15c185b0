"""Build and run one configured experiment.

:func:`run_experiment` is the single entry point the benchmarks, examples
and integration tests share: given an :class:`~repro.config.ExperimentConfig`
it deals keys, wires mempools and metrics to one node per replica, installs
the requested adversary, runs the discrete-event simulation, verifies
cross-replica ledger safety, and returns the measurements.

Adversary names (``ExperimentConfig.adversary_name``):

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
from typing import Callable, Dict, Iterator, Optional, Tuple, Type

from ..adversary.base import Adversary
from ..adversary.byzantine import EquivocatingLightDag2Node, stagger_start_waves
from ..adversary.crash import CrashAdversary
from ..adversary.delay import BullsharkLeaderDelayAdversary
from ..adversary.schedule import FaultSchedule
from ..adversary.scheduler import RandomSchedulingAdversary
from ..adversary.withhold import withholding_node_class
from ..baselines.bullshark import BullsharkNode
from ..baselines.dagrider import DagRiderNode
from ..baselines.tusk import TuskNode
from ..check import InvariantMonitor, deep_audit
from ..config import ExperimentConfig
from ..core.base import BaseDagNode
from ..core.lightdag1 import LightDag1NoMergeNode, LightDag1Node
from ..core.lightdag2 import LightDag2Node
from ..crypto.keys import TrustedDealer
from ..dag.ledger import check_prefix_consistency
from ..errors import ConfigError
from ..net.latency import make_latency_model
from ..net.simulator import CpuCost, Simulation
from ..obs import NULL_OBS, HealthMonitor, Observability
from ..workload.metrics import MetricsCollector
from ..workload.txgen import Mempool

#: Protocol-name → node class.
PROTOCOL_REGISTRY: Dict[str, Type[BaseDagNode]] = {
    "lightdag1": LightDag1Node,
    "lightdag1-nomerge": LightDag1NoMergeNode,
    "lightdag2": LightDag2Node,
    "dagrider": DagRiderNode,
    "tusk": TuskNode,
    "bullshark": BullsharkNode,
}

#: The §VI-A strongest attack per protocol (Fig. 15's x-axis).
WORST_ATTACK: Dict[str, str] = {
    "lightdag1": "crash",
    "lightdag1-nomerge": "crash",
    "lightdag2": "equivocate",
    "dagrider": "crash",
    "tusk": "crash",
    "bullshark": "leader-delay",
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
    #: per-stage commit-latency decomposition (attached for traced runs)
    latency_report: Optional[Dict[str, object]] = None

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


def build_adversary(
    cfg: ExperimentConfig,
    node_cls: Optional[Type[BaseDagNode]] = None,
) -> Tuple[Optional[Adversary], Dict[int, Callable]]:
    """Resolve the adversary name into a message-level adversary and a map
    of replica-index → Byzantine node-factory override.

    ``node_cls`` is the protocol class the run uses, needed by adversaries
    that subclass it (withholding, schedules); defaults to the registry
    entry for ``cfg.protocol_name``.
    """
    name = cfg.adversary_name
    system = cfg.system
    if node_cls is None:
        node_cls = PROTOCOL_REGISTRY.get(cfg.protocol_name)
    if name.startswith("schedule:"):
        schedule = FaultSchedule.from_spec(name[len("schedule:"):])
        schedule.validate(system, cfg.protocol_name)
        if node_cls is None:
            raise ConfigError(
                f"unknown protocol {cfg.protocol_name!r} for fault schedule"
            )
        return (
            schedule.adversary(cfg.seed),
            schedule.node_overrides(node_cls, system),
        )
    if name == "worst":
        name = WORST_ATTACK[cfg.protocol_name]
    if name == "none":
        return None, {}
    if name == "crash":
        return CrashAdversary.crash_f(system.n, system.f), {}
    if name == "leader-delay":
        return BullsharkLeaderDelayAdversary(system, delay=1.0, seed=cfg.seed), {}
    if name == "random-sched":
        return RandomSchedulingAdversary(max_delay=0.2, seed=cfg.seed), {}
    if name == "equivocate":
        if cfg.protocol_name != "lightdag2":
            raise ConfigError("the equivocation attack targets lightdag2 only")
        byzantine = list(range(system.n - system.f, system.n))
        starts = stagger_start_waves(byzantine)

        def override_for(replica: int) -> Callable:
            start = starts[replica]

            def build(net, *, _start=start, **kwargs):
                return EquivocatingLightDag2Node(net, start_wave=_start, **kwargs)

            return build

        return None, {b: override_for(b) for b in byzantine}
    if name in ("withhold", "withhold-garbage"):
        if node_cls is None:
            raise ConfigError(
                f"unknown protocol {cfg.protocol_name!r} for withhold attack"
            )
        mode = "garbage" if name == "withhold-garbage" else "ignore"
        wh_cls = withholding_node_class(node_cls, mode=mode)
        byzantine = list(range(system.n - system.f, system.n))

        def wh_build(net, **kwargs):
            return wh_cls(net, **kwargs)

        return None, {b: wh_build for b in byzantine}
    raise ConfigError(f"unknown adversary {name!r}")


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
    When its tracer is enabled, the per-stage commit-latency decomposition
    of :mod:`repro.analysis.latency` is attached as
    ``result.latency_report``.

    ``health=True`` (requires an enabled journal) installs the
    :class:`~repro.obs.health.HealthMonitor` watchdog: ``health.*``
    events land in the journal and the run-end verdict is attached as
    ``result.health``.

    ``check_level`` overrides ``cfg.check_level`` for this run;
    ``registry`` replaces :data:`PROTOCOL_REGISTRY` for protocol lookup
    (the oracle self-tests merge deliberately broken mutants in).
    """
    system = cfg.system
    level = check_level if check_level is not None else cfg.check_level
    if level not in ("off", "prefix", "final", "full"):
        raise ConfigError(f"unknown check level {level!r}")
    protocols = PROTOCOL_REGISTRY if registry is None else registry
    node_cls = protocols.get(cfg.protocol_name)
    if node_cls is None:
        raise ConfigError(
            f"unknown protocol {cfg.protocol_name!r}; "
            f"choose from {sorted(protocols)}"
        )
    dealer = TrustedDealer(
        system, coin_threshold=cfg.protocol.resolve_coin_threshold(system)
    )
    chains = dealer.deal()
    obs = obs if obs is not None else NULL_OBS
    collector = MetricsCollector(warmup=cfg.warmup, measure_until=cfg.duration)
    adversary, byz_overrides = build_adversary(cfg, node_cls)
    monitor = InvariantMonitor(obs=obs) if level == "full" else None
    watchdog = None
    if health and obs.journal.enabled:
        # Listener installation swaps journal.emit — must happen before
        # node construction, which pre-binds that method for hot paths.
        watchdog = HealthMonitor(system.n)
        watchdog.install(obs.journal)

    mempools = [
        Mempool.from_config(
            cfg.protocol, rate=cfg.tx_rate_per_replica,
            max_backlog=cfg.mempool_cap,
        )
        for _ in range(system.n)
    ]
    if obs.trace.enabled:
        for i, mempool in enumerate(mempools):
            mempool.bind_trace(obs.trace, i)
    if cfg.mempool_cap and obs.metrics.enabled:
        for i, mempool in enumerate(mempools):
            mempool.bind_obs(obs, i)

    def factory_for(i: int):
        def make(net):
            kwargs = dict(
                system=system,
                protocol=cfg.protocol,
                keychain=chains[i],
                payload_source=mempools[i].take,
                on_commit=collector.callback_for(i),
                obs=obs,
            )
            if i in byz_overrides:
                return byz_overrides[i](net, **kwargs)
            if monitor is not None:
                kwargs["on_commit"] = monitor.wrap_commit(i, kwargs["on_commit"])
                kwargs["on_deliver"] = monitor.deliver_hook(i)
            return node_cls(net, **kwargs)

        return make

    latency = make_latency_model(cfg.latency_model)
    cpu = None
    if cfg.cpu_fixed_us > 0 or cfg.cpu_per_byte_ns > 0:
        cpu = CpuCost(
            fixed_s=cfg.cpu_fixed_us * 1e-6,
            per_byte_s=cfg.cpu_per_byte_ns * 1e-9,
        )
    # Topology models expose per-replica NIC heterogeneity as a scale
    # factor on the configured egress rate (TopologyLatency's
    # bandwidth_spread); homogeneous models keep the scalar.
    bandwidth = cfg.bandwidth_bps
    bw_scale = getattr(latency, "node_bandwidth_scale", None)
    if bandwidth and bw_scale is not None:
        bandwidth = [bandwidth * bw_scale(i) for i in range(system.n)]
    peak_mem_mb = None
    if cfg.track_memory:
        import tracemalloc

        tracemalloc.start()
    sim = Simulation(
        [factory_for(i) for i in range(system.n)],
        latency_model=latency,
        bandwidth_bps=bandwidth,
        adversary=adversary,
        cpu=cpu,
        seed=cfg.seed,
        obs=obs,
    )
    if monitor is not None:
        monitor.bind(sim.nodes)
    try:
        with collector_paused():
            sim.run(until=cfg.duration)
    finally:
        if cfg.track_memory:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peak_mem_mb = peak / (1024 * 1024)

    honest_ids = [
        i
        for i in range(system.n)
        if i not in byz_overrides and i not in sim.crashed
    ]
    honest = [sim.nodes[i] for i in honest_ids]
    if level != "off":
        check_prefix_consistency([node.ledger for node in honest])
    if level in ("final", "full"):
        deep_audit(honest, labels=honest_ids, obs=obs, now=sim.now)

    window = cfg.duration - cfg.warmup
    extras: Dict[str, float] = {}
    for node in honest:
        if hasattr(node, "reproposals"):
            extras["reproposals"] = extras.get("reproposals", 0) + node.reproposals
    extras["retrieval_requests"] = sum(n.retrieval.requests_sent for n in honest)
    if peak_mem_mb is not None:
        extras["peak_mem_mb"] = peak_mem_mb
    if cfg.mempool_cap:
        extras["mempool_dropped"] = sum(m.dropped_total for m in mempools)

    latency_report = None
    if obs.trace.enabled:
        from ..analysis.latency import explain_report

        latency_report = explain_report(
            obs.journal, protocol=cfg.protocol_name, n=system.n
        )
        if watchdog is not None:
            latency_report["health"] = watchdog.summary(now=sim.now)

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
        latency_report=latency_report,
    )
