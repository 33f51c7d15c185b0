"""One recipe to build, break and check a cluster.

Every place that runs replicas — ``run_experiment``, the TCP
prototype, the SMR service, the explorer, the Table I step counter,
``repro viz``, the examples and the micro-benches — puts its cluster
together here: deal the keys with the protocol's coin threshold, make one
node factory per replica over the caller's hooks, swap in the Byzantine
node classes the fault schedule names, arm the oracles the check level
asks for, and afterwards check the honest replicas' ledgers.  It is the
only module outside :mod:`repro.crypto` that calls the dealer or
constructs a protocol node, so "which protocol under which attack with
which checks" cannot differ by accident between tools or runtimes.

What it does *not* own is a runtime.  ``Simulation`` and ``TcpCluster``
each take "one factory per replica", and the caller builds
the one it wants from :attr:`Assembly.factories`; there is no ``run()`` here
and no argument that picks one.  The message-level
:attr:`Assembly.adversary` is handed over the same way — only the simulator
has an ``on_send`` hook to give it to; a lossy latency spec's loss is one
of its phases (:func:`fault_schedule`).  The check levels are those of
:attr:`repro.config.ExperimentConfig.check_level`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Collection, Dict, FrozenSet, List, Optional, Sequence, Tuple, Type,
)

from ..adversary.base import Adversary
from ..adversary.schedule import ATTACKS, FaultSchedule
from ..check import InvariantMonitor, deep_audit
from ..config import CHECK_LEVELS, ExperimentConfig, ProtocolConfig, SystemConfig
from ..core.base import BaseDagNode
from ..crypto.keys import TrustedDealer
from ..dag.ledger import check_prefix_consistency
from ..errors import ConfigError
from ..net.latency import loss_phase_spec
from ..obs import NULL_OBS, Observability
from ..workload.metrics import MetricsCollector
from ..workload.txgen import Mempool

#: The §VI-A strongest attack per protocol (Fig. 15's x-axis).
WORST_ATTACK: Dict[str, str] = {
    "lightdag1": "crash",
    "lightdag1-nomerge": "crash",
    "lightdag2": "equivocate",
    "dagrider": "crash",
    "tusk": "crash",
    "bullshark": "leader-delay",
}

#: Replica index → that replica's hook (``collector.callback_for`` is one).
HookFor = Callable[[int], Optional[Callable]]


@dataclass
class Assembly:
    """A cluster ready to be handed to a runtime, and its checks."""

    #: one ``net -> node`` factory per replica, in replica order
    factories: List[Callable]
    #: the schedule's message-level driver (simulator only), or None
    adversary: Optional[Adversary]
    #: replicas running a Byzantine node class
    byzantine: FrozenSet[int]
    check_level: str
    #: the mid-run oracle of ``check_level="full"``, else None
    monitor: Optional[InvariantMonitor]
    obs: Observability

    def bind(self, nodes: Sequence) -> None:
        """Show the mid-run monitor the nodes the runtime built."""
        if self.monitor is not None:
            self.monitor.bind(nodes)

    def check(
        self, nodes: Sequence, crashed: Collection[int] = (), now: float = 0.0
    ) -> List:
        """The post-run half of the check level, over the replicas that are
        neither Byzantine nor ``crashed``; returns those nodes."""
        honest_ids = [
            i for i in range(len(nodes))
            if i not in self.byzantine and i not in crashed
        ]
        honest = [nodes[i] for i in honest_ids]
        if self.check_level != "off":
            check_prefix_consistency([node.ledger for node in honest])
        if self.check_level in ("final", "full"):
            deep_audit(honest, labels=honest_ids, obs=self.obs, now=now)
        return honest


def assemble(
    system: SystemConfig,
    protocol: ProtocolConfig,
    node_cls: Type[BaseDagNode],
    *,
    schedule: FaultSchedule = FaultSchedule(),
    payload_source: Optional[HookFor] = None,
    on_commit: Optional[HookFor] = None,
    check_level: str = "prefix",
    obs: Optional[Observability] = None,
    seed: int = 0,
) -> Assembly:
    """Put one cluster together.

    ``payload_source`` and ``on_commit`` map a replica index to that
    replica's hook (absent: empty payloads, no commit callback).
    ``schedule`` must already be validated against ``system``; ``seed``
    seeds its message-level driver.
    """
    if check_level not in CHECK_LEVELS:
        raise ConfigError(f"unknown check level {check_level!r}")
    obs = obs if obs is not None else NULL_OBS
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    overrides = schedule.node_overrides(node_cls, system)
    monitor = InvariantMonitor(obs=obs) if check_level == "full" else None

    def factory_for(i: int):
        def make(net):
            kwargs = dict(
                system=system,
                protocol=protocol,
                keychain=chains[i],
                payload_source=payload_source(i) if payload_source else None,
                on_commit=on_commit(i) if on_commit else None,
                obs=obs,
            )
            if i in overrides:
                return overrides[i](net, **kwargs)
            if monitor is not None:
                kwargs["on_commit"] = monitor.wrap_commit(i, kwargs["on_commit"])
                kwargs["on_deliver"] = monitor.deliver_hook(i)
            return node_cls(net, **kwargs)

        return make

    return Assembly(
        factories=[factory_for(i) for i in range(system.n)],
        adversary=schedule.adversary(seed),
        byzantine=frozenset(overrides),
        check_level=check_level,
        monitor=monitor,
        obs=obs,
    )


def fault_schedule(cfg: ExperimentConfig) -> FaultSchedule:
    """``cfg.adversary_name`` as a validated schedule: an
    :data:`~repro.adversary.schedule.ATTACKS` entry, ``worst`` (the
    protocol's :data:`WORST_ATTACK`), or ``schedule:SPEC`` outright —
    plus the ``loss`` phase a lossy ``cfg.latency_model`` spells."""
    name = cfg.adversary_name
    if name == "worst":
        name = WORST_ATTACK[cfg.protocol_name]
    if name.startswith("schedule:"):
        spec = name[len("schedule:"):]
    elif name in ATTACKS:
        spec = ATTACKS[name](cfg.system)
    else:
        raise ConfigError(f"unknown adversary {name!r}")
    loss = loss_phase_spec(cfg.latency_model)
    schedule = FaultSchedule.from_spec(";".join(filter(None, (spec, loss))))
    schedule.validate(cfg.system, cfg.protocol_name)
    return schedule


def assemble_experiment(
    cfg: ExperimentConfig,
    node_cls: Type[BaseDagNode],
    check_level: Optional[str] = None,
    obs: Optional[Observability] = None,
) -> Tuple[Assembly, MetricsCollector]:
    """What an :class:`~repro.config.ExperimentConfig` says about a cluster,
    whichever runtime it goes to: the named attack as a schedule, one
    saturating mempool per replica feeding the payloads, one collector on
    the commits.  ``check_level`` overrides ``cfg.check_level``.
    """
    collector = MetricsCollector(warmup=cfg.warmup, measure_until=cfg.duration)
    mempools = [Mempool.from_config(cfg.protocol) for _ in range(cfg.system.n)]
    assembly = assemble(
        cfg.system,
        cfg.protocol,
        node_cls,
        schedule=fault_schedule(cfg),
        payload_source=lambda i: mempools[i].take,
        on_commit=collector.callback_for,
        check_level=check_level if check_level is not None else cfg.check_level,
        obs=obs,
        seed=cfg.seed,
    )
    return assembly, collector
