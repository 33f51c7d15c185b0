"""Async (prototype-mode) experiment assembly.

Mirrors :func:`repro.harness.runner.run_experiment` but over the asyncio
runtime: real wall-clock time, real concurrency, same protocol code.  The
numbers it produces are *prototype* numbers (they include Python handler
cost), which is why the benchmarks use the simulator instead; the examples
and integration tests use this to demonstrate the library end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import ExperimentConfig
from ..dag.ledger import Ledger
from ..errors import ConfigError
from ..harness.cluster import Assembly, assemble_experiment
from ..harness.runner import node_class
from ..net.asyncnet import AsyncCluster
from ..net.latency import make_latency_model
from ..workload.metrics import MetricsCollector


@dataclass
class AsyncExperiment:
    """A built-but-not-yet-run async cluster plus its measurement hooks."""

    cluster: AsyncCluster
    collector: MetricsCollector
    config: ExperimentConfig
    assembly: Assembly

    async def run(self) -> None:
        await self.cluster.run(self.config.duration)

    def ledgers(self) -> List[Ledger]:
        return [node.ledger for node in self.cluster.nodes]

    def verify_safety(self) -> None:
        """The post-run checks ``config.check_level`` asks for."""
        self.assembly.check(self.cluster.nodes)

    def summary(self) -> Dict[str, float]:
        window = self.config.duration - self.config.warmup
        return {
            "throughput_tps": self.collector.throughput(window),
            "mean_latency_s": self.collector.mean_latency(),
            "committed_txs": float(self.collector.total_committed_txs()),
            "messages": float(self.cluster.messages_delivered),
        }


def build_async_experiment(cfg: ExperimentConfig) -> AsyncExperiment:
    """Assemble an asyncio cluster for a config: the same replicas, hooks
    and checks the simulator harness would build, minus anything that needs
    the simulator's per-send hook — the simulator owns those runs, where
    reproducibility matters."""
    assembly, collector, _ = assemble_experiment(cfg, node_class(cfg.protocol_name))
    if assembly.adversary is not None:
        raise ConfigError(
            "the asyncio runtime runs favorable situations and Byzantine "
            "node classes only; message-level faults (crash, delay, "
            "partition) need the simulator harness"
        )
    latency: Optional[object] = None
    if cfg.latency_model != "none":
        latency = make_latency_model(cfg.latency_model)
    cluster = AsyncCluster(assembly.factories, latency_model=latency, seed=cfg.seed)
    assembly.bind(cluster.nodes)
    return AsyncExperiment(
        cluster=cluster, collector=collector, config=cfg, assembly=assembly
    )


def run_async_experiment(cfg: ExperimentConfig) -> Dict[str, float]:
    """Blocking convenience wrapper: build, run, verify safety, summarize."""
    import asyncio

    experiment = build_async_experiment(cfg)
    asyncio.run(experiment.run())
    experiment.verify_safety()
    return experiment.summary()
