"""Commit-side measurement: throughput and latency (§VI-A).

The paper's two metrics:

* **Latency** — time from a transaction's proposal (client submit) to its
  commitment.  The :class:`~repro.dag.block.TxBatch` payload carries the
  exact submit-time sum, so mean latency per batch is exact; percentiles
  come from the per-batch samples.
* **Throughput** — committed transactions per second (TPS).

One :class:`MetricsCollector` serves a whole simulation: each replica gets
a commit callback; measurements are kept per replica and aggregated.  Two
details keep the numbers honest:

* a **warmup window** is excluded (ramp-up rounds would bias latency down
  and TPS up);
* payloads are **deduplicated by slot** ``(round, author)`` — LightDAG2
  reproposals (Rule 2) can legitimately commit two blocks of one slot that
  carry the same transactions; counting them twice would credit the
  protocol for work it did once.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from ..analysis.stats import percentile  # noqa: F401 — canonical home; re-exported
from ..dag.ledger import CommitRecord


@dataclass
class LatencyStats:
    """Aggregate latency over some set of committed transactions; the
    sampled latencies are unboxed doubles, so quantiles stay exact."""

    tx_count: int = 0
    latency_sum: float = 0.0
    samples: array = field(default_factory=lambda: array("d"))

    def add(self, count: int, latency_sum: float, latencies: Iterable[float]) -> None:
        self.tx_count += count
        self.latency_sum += latency_sum
        self.samples.extend(latencies)

    @property
    def mean(self) -> float:
        return self.latency_sum / self.tx_count if self.tx_count else math.nan

    def quantile(self, q: float) -> float:
        return percentile(sorted(self.samples), q)


@dataclass
class NodeMetrics:
    """Per-replica accumulation."""

    latency: LatencyStats = field(default_factory=LatencyStats)
    committed_txs: int = 0
    committed_blocks: int = 0
    first_commit_time: Optional[float] = None
    last_commit_time: Optional[float] = None
    seen_slots: Set[Tuple[int, int]] = field(default_factory=set)


class MetricsCollector:
    """Collects commit records from every replica of one run."""

    def __init__(self, warmup: float = 0.0, measure_until: Optional[float] = None) -> None:
        self.warmup = warmup
        self.measure_until = measure_until
        self.nodes: Dict[int, NodeMetrics] = {}

    def callback_for(self, node_id: int):
        """A per-replica ``on_commit`` hook bound to this collector."""
        metrics = self.nodes.setdefault(node_id, NodeMetrics())

        def on_commit(record: CommitRecord) -> None:
            self._observe(metrics, record)

        return on_commit

    def _observe(self, metrics: NodeMetrics, record: CommitRecord) -> None:
        now = record.commit_time
        if now < self.warmup:
            # Warmup commits still mark slots as seen so a reproposal
            # straddling the boundary is not double counted.
            metrics.seen_slots.add(record.block.slot)
            return
        if self.measure_until is not None and now > self.measure_until:
            return
        metrics.committed_blocks += 1
        payload = record.block.payload
        if payload.count == 0:
            return
        slot = record.block.slot
        if slot in metrics.seen_slots:
            return  # reproposal duplicate (see module docstring)
        metrics.seen_slots.add(slot)
        metrics.committed_txs += payload.count
        latency_sum = payload.count * now - payload.submit_time_sum
        metrics.latency.add(
            payload.count,
            latency_sum,
            (now - t for t in payload.sample),
        )
        if metrics.first_commit_time is None:
            metrics.first_commit_time = now
        metrics.last_commit_time = now

    # -- aggregation --------------------------------------------------------------

    def throughput(self, duration: float) -> float:
        """Mean committed TPS across replicas over the measurement window."""
        if not self.nodes or duration <= 0:
            return 0.0
        per_node = [m.committed_txs / duration for m in self.nodes.values()]
        return sum(per_node) / len(per_node)

    def mean_latency(self) -> float:
        """Tx-weighted mean commit latency across replicas (seconds)."""
        total_txs = sum(m.latency.tx_count for m in self.nodes.values())
        if total_txs == 0:
            return math.nan
        total = sum(m.latency.latency_sum for m in self.nodes.values())
        return total / total_txs

    def latency_quantile(self, q: float) -> float:
        samples = (s for m in self.nodes.values() for s in m.latency.samples)
        return percentile(sorted(samples), q)

    def total_committed_txs(self) -> int:
        return sum(m.committed_txs for m in self.nodes.values())

    def min_node_committed_txs(self) -> int:
        """The laggiest replica's committed count (progress floor)."""
        if not self.nodes:
            return 0
        return min(m.committed_txs for m in self.nodes.values())
