"""Repo-wide instrumentation: metrics registry + structured event journal.

The paper's comparative claims are about *where* time and messages go —
1-step PBC vs 2-step CBC vs 3-step RBC (Table I), dissemination vs
ordering latency, NIC/CPU saturation (Fig. 12–15).  This package gives
every layer a shared, zero-dependency way to record that:

* :class:`~repro.obs.registry.MetricsRegistry` — labeled counters,
  gauges, and histograms ("how many echoes, how long did messages wait
  in the egress NIC queue");
* :class:`~repro.obs.journal.EventJournal` — append-only structured
  records with simulated time, replica, event type, and payload ("what
  happened, in order");
* :class:`Observability` — the pair of them, passed down through
  ``Simulation`` → nodes → broadcast/retrieval managers.

Everything is **off by default**: components that receive no
``Observability`` use :data:`NULL_OBS`, whose instruments are shared
no-ops, so the tier-1 suite and the benchmark figures pay (apart from a
single ``enabled`` branch on hot paths) nothing.  ``benchmarks/
bench_micro_obs.py`` guards the overhead in both modes.

Exporters live in :mod:`repro.analysis.obs_export`.  On the CLI, ``repro
run --out DIR`` records one instrumented run as a directory (``run.json``,
``journal.jsonl``, ``trace.json``) and ``repro explain DIR`` reads it.
"""

from __future__ import annotations

from typing import Dict, Optional

from .health import HealthMonitor
from .journal import BoundedJournal, Event, EventJournal, NullJournal
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


class Observability:
    """A metrics registry and an event journal travelling together.  A
    journal that is on records every event type, ``trace.*`` lifecycle
    milestones included."""

    __slots__ = ("metrics", "journal", "enabled")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        journal: Optional[EventJournal] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.journal = journal if journal is not None else EventJournal()
        self.enabled = self.metrics.enabled or self.journal.enabled

    # Observability is a bundle of shared sinks; snapshot/restore cycles
    # alias it (and its members — each is its own shared sink) rather than
    # forking telemetry per explored branch.
    def __copy__(self) -> "Observability":
        return self

    def __deepcopy__(self, memo) -> "Observability":
        return self

    def summary(self) -> Dict[str, float]:
        """Compact totals for result rows (see ``ExperimentResult.row``)."""
        m = self.metrics
        return {
            "journal_events": float(len(self.journal)),
            "msgs_sent": m.counter_total("net.messages_sent"),
            "vals_sent": m.counter_total("broadcast.vals_sent"),
            "echoes_sent": m.counter_total("broadcast.echoes_sent"),
            "readies_sent": m.counter_total("broadcast.readies_sent"),
            "wave_commits": m.counter_total("core.wave_commits"),
        }


#: Shared inert instance — the default everywhere instrumentation is optional.
NULL_OBS = Observability(NullRegistry(), NullJournal())

__all__ = [
    "BoundedJournal",
    "DEFAULT_BUCKETS",
    "Counter",
    "Event",
    "EventJournal",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NullJournal",
    "NullRegistry",
    "Observability",
]
