"""Shared statistics: percentiles, aggregates, repetition runs (§VI-A).

Two layers live here:

* **Primitives** — :func:`percentile` (linear interpolation over sorted
  samples; the single implementation shared by
  :mod:`repro.workload.metrics` and :class:`Aggregate`) and
  :class:`Aggregate` (mean/stdev/CI/quantiles over a sample list).
* **Repetition** — a single simulated run is deterministic per seed, so
  "experimental error" in this reproduction means *seed sensitivity*
  (coin outcomes, jitter draws).  :func:`seed_variants` re-seeds a config
  and :func:`aggregate_results` collapses the per-seed runs into mean,
  sample standard deviation and a normal-approximation 95% confidence
  half-width — the error bars a figure would carry.  The figure sweeps
  and ``repro run --repeats`` share this one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from ..config import ExperimentConfig

if TYPE_CHECKING:  # imported lazily at call time to avoid a cycle with harness
    from ..harness.runner import ExperimentResult


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted data (q in [0, 1])."""
    if not sorted_values:
        return math.nan
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


@dataclass(frozen=True)
class Aggregate:
    """Mean/stdev/CI for one metric across repetitions."""

    mean: float
    stdev: float
    ci95_half_width: float
    samples: tuple

    @classmethod
    def of(cls, values: List[float]) -> "Aggregate":
        n = len(values)
        if n == 0:
            # An empty sample set aggregates to NaN, not a crash — e.g. a
            # run that committed nothing.
            return cls(
                mean=math.nan, stdev=math.nan, ci95_half_width=math.nan, samples=()
            )
        mean = sum(values) / n
        if n > 1:
            variance = sum((v - mean) ** 2 for v in values) / (n - 1)
            stdev = math.sqrt(variance)
            ci = 1.96 * stdev / math.sqrt(n)
        else:
            stdev = 0.0
            ci = 0.0
        return cls(mean=mean, stdev=stdev, ci95_half_width=ci, samples=tuple(values))

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile over the retained samples."""
        return percentile(sorted(self.samples), q)

    @property
    def p50(self) -> float:
        return self.quantile(0.5)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)


def seed_variants(cfg: ExperimentConfig, seeds: Sequence[int]) -> List[ExperimentConfig]:
    """``cfg`` re-seeded once per entry of ``seeds`` (both RNG roots moved)."""
    return [
        cfg.with_updates(seed=s, system=cfg.system.with_updates(seed=s))
        for s in seeds
    ]


def aggregate_results(runs: Sequence["ExperimentResult"]) -> "ExperimentResult":
    """Collapse per-seed runs of one sweep point into a single result.

    Float metrics become means; counters become rounded means (so a mean
    over seeds still reads as "txs per run", not a sum that grows with the
    seed count).  Spread lands in ``extras``: ``tps_stddev`` /
    ``latency_stddev`` (sample stddev), ``tps_ci95`` / ``latency_ci95``
    (95% half-widths) and ``seed_count``, which is what EXPERIMENTS.md
    renders as error bars.  The carried config is the first run's, so
    ``result.config.seed`` names the first seed of the set.
    """
    from ..harness.runner import ExperimentResult

    runs = list(runs)
    if not runs:
        raise ValueError("aggregate_results needs at least one run")
    count = len(runs)
    tps = Aggregate.of([r.throughput_tps for r in runs])
    latency = Aggregate.of([r.mean_latency for r in runs])

    def fmean(values: List[float]) -> float:
        return sum(values) / count

    extras: Dict[str, float] = {}
    # Per-run extras that every seed reported are averaged too.
    shared = set(runs[0].extras)
    for r in runs[1:]:
        shared &= set(r.extras)
    for key in sorted(shared):
        extras[key] = fmean([r.extras[key] for r in runs])
    extras["tps_stddev"] = tps.stdev
    extras["latency_stddev"] = latency.stdev
    extras["tps_ci95"] = tps.ci95_half_width
    extras["latency_ci95"] = latency.ci95_half_width
    extras["seed_count"] = float(count)
    return ExperimentResult(
        config=runs[0].config,
        throughput_tps=tps.mean,
        mean_latency=latency.mean,
        p50_latency=fmean([r.p50_latency for r in runs]),
        p95_latency=fmean([r.p95_latency for r in runs]),
        committed_txs=round(fmean([r.committed_txs for r in runs])),
        rounds_reached=round(fmean([r.rounds_reached for r in runs])),
        events=round(fmean([r.events for r in runs])),
        messages_sent=round(fmean([r.messages_sent for r in runs])),
        bytes_sent=round(fmean([r.bytes_sent for r in runs])),
        extras=extras,
    )


def aggregate_row(result: "ExperimentResult") -> Dict[str, object]:
    """The table row of an :func:`aggregate_results` result: the means
    with their 95% half-widths (``repro run --repeats``)."""
    cfg = result.config
    return {
        "protocol": cfg.protocol_name,
        "n": cfg.system.n,
        "batch": cfg.protocol.batch_size,
        "repeats": int(result.extras["seed_count"]),
        "tps_mean": round(result.throughput_tps, 1),
        "tps_ci95": round(result.extras["tps_ci95"], 1),
        "latency_mean_s": round(result.mean_latency, 4),
        "latency_ci95_s": round(result.extras["latency_ci95"], 4),
    }
