"""The sweeps behind every evaluation figure (Figs. 12-15).

Each function returns a list of :class:`~repro.harness.runner.ExperimentResult`
— one per (protocol, x-axis point) — which the benches and EXPERIMENTS.md
render as the paper's series.  Defaults follow §VI; the ``duration`` and
axis arguments let CI runs scale down (a full Fig. 13 at n=61 simulates
millions of events).

Paper settings reference:
  * Fig. 12 — batch size 100→1000, n ∈ {7, 22}, favorable.
  * Fig. 13 — n = 7→61, batch 400, favorable.
  * Fig. 14 — latency-vs-throughput to saturation, n ∈ {7, 22}, favorable.
  * Fig. 15 — same under each protocol's §VI-A strongest attack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis.stats import aggregate_results, seed_variants
from ..config import ExperimentConfig, ProtocolConfig, SystemConfig
from .parallel import run_sweep
from .runner import ExperimentResult, run_experiment

__all__ = [
    "DEFAULT_PROTOCOLS",
    "FIG12_BATCH_SIZES",
    "FIG13_REPLICAS",
    "FIG14_BATCH_RAMP",
    "batch_size_sweep",
    "scalability_sweep",
    "tradeoff_curve",
    "unfavorable_curve",
    "peak_throughput",
    "headline_comparison",
    "run_experiment",
]

#: The protocols every comparison figure plots.
DEFAULT_PROTOCOLS = ("tusk", "bullshark", "lightdag1", "lightdag2")

#: Paper axes.
FIG12_BATCH_SIZES = (100, 200, 400, 600, 800, 1000)
FIG13_REPLICAS = (7, 13, 22, 31, 43, 52, 61)
FIG14_BATCH_RAMP = (50, 100, 200, 400, 800, 1200, 1600, 2000)


def _base_config(
    protocol_name: str,
    n: int,
    batch_size: int,
    adversary: str = "none",
    duration: float = 20.0,
    warmup: float = 4.0,
    seed: int = 0,
    crypto: str = "hmac",
    check_level: str = "prefix",
) -> ExperimentConfig:
    warmup = min(warmup, duration * 0.25)
    return ExperimentConfig(
        system=SystemConfig(n=n, crypto=crypto, seed=seed),
        protocol=ProtocolConfig(batch_size=batch_size),
        protocol_name=protocol_name,
        adversary_name=adversary,
        duration=duration,
        warmup=warmup,
        seed=seed,
        check_level=check_level,
    )


def _sweep(
    configs: Sequence[ExperimentConfig],
    jobs: Optional[int],
    seeds: Optional[Sequence[int]],
) -> List[ExperimentResult]:
    """Run sweep-point configs (optionally × seeds) and return one result
    per point.

    With ``seeds``, each point expands into one run per seed — all of them
    fed to the pool together, so parallelism spans the full (point, seed)
    grid — and collapses back through
    :func:`~repro.analysis.stats.aggregate_results` (mean metrics,
    ``tps_stddev`` / ``latency_stddev`` / ``seed_count`` in ``extras``).
    Any failed run raises :class:`~repro.errors.SweepError` with replay
    commands for exactly the runs that failed.
    """
    if not seeds:
        return run_sweep(configs, jobs=jobs)
    expanded = [variant for cfg in configs for variant in seed_variants(cfg, seeds)]
    runs = run_sweep(expanded, jobs=jobs)
    width = len(seeds)
    return [
        aggregate_results(runs[i : i + width]) for i in range(0, len(runs), width)
    ]


def batch_size_sweep(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    replica_counts: Sequence[int] = (7, 22),
    batch_sizes: Sequence[int] = FIG12_BATCH_SIZES,
    duration: float = 20.0,
    seed: int = 0,
    jobs: Optional[int] = 1,
    seeds: Optional[Sequence[int]] = None,
) -> List[ExperimentResult]:
    """Fig. 12: throughput (a) and latency (b) as batch size grows.

    ``jobs`` fans the grid out over the parallel harness (``jobs=1``
    stays in-process; results are identical).  ``seeds`` runs every point
    under each seed and reports mean ± stddev instead of a single draw.
    """
    configs = [
        _base_config(protocol, n, batch, duration=duration, seed=seed)
        for n in replica_counts
        for protocol in protocols
        for batch in batch_sizes
    ]
    return _sweep(configs, jobs, seeds)


def scalability_sweep(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    replica_counts: Sequence[int] = FIG13_REPLICAS,
    batch_size: int = 400,
    duration: float = 20.0,
    seed: int = 0,
    crypto: str = "hmac",
    jobs: Optional[int] = 1,
    seeds: Optional[Sequence[int]] = None,
) -> List[ExperimentResult]:
    """Fig. 13: throughput (a) and latency (b) as the replica set grows.

    The horizon scales with ``n``: at n=61 an RBC wave takes seconds (the
    Θ(n²) per-node CPU load), and the measurement window must hold several
    multiples of the commit latency to be meaningful.

    ``crypto`` selects the signing backend; ``"schnorr"`` makes the sweep
    exercise the real signature/coin hot path (the configuration the
    crypto micro-optimizations are benchmarked against), at the price of
    wall-clock.  ``jobs`` fans the grid out over the parallel harness;
    ``seeds`` runs every point under each seed and reports mean ± stddev.
    """
    configs = [
        _base_config(
            protocol, n, batch_size,
            duration=duration * max(1.0, n / 22), seed=seed, crypto=crypto,
        )
        for protocol in protocols
        for n in replica_counts
    ]
    return _sweep(configs, jobs, seeds)


def tradeoff_curve(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    replica_counts: Sequence[int] = (7, 22),
    batch_ramp: Sequence[int] = FIG14_BATCH_RAMP,
    adversary: str = "none",
    duration: float = 20.0,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> List[ExperimentResult]:
    """Fig. 14 (favorable) / Fig. 15 (``adversary="worst"``): the
    latency-vs-throughput frontier, ramping batch size to saturation.

    Horizons scale with the batch size so the window always holds several
    commit latencies even deep into saturation.
    """
    configs = [
        _base_config(
            protocol,
            n,
            batch,
            adversary=adversary,
            duration=duration * min(3.0, max(1.0, batch / 800)),
            seed=seed,
        )
        for n in replica_counts
        for protocol in protocols
        for batch in batch_ramp
    ]
    return _sweep(configs, jobs, None)


def unfavorable_curve(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    replica_counts: Sequence[int] = (7, 22),
    batch_ramp: Sequence[int] = FIG14_BATCH_RAMP,
    duration: float = 20.0,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> List[ExperimentResult]:
    """Fig. 15: the trade-off under each protocol's strongest attack."""
    return tradeoff_curve(
        protocols=protocols,
        replica_counts=replica_counts,
        batch_ramp=batch_ramp,
        adversary="worst",
        duration=duration,
        seed=seed,
        jobs=jobs,
    )


def peak_throughput(results: List[ExperimentResult]) -> Dict[str, ExperimentResult]:
    """The saturation point per (protocol, n) — the Fig. 14 headline values
    (e.g. "Tusk and BullShark achieve a peak throughput of 13.0k and 20.5k
    TPS, while LightDAG1 and LightDAG2 achieve 21.2k and 24.1k")."""
    best: Dict[str, ExperimentResult] = {}
    for result in results:
        key = f"{result.config.protocol_name}@n={result.config.system.n}"
        if key not in best or result.throughput_tps > best[key].throughput_tps:
            best[key] = result
    return best


def headline_comparison(
    n: int = 22,
    batch_size: int = 1000,
    duration: float = 20.0,
    seed: int = 0,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    jobs: Optional[int] = 1,
) -> Dict[str, Dict[str, float]]:
    """The §VI-B headline claim: at n=22, batch 1000, LightDAG1/LightDAG2
    deliver 1.69×/1.91× Tusk's throughput and cut its latency 41%/45%."""
    configs = [
        _base_config(protocol, n, batch_size, duration=duration, seed=seed)
        for protocol in protocols
    ]
    measured: Dict[str, ExperimentResult] = dict(
        zip(protocols, run_sweep(configs, jobs=jobs))
    )
    tusk = measured["tusk"]
    out: Dict[str, Dict[str, float]] = {}
    for protocol, result in measured.items():
        out[protocol] = {
            "tps": result.throughput_tps,
            "latency_s": result.mean_latency,
            "tps_vs_tusk": result.throughput_tps / tusk.throughput_tps,
            "latency_reduction_vs_tusk": 1 - result.mean_latency / tusk.mean_latency,
        }
    return out
