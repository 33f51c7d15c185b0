"""End-to-end load testing: client populations against a replicated KV.

:func:`run_loadtest` is the missing measurement loop the consensus-only
harness (:mod:`repro.harness.runner`) never had: real clients submit real
commands to the :mod:`repro.smr` application, wait for committed results,
and the run reports **consensus-side and client-side TPS/latency side by
side** — the two-row summary shape the lightDAG benchmark harness prints
(Consensus TPS / Consensus latency / End-to-end TPS / End-to-end
latency).  The gap between the two rows *is* the queueing story: end-to-end
latency includes time spent in the replica's admission queue before a
block drained the command, so it is ≥ consensus latency by construction,
and the difference explodes exactly at the saturation knee.

Results are plain picklable dataclasses so saturation sweeps fan out over
the process pool unchanged (:func:`run_loadtest_sweep`, behind
``repro loadtest --sweep``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..config import ProtocolConfig, SystemConfig
from ..errors import ConfigError, SweepError
from ..net.latency import make_latency_model
from ..obs import Observability
from ..smr.kv import KvStateMachine
from ..smr.replica import SmrCluster
from ..workload.admission import AdmissionConfig
from ..workload.clients import ClientPopulation, WorkloadSpec
from ..workload.metrics import MetricsCollector
from .runner import collector_paused

__all__ = [
    "LoadtestConfig",
    "LoadtestResult",
    "run_loadtest",
    "run_loadtest_sweep",
]


@dataclass(frozen=True)
class LoadtestConfig:
    """One end-to-end load test: cluster + workload + admission policy."""

    n: int = 4
    protocol_name: str = "lightdag2"
    batch_size: int = 64
    crypto: str = "hmac"
    latency_model: str = "uniform"
    duration: float = 10.0
    warmup: float = 2.0
    seed: int = 0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    admission: AdmissionConfig = field(
        default_factory=lambda: AdmissionConfig(max_pending=4096, policy="reject")
    )

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ConfigError("warmup must be in [0, duration)")
        make_latency_model(self.latency_model)

    def with_updates(self, **kwargs: Any) -> "LoadtestConfig":
        return replace(self, **kwargs)

    def with_rate(self, rate: float) -> "LoadtestConfig":
        """Copy with the workload's offered rate replaced (sweep helper)."""
        return replace(self, workload=replace(self.workload, rate=rate))


@dataclass
class LoadtestResult:
    """Consensus-side and client-side measurements of one load test."""

    config: LoadtestConfig
    offered_rate: float
    # consensus side (block proposal -> commit), from MetricsCollector
    consensus_tps: float
    consensus_mean_s: float
    consensus_p50_s: float
    consensus_p95_s: float
    # client side (submit -> committed result), from ClientStats
    e2e_tps: float
    e2e_mean_s: float
    e2e_p50_s: float
    e2e_p99_s: float
    e2e_p999_s: float
    # traffic accounting
    submitted: int
    completed: int
    rejected: int
    shed: int
    retries: int
    verified: int
    verify_failures: int
    max_pending_depth: int
    admission: Dict[str, int] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flat dict for tables / JSON export."""
        def r(x: float, digits: int = 4) -> float:
            return round(x, digits) if math.isfinite(x) else x

        return {
            "protocol": self.config.protocol_name,
            "n": self.config.n,
            "mode": self.config.workload.mode,
            "clients": self.config.workload.clients,
            "offered_tps": r(self.offered_rate, 1),
            "consensus_tps": r(self.consensus_tps, 1),
            "consensus_s": r(self.consensus_mean_s),
            "e2e_tps": r(self.e2e_tps, 1),
            "e2e_p50_s": r(self.e2e_p50_s),
            "e2e_p99_s": r(self.e2e_p99_s),
            "e2e_p999_s": r(self.e2e_p999_s),
            "rejected": self.rejected,
            "shed": self.shed,
            "max_depth": self.max_pending_depth,
            "verify_failures": self.verify_failures,
        }


def run_loadtest(cfg: LoadtestConfig, obs: Optional[Observability] = None) -> LoadtestResult:
    """Run one client population against a fresh cluster and measure both
    sides of the pipeline.

    Raises :class:`~repro.errors.ProtocolError` if the replicas diverged
    (the run always ends with the convergence audit) and asserts that no
    closed-loop read-your-writes verification failed.
    """
    system = SystemConfig(n=cfg.n, crypto=cfg.crypto, seed=cfg.seed)
    protocol = ProtocolConfig(batch_size=cfg.batch_size)
    collector = MetricsCollector(warmup=cfg.warmup, measure_until=cfg.duration)
    cluster = SmrCluster.build(
        system,
        machine_factory=KvStateMachine,
        protocol=protocol,
        protocol_name=cfg.protocol_name,
        latency_model=make_latency_model(cfg.latency_model),
        seed=cfg.seed,
        obs=obs,
        admission=cfg.admission,
        collector=collector,
    )
    population = ClientPopulation(
        cfg.workload, cluster, duration=cfg.duration, warmup=cfg.warmup
    )
    population.install()
    with collector_paused():
        cluster.run(until=cfg.duration)
    cluster.verify_convergence()

    stats = population.stats
    window = cfg.duration - cfg.warmup
    admission_totals: Dict[str, int] = {}
    max_depth = 0
    for replica in cluster.replicas:
        ctl = replica.admission
        if ctl is None:
            max_depth = max(max_depth, replica.pending_count())
            continue
        for key, value in ctl.summary().items():
            admission_totals[key] = admission_totals.get(key, 0) + value
        max_depth = max(max_depth, ctl.max_depth)

    offered = cfg.workload.rate if cfg.workload.mode == "open" else stats.e2e_tps()
    return LoadtestResult(
        config=cfg,
        offered_rate=offered,
        consensus_tps=collector.throughput(window),
        consensus_mean_s=collector.mean_latency(),
        consensus_p50_s=collector.latency_quantile(0.5),
        consensus_p95_s=collector.latency_quantile(0.95),
        e2e_tps=stats.e2e_tps(),
        e2e_mean_s=stats.mean_latency(),
        e2e_p50_s=stats.quantile(0.5),
        e2e_p99_s=stats.quantile(0.99),
        e2e_p999_s=stats.quantile(0.999),
        submitted=stats.submitted,
        completed=stats.completed,
        rejected=stats.rejected,
        shed=stats.shed,
        retries=stats.retries,
        verified=stats.verified,
        verify_failures=stats.verify_failures,
        max_pending_depth=max_depth,
        admission=admission_totals,
    )


# ------------------------------------------------------------- sweep worker


def _loadtest_worker(cfg: LoadtestConfig, registry) -> Tuple[bool, Any]:
    """Pool worker: (ok, LoadtestResult | error description)."""
    try:
        return True, run_loadtest(cfg)
    except Exception as exc:  # noqa: BLE001 — captured for the parent
        import traceback

        return False, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


def run_loadtest_sweep(
    configs: List[LoadtestConfig], jobs: Optional[int] = None
) -> List[LoadtestResult]:
    """Ordered loadtests over the process pool.

    Every point runs; if any failed, :class:`~repro.errors.SweepError`
    lists them and carries ``results`` (the successes in place, ``None``
    at failed indices)."""
    from .parallel import parallel_map

    outcomes, _ = parallel_map(_loadtest_worker, configs, jobs=jobs)
    failures = [
        f"rate={cfg.workload.rate}: {payload}"
        for cfg, (ok, payload) in zip(configs, outcomes)
        if not ok
    ]
    results = [payload if ok else None for ok, payload in outcomes]
    if failures:
        raise SweepError(
            f"{len(failures)} loadtest point(s) failed:\n" + "\n".join(failures),
            results=results,
        )
    return results
