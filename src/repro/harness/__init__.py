"""Experiment harness: one entry point per paper table/figure.

* :mod:`repro.harness.cluster` — the one recipe that assembles a cluster
  (keys, node factories, faults, checks) for any runtime.
* :mod:`repro.harness.runner` — build-and-run one configured simulation,
  returning an :class:`~repro.harness.runner.ExperimentResult`.
* :mod:`repro.harness.experiments` — the sweeps behind Figs. 12-15.
* :mod:`repro.harness.parallel` — process-pool sweep execution
  (:func:`~repro.harness.parallel.run_sweep`, the ``--jobs`` flag).
* :mod:`repro.harness.steps` — the Table I communication-step measurements.
* :mod:`repro.harness.report` — plain-text table rendering for benches and
  EXPERIMENTS.md.
"""

from .experiments import (
    batch_size_sweep,
    headline_comparison,
    peak_throughput,
    scalability_sweep,
    tradeoff_curve,
    unfavorable_curve,
)
from .parallel import (
    RunFailure,
    SweepResult,
    default_jobs,
    run_sweep,
)
from .runner import (
    PROTOCOL_REGISTRY,
    ExperimentResult,
    run_experiment,
)
from .steps import measure_commit_steps, table1_rows

__all__ = [
    "ExperimentResult",
    "PROTOCOL_REGISTRY",
    "RunFailure",
    "SweepResult",
    "batch_size_sweep",
    "default_jobs",
    "headline_comparison",
    "run_sweep",
    "measure_commit_steps",
    "peak_throughput",
    "run_experiment",
    "scalability_sweep",
    "table1_rows",
    "tradeoff_curve",
    "unfavorable_curve",
]
