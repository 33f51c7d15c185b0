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
