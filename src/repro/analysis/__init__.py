"""Result analysis: repetition statistics, export, DAG visualization.

* :mod:`repro.analysis.stats` — multi-seed repetition (§VI-A: "each group
  of experiments is repeated five times to reduce experimental errors")
  with mean/stdev/CI aggregation.
* :mod:`repro.analysis.loadreport` — the loadtest summary, sweep table and
  ASCII saturation figure.
* :mod:`repro.analysis.dagviz` — render a replica's DAG as ASCII art or
  Graphviz DOT (committed blocks, leaders, equivocations highlighted).
* :mod:`repro.analysis.obs_export` — the run directory of ``repro run``
  and ``repro loadtest``: ``run.json`` and, for an instrumented run, the
  JSONL journal and a Chrome ``trace_event`` JSON (opens in Perfetto /
  ``about:tracing``).
"""
