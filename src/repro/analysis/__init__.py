"""Result analysis: repetition statistics, export, DAG visualization.

* :mod:`repro.analysis.stats` — multi-seed repetition (§VI-A: "each group
  of experiments is repeated five times to reduce experimental errors")
  with mean/stdev/CI aggregation.
* :mod:`repro.analysis.dagviz` — render a replica's DAG as ASCII art or
  Graphviz DOT (committed blocks, leaders, equivocations highlighted).
* :mod:`repro.analysis.obs_export` — the run directory of an
  instrumented run: ``run.json``, the JSONL journal and a Chrome
  ``trace_event`` JSON (opens in Perfetto / ``about:tracing``).
"""

from .dagviz import dag_to_ascii, dag_to_dot
from .loadreport import (
    format_load_summary,
    format_sweep_table,
    loadtest_results_to_json,
    render_saturation_figure,
)
from .obs_export import (
    journal_to_chrome_trace,
    journal_to_jsonl,
    load_journal_jsonl,
    registry_summary_rows,
    write_run_dir,
)
from .stats import Aggregate, RepeatedResult, percentile, repeat_experiment

__all__ = [
    "Aggregate",
    "RepeatedResult",
    "dag_to_ascii",
    "dag_to_dot",
    "format_load_summary",
    "format_sweep_table",
    "journal_to_chrome_trace",
    "journal_to_jsonl",
    "load_journal_jsonl",
    "loadtest_results_to_json",
    "percentile",
    "render_saturation_figure",
    "registry_summary_rows",
    "repeat_experiment",
    "write_run_dir",
]
