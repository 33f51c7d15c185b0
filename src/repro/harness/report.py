"""Plain-text rendering of experiment results.

The benches print the same rows/series the paper's figures plot; these
helpers keep that output aligned and diff-friendly (EXPERIMENTS.md embeds
them verbatim).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from .runner import ExperimentResult


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Fixed-width table of dict rows (only the requested columns)."""
    if not rows:
        return "(no rows)"
    widths = {
        col: max(len(col), *(len(str(row.get(col, ""))) for row in rows))
        for col in columns
    }
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    rule = "  ".join("-" * widths[col] for col in columns)
    lines = [header, rule]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)


#: The standard result columns of any sweep (of ``ExperimentResult.row()``).
RESULT_COLUMNS = ("protocol", "n", "batch", "adversary", "tps", "latency_s",
                  "p95_s", "rounds")


def results_table(results: Iterable[ExperimentResult]) -> str:
    """Standard result columns for any sweep."""
    return format_table([r.row() for r in results], RESULT_COLUMNS)


def series_by_protocol(
    results: Iterable[ExperimentResult], x_field: str
) -> Dict[str, List[tuple]]:
    """Group results into per-protocol (x, tps, latency) series — the exact
    shape a figure plots.

    ``x_field`` is one of ``"batch"`` (Fig. 12/14/15) or ``"n"`` (Fig. 13).
    """
    series: Dict[str, List[tuple]] = {}
    for result in results:
        if x_field == "batch":
            x = result.config.protocol.batch_size
        elif x_field == "n":
            x = result.config.system.n
        else:
            raise ValueError(f"unknown x_field {x_field!r}")
        key = f"{result.config.protocol_name}@n={result.config.system.n}"
        if x_field == "n":
            key = result.config.protocol_name
        series.setdefault(key, []).append(
            (x, round(result.throughput_tps, 1), round(result.mean_latency, 4))
        )
    for points in series.values():
        points.sort()
    return series


def render_series(series: Dict[str, List[tuple]], x_name: str) -> str:
    """Human-readable per-protocol series dump."""
    lines = []
    for key in sorted(series):
        lines.append(f"{key}:")
        lines.append(f"  {x_name:>8}  {'tps':>10}  {'latency_s':>10}")
        for x, tps, lat in series[key]:
            lines.append(f"  {x:>8}  {tps:>10}  {lat:>10}")
    return "\n".join(lines)
