"""Rendering for end-to-end load tests: summary, sweep table, ASCII figure.

The single-run summary follows the lightDAG benchmark harness's output
shape — a ``SUMMARY`` block with a CONFIG section and a RESULTS section
that prints **Consensus TPS / Consensus latency** and **End-to-end TPS /
End-to-end latency** side by side.  The two pairs answer different
questions: consensus latency is proposal→commit (what the protocol
figures plot); end-to-end latency is client submit→committed result,
which additionally pays the admission-queue wait.  Their divergence *is*
the saturation signal.

The sweep table and the saturation figure (ASCII: the package has no
plotting dependency) read ``LoadtestResult.row()`` dicts: ``repro
loadtest`` renders the live rows, ``repro explain DIR`` the ones
``--out DIR`` recorded in ``run.json``, so both print the same text.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ..workload.clients import GIVE_UP_S

__all__ = [
    "format_load_summary",
    "format_sweep_table",
    "render_saturation_figure",
]


def _fmt_tps(x: float) -> str:
    return f"{x:,.0f} tx/s" if math.isfinite(x) else "n/a"


def _fmt_ms(x: float) -> str:
    return f"{x * 1000:,.0f} ms" if math.isfinite(x) else "n/a"


def format_load_summary(result) -> str:
    """One run, rendered as the benchmark-harness SUMMARY block."""
    cfg = result.config
    wl = cfg.workload
    adm = cfg.admission
    if wl.mode == "open":
        load_line = f" Input rate: {wl.rate:,.0f} tx/s ({wl.arrival})"
    else:
        load_line = (
            f" Closed loop: {wl.outstanding} outstanding/client, "
            f"think {wl.think_s * 1000:.0f} ms"
        )
    policy = (
        f"{adm.policy}, max_pending={adm.max_pending}"
        + (f", per_client_cap={adm.per_client_cap}" if adm.per_client_cap else "")
        if (adm.max_pending or adm.per_client_cap)
        else "unbounded"
    )
    lines = [
        "-----------------------------------------",
        " SUMMARY:",
        "-----------------------------------------",
        " + CONFIG:",
        f" Protocol: {cfg.protocol_name}",
        f" Committee size: {cfg.n} nodes",
        f" Clients: {wl.clients} ({wl.mode} loop)",
        load_line,
        f" Op mix SET/GET/DEL/CAS: {'/'.join(f'{w:g}' for w in wl.mix)}",
        f" Keyspace: {wl.keys} keys, zipf {wl.zipf:g}"
        + (" (shared)" if wl.shared_keys else " (per-client)"),
        f" Admission: {policy}",
        f" Batch size: {cfg.batch_size} tx/block",
        f" Execution time: {cfg.duration:g} s (warmup {cfg.warmup:g} s)",
        "",
        " + RESULTS:",
        f" Consensus TPS: {_fmt_tps(result.consensus_tps)}",
        f" Consensus latency: {_fmt_ms(result.consensus_mean_s)}"
        f" (p50 {_fmt_ms(result.consensus_p50_s)},"
        f" p95 {_fmt_ms(result.consensus_p95_s)})",
        "",
        f" End-to-end TPS: {_fmt_tps(result.e2e_tps)}",
        f" End-to-end latency: {_fmt_ms(result.e2e_mean_s)}"
        f" (p50 {_fmt_ms(result.e2e_p50_s)},"
        f" p99 {_fmt_ms(result.e2e_p99_s)},"
        f" p999 {_fmt_ms(result.e2e_p999_s)})",
        "",
        f" Submitted: {result.submitted:,}   Completed: {result.completed:,}"
        f"   Rejected: {result.rejected:,}   Shed: {result.shed:,}"
        f"   Retries: {result.retries:,}",
        f" Unanswered (admitted, no answer after {GIVE_UP_S:g} s):"
        f" {result.unanswered:,}   In flight at end: {result.in_flight:,}",
        f" Peak admission queue depth: {result.max_pending_depth:,}",
    ]
    if result.verified:
        lines.append(
            f" Verified responses: {result.verified:,}"
            f" ({result.verify_failures} mismatches)"
        )
    lines.append("-----------------------------------------")
    return "\n".join(lines)


def format_sweep_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Fixed-width offered-rate table (one ``LoadtestResult.row()`` per
    line, rates to 0.1 tx/s and latencies to 0.1 ms), then the saturation
    figure when there are two or more rate points: what ``repro loadtest
    --sweep`` prints and ``repro explain`` prints again."""
    from ..harness.report import format_table

    columns = ["offered_tps", "e2e_tps", "consensus_tps", "consensus_s",
               "e2e_p50_s", "e2e_p99_s", "e2e_p999_s", "rejected", "shed",
               "max_depth"]
    shown = [
        {col: round(row[col], 1 if col.endswith("_tps") else 4)
         if isinstance(row[col], float) and math.isfinite(row[col])
         else row[col] for col in columns}
        for row in rows
    ]
    sections = [format_table(shown, columns)]
    if len(rows) > 1:
        sections.append(render_saturation_figure(rows))
    return "\n\n".join(sections)


def render_saturation_figure(
    rows: Sequence[Mapping[str, object]], width: int = 60, height: int = 16
) -> str:
    """ASCII chart: offered rate (x) vs latency (y, log scale).

    Plots three series — consensus mean (``c``), end-to-end p50 (``*``),
    end-to-end p99 (``#``) — so the knee is visible as the point where the
    client-side curves peel away from the flat consensus line.  Rates
    where admission control dropped work are flagged ``!`` on the x-axis:
    past the knee the queue bound converts overload into visible sheds
    instead of unbounded latency/memory.
    """
    points = []
    for row in rows:
        series = {
            "c": row["consensus_s"],
            "*": row["e2e_p50_s"],
            "#": row["e2e_p99_s"],
        }
        dropped = (row["rejected"] + row["shed"]) > 0
        points.append((row["offered_tps"], series, dropped))
    points.sort(key=lambda p: p[0])
    values = [
        v for _, series, _ in points for v in series.values()
        if math.isfinite(v) and v > 0
    ]
    if not points or not values:
        return "(no finite latency samples to plot)"
    lo, hi = min(values), max(values)
    if hi <= lo:
        hi = lo * 10
    log_lo, log_hi = math.log10(lo), math.log10(hi)
    span = log_hi - log_lo

    def row_of(v: float) -> int:
        frac = (math.log10(v) - log_lo) / span
        return min(height - 1, max(0, round(frac * (height - 1))))

    def col_of(i: int) -> int:
        if len(points) == 1:
            return 0
        return round(i * (width - 1) / (len(points) - 1))

    grid = [[" "] * width for _ in range(height)]
    drops = [" "] * width
    for i, (_, series, dropped) in enumerate(points):
        col = col_of(i)
        if dropped:
            drops[col] = "!"
        # Draw c under * under # so overlapping cells show the worst series.
        for marker in ("c", "*", "#"):
            v = series[marker]
            if math.isfinite(v) and v > 0:
                grid[row_of(v)][col] = marker

    lines = ["latency (log scale)    c=consensus mean  *=e2e p50  #=e2e p99"]
    for row in range(height - 1, -1, -1):
        frac = row / (height - 1)
        label = 10 ** (log_lo + frac * span)
        lines.append(f"{label * 1000:>9.1f}ms |{''.join(grid[row])}")
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(" " * 12 + "".join(drops))
    first, last = points[0][0], points[-1][0]
    tail = f"{last:,.0f} tx/s offered"
    lines.append(
        " " * 12 + f"{first:,.0f}".ljust(max(1, width - len(tail))) + tail
    )
    if any(d == "!" for d in drops):
        lines.append(" " * 12 + "! = admission control dropped work (bounded queue)")
    return "\n".join(lines)
