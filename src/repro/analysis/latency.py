"""Commit-latency decomposition and causal critical-path analysis.

The paper's headline claim is *low latency through lightweight broadcast*
— this module says **where a committed block's milliseconds went**.  From
a run's journal (``block.*``/``coin.*`` events plus the ``trace.*``
lifecycle milestones every enabled journal records) it reconstructs, per
committed ``(replica, block)`` pair, the lifecycle timeline

    created → body arrived → vote/echo quorum → delivered
            → wave coin revealed → committed

and decomposes end-to-end commit latency into the stages between
consecutive milestones:

==============  =============================================================
``broadcast``   proposal broadcast → body's arrival at this replica (VAL hop)
``quorum``      body here → the broadcast's delivery quorum crossed here
``gating``      quorum → delivered (§IV-A ancestor gate / retrieval stalls)
``coin``        delivered → the committing wave's coin revealed here
``ordering``    coin → the commit cascade actually ran (support references)
==============  =============================================================

**Reconciliation guarantee**: milestones are folded through a running
maximum, so every stage is ≥ 0 and the stages *telescope* — their sum is
exactly ``committed − created`` for every block, which is what lets the
per-stage aggregate table claim to explain the measured commit latency
(asserted in ``tests/analysis/test_latency.py``).  A missing milestone
(PBC has no quorum; a retrieved block skips it) contributes a zero-width
stage rather than breaking the sum.

Client-side **queueing** (tx submitted → proposal drained it, from the
batch's ``txs`` and ``submit_sum`` on ``block.propose``) and post-commit
**execute** (from ``trace.execute``) are reported separately — they sit
outside consensus latency.

:func:`critical_path` walks a committed block's causal ancestry (parents
recorded on ``trace.body``) picking, at each hop, the parent that was
delivered *last* at the observing replica — the longest blocking chain
that gated this block's acceptance.

The CLI front end is ``repro explain DIR`` (see :mod:`repro.cli`): it
derives :func:`explain_report` from the ``journal.jsonl`` that ``repro run
--out DIR`` recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .stats import percentile

#: Consensus stages, in causal order.  Their widths sum to committed−created.
STAGES: Tuple[str, ...] = ("broadcast", "quorum", "gating", "coin", "ordering")

#: Milestone names, in causal order (created first, committed last).
_MILESTONES: Tuple[str, ...] = (
    "created", "body", "quorum", "delivered", "coin", "committed"
)


@dataclass
class BlockTimeline:
    """Milestones of one block's life at one observing replica.

    ``None`` marks milestones that never happened locally (e.g. no
    ``trace.quorum`` for a PBC or retrieval-delivered block).
    """

    node: int
    digest: str
    round: int = -1
    author: int = -1
    created: Optional[float] = None
    #: mean client queueing delay of the block's transactions
    queue_wait: Optional[float] = None
    body: Optional[float] = None
    quorum: Optional[float] = None
    delivered: Optional[float] = None
    coin: Optional[float] = None
    committed: Optional[float] = None
    executed: Optional[float] = None
    wave: Optional[int] = None
    parents: Tuple[str, ...] = ()

    def stages(self) -> Optional[Dict[str, float]]:
        """Per-stage widths; None unless both endpoints exist.

        Milestones run through a cumulative max, so consecutive widths
        are non-negative and telescope to exactly
        ``committed - created``.
        """
        if self.created is None or self.committed is None:
            return None
        bounds: List[float] = [self.created]
        running = self.created
        for value in (self.body, self.quorum, self.delivered, self.coin):
            if value is not None and value > running:
                # Clamp into [created, committed]: a missing milestone
                # inherits its predecessor (zero-width stage) and an
                # out-of-range one cannot break the telescoping sum.
                running = min(value, self.committed)
            bounds.append(running)
        bounds.append(self.committed if self.committed > running else running)
        return {
            stage: bounds[i + 1] - bounds[i]
            for i, stage in enumerate(STAGES)
        }

    @property
    def end_to_end(self) -> Optional[float]:
        if self.created is None or self.committed is None:
            return None
        return self.committed - self.created


def _normalize(event) -> Tuple[float, int, str, Dict[str, object]]:
    """Accept journal :class:`~repro.obs.Event` tuples or JSONL dicts."""
    if isinstance(event, dict):
        data = {k: v for k, v in event.items() if k not in ("t", "node", "type")}
        return float(event["t"]), int(event["node"]), str(event["type"]), data
    return event.t, event.node, event.type, event.data


def build_timelines(events: Iterable) -> Dict[Tuple[int, str], BlockTimeline]:
    """Fold journal events into per-``(node, digest)`` timelines.

    Only committed pairs get full decomposition downstream; uncommitted
    timelines are still returned (the health layer and the critical-path
    walk use their delivery times).
    """
    timelines: Dict[Tuple[int, str], BlockTimeline] = {}
    # digest -> (t, round, author, queue wait or None)
    proposed: Dict[str, Tuple[float, int, int, Optional[float]]] = {}
    coins: Dict[Tuple[int, int], float] = {}  # (node, wave) -> reveal t

    def line(node: int, digest: str) -> BlockTimeline:
        key = (node, digest)
        tl = timelines.get(key)
        if tl is None:
            tl = timelines[key] = BlockTimeline(node=node, digest=digest)
        return tl

    for event in events:
        t, node, type_, data = _normalize(event)
        if type_ == "block.propose":
            digest = str(data.get("digest"))
            if digest not in proposed:
                # (txs * t - sum) / txs, not t - sum / txs: a batch stamped
                # at t waits exactly 0, as the commit metrics count it.
                txs = int(data.get("txs", 0))
                queue = None
                if txs > 0 and "submit_sum" in data:
                    queue = max((txs * t - float(data["submit_sum"])) / txs, 0.0)
                proposed[digest] = (
                    t, int(data.get("round", -1)), int(data.get("author", node)),
                    queue,
                )
        elif type_ == "trace.body":
            tl = line(node, str(data.get("digest")))
            if tl.body is None:
                tl.body = t
                tl.round = int(data.get("round", tl.round))
                tl.author = int(data.get("author", tl.author))
                tl.parents = tuple(str(p) for p in data.get("parents", ()))
        elif type_ == "trace.quorum":
            tl = line(node, str(data.get("digest")))
            if tl.quorum is None:
                tl.quorum = t
        elif type_ == "block.deliver":
            tl = line(node, str(data.get("digest")))
            if tl.delivered is None:
                tl.delivered = t
                tl.round = int(data.get("round", tl.round))
                tl.author = int(data.get("author", tl.author))
        elif type_ == "coin.reveal":
            coins.setdefault((node, int(data.get("wave", -1))), t)
        elif type_ == "block.commit":
            tl = line(node, str(data.get("digest")))
            if tl.committed is None:
                tl.committed = t
                tl.wave = int(data.get("wave", -1))
                tl.round = int(data.get("round", tl.round))
                tl.author = int(data.get("author", tl.author))
        elif type_ == "trace.execute":
            tl = line(node, str(data.get("digest")))
            if tl.executed is None:
                tl.executed = t

    for (node, digest), tl in timelines.items():
        origin = proposed.get(digest)
        if origin is not None:
            tl.created, round_, author, tl.queue_wait = origin
            if tl.round < 0:
                tl.round = round_
            if tl.author < 0:
                tl.author = author
        if tl.wave is not None:
            tl.coin = coins.get((node, tl.wave))
    return timelines


def _stat_row(samples: List[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered) if ordered else 0.0,
        "p50": percentile(ordered, 0.50) if ordered else 0.0,
        "p95": percentile(ordered, 0.95) if ordered else 0.0,
        "p99": percentile(ordered, 0.99) if ordered else 0.0,
        "max": ordered[-1] if ordered else 0.0,
    }


def stage_breakdown(
    timelines: Dict[Tuple[int, str], BlockTimeline],
) -> Dict[str, object]:
    """Aggregate per-stage statistics over every decomposable timeline."""
    per_stage: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    totals: List[float] = []
    queue: List[float] = []
    execute: List[float] = []
    max_error = 0.0
    for tl in timelines.values():
        stages = tl.stages()
        if stages is None:
            continue
        total = tl.end_to_end or 0.0
        totals.append(total)
        max_error = max(max_error, abs(sum(stages.values()) - total))
        for stage, width in stages.items():
            per_stage[stage].append(width)
        if tl.queue_wait is not None:
            queue.append(tl.queue_wait)
        if tl.executed is not None and tl.committed is not None:
            execute.append(max(tl.executed - tl.committed, 0.0))
    mean_total = sum(totals) / len(totals) if totals else 0.0
    stages_out: Dict[str, Dict[str, float]] = {}
    for stage in STAGES:
        row = _stat_row(per_stage[stage])
        row["share"] = row["mean"] / mean_total if mean_total > 0 else 0.0
        stages_out[stage] = row
    return {
        "blocks": len(totals),
        "end_to_end": _stat_row(totals),
        "stages": stages_out,
        "queue": _stat_row(queue) if queue else None,
        "execute": _stat_row(execute) if execute else None,
        "reconciliation_max_abs_error": max_error,
    }


def critical_path(
    timelines: Dict[Tuple[int, str], BlockTimeline],
    node: int,
    digest: str,
    max_depth: int = 32,
) -> List[Dict[str, object]]:
    """The longest blocking ancestor chain of one block, at one replica.

    Starting from ``digest``, repeatedly steps to the parent delivered
    *last* at ``node`` — the block whose arrival actually gated this
    hop's acceptance (§IV-A).  Returns hops root-first, each with the
    local delivery time and how long the child waited for it.
    """
    path: List[Dict[str, object]] = []
    current = timelines.get((node, digest))
    seen = {digest}
    while current is not None and len(path) < max_depth:
        blocking: Optional[BlockTimeline] = None
        for parent in current.parents:
            candidate = timelines.get((node, parent))
            if candidate is None or candidate.delivered is None:
                continue
            if blocking is None or candidate.delivered > (blocking.delivered or 0.0):
                blocking = candidate
        entry: Dict[str, object] = {
            "digest": current.digest,
            "round": current.round,
            "author": current.author,
            "delivered": current.delivered,
        }
        if blocking is not None and current.delivered is not None:
            entry["waited_for_parent"] = max(
                current.delivered - (blocking.delivered or 0.0), 0.0
            )
        path.append(entry)
        if blocking is None or blocking.digest in seen:
            break
        seen.add(blocking.digest)
        current = blocking
    path.reverse()
    return path


def slowest_committed(
    timelines: Dict[Tuple[int, str], BlockTimeline],
) -> Optional[BlockTimeline]:
    """The committed timeline with the largest end-to-end latency."""
    worst: Optional[BlockTimeline] = None
    for tl in timelines.values():
        total = tl.end_to_end
        if total is None:
            continue
        if worst is None or total > (worst.end_to_end or 0.0):
            worst = tl
    return worst


def explain_report(
    events: Iterable,
    protocol: str = "",
    n: int = 0,
) -> Dict[str, object]:
    """The full machine-readable latency report for one traced run."""
    timelines = build_timelines(events)
    report = stage_breakdown(timelines)
    report["protocol"] = protocol
    report["n"] = n
    worst = slowest_committed(timelines)
    if worst is not None:
        report["slowest_block"] = {
            "digest": worst.digest,
            "node": worst.node,
            "round": worst.round,
            "author": worst.author,
            "end_to_end": worst.end_to_end,
            "stages": worst.stages(),
        }
        report["critical_path"] = critical_path(
            timelines, worst.node, worst.digest
        )
    else:
        report["slowest_block"] = None
        report["critical_path"] = []
    return report


def _ms(value: Optional[float]) -> str:
    return f"{value * 1e3:8.2f}" if value is not None else "       -"


def format_report(report: Dict[str, object]) -> str:
    """Human-readable rendering for ``repro explain``."""
    lines: List[str] = []
    blocks = report.get("blocks", 0)
    e2e = report.get("end_to_end") or {}
    lines.append(
        f"{report.get('protocol', '?')} n={report.get('n', '?')}: "
        f"{blocks} committed block timeline(s)"
    )
    if not blocks:
        lines.append("no committed blocks with full timelines — "
                     "was the run traced and long enough?")
        return "\n".join(lines)
    lines.append(
        f"end-to-end commit latency: mean {_ms(e2e.get('mean')).strip()} ms, "
        f"p50 {_ms(e2e.get('p50')).strip()} ms, "
        f"p95 {_ms(e2e.get('p95')).strip()} ms"
    )
    lines.append("")
    lines.append(f"{'stage':<12}{'mean ms':>10}{'p50 ms':>10}"
                 f"{'p95 ms':>10}{'p99 ms':>10}{'share':>8}")
    stages: Dict[str, Dict[str, float]] = report.get("stages", {})  # type: ignore[assignment]
    for stage in STAGES:
        row = stages.get(stage)
        if row is None:
            continue
        lines.append(
            f"{stage:<12}{_ms(row['mean']):>10}{_ms(row['p50']):>10}"
            f"{_ms(row['p95']):>10}{_ms(row['p99']):>10}"
            f"{row['share'] * 100:>7.1f}%"
        )
    mean_sum = sum(row["mean"] for row in stages.values())
    lines.append(
        f"{'Σ stages':<12}{_ms(mean_sum):>10}"
        f"  (reconciles with end-to-end mean, max |err| "
        f"{report.get('reconciliation_max_abs_error', 0.0):.2e}s)"
    )
    queue = report.get("queue")
    if queue:
        lines.append(f"client queueing (pre-consensus): "
                     f"mean {_ms(queue['mean']).strip()} ms")
    execute = report.get("execute")
    if execute:
        lines.append(f"execution (post-commit): "
                     f"mean {_ms(execute['mean']).strip()} ms")
    slowest = report.get("slowest_block")
    if slowest:
        lines.append("")
        lines.append(
            f"slowest block: r{slowest['round']}/a{slowest['author']} "
            f"({slowest['digest']}) at replica {slowest['node']}: "
            f"{_ms(slowest['end_to_end']).strip()} ms"
        )
        path = report.get("critical_path") or []
        if path:
            lines.append("critical path (longest blocking ancestor chain):")
            for hop in path:
                waited = hop.get("waited_for_parent")
                suffix = (
                    f"  (+{_ms(waited).strip()} ms after blocking parent)"
                    if waited is not None else ""
                )
                delivered = hop.get("delivered")
                at = (
                    f"delivered t={delivered:.4f}s"
                    if isinstance(delivered, float) else "not delivered"
                )
                lines.append(
                    f"  r{hop['round']}/a{hop['author']} {hop['digest']} — "
                    f"{at}{suffix}"
                )
    health = report.get("health")
    if health:
        lines.append("")
        lines.append(f"health: {health.get('verdict', '?')}")
        for alert, count in sorted((health.get("alerts") or {}).items()):
            lines.append(f"  {alert}: {count}")
    return "\n".join(lines)
