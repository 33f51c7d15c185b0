"""Exporters for the :mod:`repro.obs` instrumentation layer.

One source of truth (the registry + journal of an instrumented run), one
artifact: :func:`write_run_dir` leaves a directory that ``repro explain
DIR`` reads back.

* :func:`journal_to_jsonl` — one JSON object per line, in event order.
  ``grep``-able, ``jq``-able, and the determinism witness (same seed →
  byte-identical dump).
* :func:`journal_to_chrome_trace` — Chrome ``trace_event`` JSON that opens
  directly in ``about:tracing`` / `Perfetto <https://ui.perfetto.dev>`_.
  Replicas become processes; per-author lanes carry **dissemination**
  spans (block proposed → delivered here) and **ordering** spans (block
  delivered here → committed here) — the paper's two latency terms,
  visible per block.  Cross-replica *flow* arrows link each proposal to
  its remote deliveries, and lifecycle (``trace.*``) / watchdog
  (``health.*``) events land as categorized instants.
* :func:`registry_summary_rows` — the metric table ``repro explain``
  prints, from the registry snapshot stored in ``run.json``.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..config import ExperimentConfig
from ..errors import ConfigError
from ..obs import BoundedJournal, EventJournal, Observability
from .latency import explain_report, format_report

PathLike = Optional[Union[str, Path]]


def _maybe_write(text: str, path: PathLike) -> str:
    if path is not None:
        Path(path).write_text(text)
    return text


# -- JSONL journal dump ------------------------------------------------------


def journal_to_jsonl(journal: EventJournal, path: PathLike = None) -> str:
    """Serialize the journal as one compact JSON object per line."""
    lines = [
        json.dumps(event.as_dict(), sort_keys=True, separators=(",", ":"))
        for event in journal
    ]
    return _maybe_write("\n".join(lines) + ("\n" if lines else ""), path)


def load_journal_jsonl(path: Union[str, Path]) -> List[dict]:
    """Read back a JSONL journal dump as a list of event dicts."""
    return [
        json.loads(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]


# -- Chrome trace_event JSON -------------------------------------------------

#: Journal event types the trace exporter pairs into spans.
_PROPOSE, _DELIVER, _COMMIT = "block.propose", "block.deliver", "block.commit"

#: Event types rendered as instants on the acting replica's main lane.
_INSTANT_TYPES = {
    "coin.reveal": "coin",
    "coin.recover_request": "coin",
    "wave.commit": "commit",
    "retrieval.request": "retrieval",
    "stall.rebroadcast": "recovery",
    "adversary.drop": "adversary",
    "adversary.delay": "adversary",
    # Lifecycle trace spans (repro.obs.trace) and health alerts land as
    # categorized instants so Perfetto can filter them per category.
    "trace.batch": "workload",
    "trace.quorum": "lifecycle",
    "trace.unblocked": "lifecycle",
    "trace.ordered": "lifecycle",
    "trace.execute": "smr",
    "trace.cpu_wait": "cpu",
    "trace.repropose": "lifecycle",
    "health.commit_stall": "health",
    "health.retrieval_storm": "health",
    "health.quorum_inflation": "health",
}

#: tid of the per-replica instant lane (author lanes are 1 + author).
_MAIN_LANE = 0


def _us(t: float) -> float:
    return t * 1e6


def journal_to_chrome_trace(journal: EventJournal, path: PathLike = None) -> str:
    """Render the journal as Chrome ``trace_event`` JSON.

    Layout: one *process* per replica; inside it, lane 0 carries instant
    events (coin reveals, wave commits, retrievals, adversary actions) and
    lane ``1 + author`` carries the block spans originating from that
    author — a **dissemination** span from the author's proposal to the
    local delivery, and an **ordering** span from local delivery to local
    commitment.  Open the file in ``about:tracing`` or Perfetto.
    """
    events: List[dict] = []
    nodes: set = set()
    proposed_at: Dict[str, float] = {}
    delivered_at: Dict[tuple, float] = {}
    next_flow_id = 1

    for event in journal:
        nodes.add(event.node)
        data = event.data
        if event.type == _PROPOSE:
            digest = data.get("digest")
            if digest is not None and digest not in proposed_at:
                proposed_at[digest] = event.t
        elif event.type == _DELIVER:
            digest = data.get("digest")
            author = data.get("author", 0)
            delivered_at[(event.node, digest)] = event.t
            start = proposed_at.get(digest)
            if start is not None:
                events.append({
                    "name": f"disseminate r{data.get('round')}/a{author}",
                    "cat": "dissemination",
                    "ph": "X",
                    "ts": _us(start),
                    "dur": max(_us(event.t - start), 0.0),
                    "pid": event.node,
                    "tid": 1 + int(author),
                    "args": {"digest": digest},
                })
                if event.node != author:
                    # Perfetto flow arrow: the author's proposal → this
                    # replica's delivery.  One flow per (digest, dst); the
                    # start binds inside the author's own dissemination
                    # slice, the finish (bp="e") to this replica's.
                    flow = {
                        "name": "propagate",
                        "cat": "flow",
                        "id": next_flow_id,
                        "args": {"digest": digest},
                    }
                    next_flow_id += 1
                    events.append(dict(
                        flow, ph="s", ts=_us(start),
                        pid=int(author), tid=1 + int(author),
                    ))
                    events.append(dict(
                        flow, ph="f", bp="e", ts=_us(event.t),
                        pid=event.node, tid=1 + int(author),
                    ))
        elif event.type == _COMMIT:
            digest = data.get("digest")
            author = data.get("author", 0)
            start = delivered_at.get((event.node, digest))
            if start is not None:
                events.append({
                    "name": f"order r{data.get('round')}/a{author}",
                    "cat": "ordering",
                    "ph": "X",
                    "ts": _us(start),
                    "dur": max(_us(event.t - start), 0.0),
                    "pid": event.node,
                    "tid": 1 + int(author),
                    "args": {"digest": digest, "wave": data.get("wave")},
                })
        else:
            cat = _INSTANT_TYPES.get(event.type)
            if cat is not None:
                events.append({
                    "name": event.type,
                    "cat": cat,
                    "ph": "i",
                    "s": "t",
                    "ts": _us(event.t),
                    "pid": event.node,
                    "tid": _MAIN_LANE,
                    "args": {
                        k: v for k, v in data.items() if not isinstance(v, dict)
                    },
                })

    metadata: List[dict] = []
    for node in sorted(nodes):
        label = f"replica {node}" if node >= 0 else "network"
        metadata.append({
            "name": "process_name", "ph": "M", "pid": node, "tid": _MAIN_LANE,
            "args": {"name": label},
        })
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": node, "tid": _MAIN_LANE,
            "args": {"name": "events"},
        })
    named_lanes: set = set()
    for event in events:
        key = (event["pid"], event["tid"])
        if event["tid"] != _MAIN_LANE and key not in named_lanes:
            named_lanes.add(key)
            metadata.append({
                "name": "thread_name", "ph": "M",
                "pid": event["pid"], "tid": event["tid"],
                "args": {"name": f"blocks from author {event['tid'] - 1}"},
            })

    trace = {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "time_unit": "sim-seconds -> us"},
    }
    return _maybe_write(json.dumps(trace, indent=1, sort_keys=True), path)


# -- the run directory (repro run --out DIR) ---------------------------------

#: The files of one run directory.  A ``--repeats`` run writes only
#: :data:`RUN_JSON`; an instrumented single-seed run writes all three.
RUN_JSON, JOURNAL_JSONL, TRACE_JSON = "run.json", "journal.jsonl", "trace.json"


def _git_commit() -> Optional[str]:
    """``git rev-parse HEAD`` of the tree this package runs from, or None."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def write_run_dir(
    out: Union[str, Path],
    cfg: ExperimentConfig,
    results: Iterable,
    argv: Sequence[str],
    obs: Optional[Observability] = None,
    health: Optional[Dict[str, object]] = None,
) -> None:
    """Write one run's artifact into the existing directory ``out``.

    ``run.json`` holds the config, seed, argv, git commit and the
    results' ``row()`` dicts (each ``ExperimentResult`` or
    ``RepeatedResult``).
    With ``obs`` (one instrumented seed) it also holds the registry
    snapshot, per-type journal counts and the health verdict, and the
    journal and its Chrome trace land beside it.  A streaming
    :class:`~repro.obs.BoundedJournal` has already written
    ``journal.jsonl`` in full, so only its ring reaches the trace.
    """
    out = Path(out)
    run: Dict[str, object] = {
        "config": asdict(cfg),
        "seed": cfg.seed,
        "argv": list(argv),
        "git_commit": _git_commit(),
        "results": [result.row() for result in results],
    }
    if obs is not None:
        journal = obs.journal
        run.update(
            metrics=obs.metrics.snapshot(),
            journal_counts=journal.counts_by_type(),
            health=health,
        )
        if isinstance(journal, BoundedJournal) and journal.spill_path:
            journal.close()
        else:
            journal_to_jsonl(journal, out / JOURNAL_JSONL)
        journal_to_chrome_trace(journal, out / TRACE_JSON)
    (out / RUN_JSON).write_text(json.dumps(run, indent=2, sort_keys=True) + "\n")


def format_run_dir(path: Union[str, Path]) -> str:
    """What ``repro explain DIR`` prints, derived from the directory alone:
    the result table, the stage decomposition and critical path of
    ``journal.jsonl``, the health verdict, and the metric and journal-count
    tables of ``run.json``.  Anything but a single-seed run directory is a
    :class:`~repro.errors.ConfigError`."""
    from ..harness.report import RESULT_COLUMNS, format_table

    root = Path(path)
    try:
        run = json.loads((root / RUN_JSON).read_text())
        config = run["config"]
        report = explain_report(
            load_journal_jsonl(root / JOURNAL_JSONL),
            protocol=config["protocol_name"], n=config["system"]["n"],
        )
        report["health"] = run["health"]
        sections = [
            format_table(run["results"], RESULT_COLUMNS),
            format_report(report),
            format_table(registry_summary_rows(run["metrics"]), [
                "metric", "labels", "kind", "count", "value", "mean", "p95",
                "max",
            ]),
        ]
        counts = sorted(run["journal_counts"].items())
        total = sum(count for _, count in counts)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{root} is not a single-seed 'repro run --out' "
                          f"directory ({type(exc).__name__}: {exc})") from None
    if counts:
        sections.append(format_table(
            [{"event": type_, "count": count} for type_, count in counts],
            ["event", "count"],
        ))
    sections.append(f"{total} journal events, {len(run['metrics'])} metric series")
    return "\n\n".join(sections)


# -- metric summary table (repro explain) -----------------------------------


def registry_summary_rows(snapshot: Iterable[dict]) -> List[Dict[str, object]]:
    """One table row per series of a ``MetricsRegistry.snapshot()``: name,
    labels, and a value summary.  Empty histograms are skipped."""
    rows: List[Dict[str, object]] = []
    for series in snapshot:
        row: Dict[str, object] = {
            "metric": series["name"],
            "labels": ",".join(
                f"{k}={v}" for k, v in sorted(series["labels"].items())
            ),
            "kind": series["kind"],
        }
        if series["kind"] == "histogram":
            if not series["count"]:
                continue
            row.update(
                count=series["count"],
                value=round(series["sum"], 6),
                mean=round(series["mean"], 6),
                p95=round(series["p95"], 6),
                max=round(series["max"], 6),
            )
        else:
            value = float(series["value"])
            row.update(
                count="",
                value=int(value) if value.is_integer() else round(value, 6),
                mean="", p95="", max="",
            )
        rows.append(row)
    return rows
