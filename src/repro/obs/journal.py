"""Structured event journal: append-only, sim-time-stamped records.

Where the registry answers "how many / how long", the journal answers
"what happened, in order": one :class:`Event` per protocol-level
occurrence (block proposed, delivered, committed; coin revealed; wave
committed; retrieval issued; adversary interference), each carrying the
simulated timestamp, the acting replica, an event type, and a small
payload dict.

The journal is the source every exporter reads — JSONL dumps for ad-hoc
grepping, Chrome ``trace_event`` JSON for Perfetto timelines (see
:mod:`repro.analysis.obs_export`).  Because the simulator is
deterministic, the journal is too: same seed → identical event sequence,
which the test suite asserts.

Two capacity modes:

* :class:`EventJournal` — unbounded in-memory list, the default for
  short runs and tests.
* :class:`BoundedJournal` — a ``deque(maxlen=...)`` ring that keeps only
  the newest events in memory, optionally spilling every event to a
  JSONL file as it is emitted.  Long ``n >= 100`` runs with ``--out`` and
  ``--journal-max-events`` use this so memory stays flat while nothing is
  lost on disk.

Listeners (:meth:`EventJournal.add_listener`) let online consumers — the
health watchdog — observe every event as it is emitted.  The hook is
installed by swapping the instance's ``emit`` attribute, so a journal
with no listeners pays nothing; callers that pre-bind ``journal.emit``
must therefore bind *after* listeners are installed (the harness installs
the watchdog before constructing nodes).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional


class Event(NamedTuple):
    """One journal record."""

    t: float  #: simulated seconds
    node: int  #: acting replica (-1 = the network/simulator itself)
    type: str  #: dotted event type, e.g. ``"block.deliver"``
    data: Dict[str, object]  #: small, JSON-able payload

    def as_dict(self) -> Dict[str, object]:
        return {"t": self.t, "node": self.node, "type": self.type, **self.data}


class EventJournal:
    """Append-only event log for one run."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._listeners: List[Callable[[Event], None]] = []

    # Journals are shared sinks: simulator snapshots must keep every
    # emitter pointed at the one live journal (see ``_SharedSink`` in
    # :mod:`repro.obs.registry`), not fork the event log per branch.
    def __copy__(self) -> "EventJournal":
        return self

    def __deepcopy__(self, memo) -> "EventJournal":
        return self

    def emit(self, t: float, type_: str, node: int = -1, **data: object) -> None:
        self.events.append(Event(t, node, type_, data))

    def _emit_listened(
        self, t: float, type_: str, node: int = -1, **data: object
    ) -> None:
        event = Event(t, node, type_, data)
        self._record(event)
        for listener in self._listeners:
            listener(event)

    def _record(self, event: Event) -> None:
        self.events.append(event)

    def add_listener(self, listener: Callable[[Event], None]) -> None:
        """Invoke ``listener(event)`` for every subsequent emit.

        Implemented by swapping the instance's ``emit`` attribute onto the
        listener-aware path, so journals without listeners keep the plain
        one-append fast path.  Install listeners *before* handing the
        journal to components that pre-bind ``journal.emit``.
        """
        self._listeners.append(listener)
        self.emit = self._emit_listened  # type: ignore[method-assign]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def counts_by_type(self) -> Dict[str, int]:
        """Event-type histogram (for summaries and sanity tests)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.type] = counts.get(event.type, 0) + 1
        return dict(sorted(counts.items()))


class BoundedJournal(EventJournal):
    """Ring-buffered journal: keeps the newest ``max_events`` in memory.

    ``emitted_total`` and :meth:`counts_by_type` still cover *every* event
    ever emitted (counts are folded incrementally as old events fall off
    the ring), so summaries stay exact even after eviction.  With
    ``spill_path`` set, every event is also streamed to a JSONL file as
    it is emitted — the full log survives on disk at O(ring) memory.
    """

    def __init__(self, max_events: int, spill_path: Optional[str] = None) -> None:
        super().__init__()
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.events = deque(maxlen=max_events)  # type: ignore[assignment]
        self.emitted_total = 0
        self._counts: Dict[str, int] = {}
        self.spill_path = spill_path
        self._spill_file = open(spill_path, "w") if spill_path else None

    def emit(self, t: float, type_: str, node: int = -1, **data: object) -> None:
        self._record(Event(t, node, type_, data))

    def _record(self, event: Event) -> None:
        self.emitted_total += 1
        self._counts[event.type] = self._counts.get(event.type, 0) + 1
        if self._spill_file is not None:
            json.dump(event.as_dict(), self._spill_file, separators=(",", ":"))
            self._spill_file.write("\n")
        self.events.append(event)

    def counts_by_type(self) -> Dict[str, int]:
        return dict(sorted(self._counts.items()))

    def close(self) -> None:
        """Flush and close the spill file (idempotent)."""
        if self._spill_file is not None:
            self._spill_file.close()
            self._spill_file = None

    def __del__(self) -> None:  # pragma: no cover — GC-order dependent
        try:
            self.close()
        except Exception:
            pass


class NullJournal(EventJournal):
    """Do-nothing journal (the off-by-default path)."""

    enabled = False

    def emit(self, t: float, type_: str, node: int = -1, **data: object) -> None:
        pass

    def add_listener(self, listener: Callable[[Event], None]) -> None:
        pass
