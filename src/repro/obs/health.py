"""Liveness/health watchdog: online detectors over the event journal.

The consensus layer's own checks (:mod:`repro.check`) catch *safety*
violations; this module watches for *liveness and performance* pathology
while the run is still going:

* **commit-progress stall** — no replica has committed anything for
  :data:`STALL_AFTER` simulated seconds (after the first commit ever);
* **retrieval storm** — one replica issued more than
  :data:`STORM_THRESHOLD` §IV-A retrieval requests inside a sliding
  :data:`STORM_WINDOW`;
* **quorum-wait inflation** — a block's body→quorum wait exceeded
  :data:`INFLATION_FACTOR`× the running mean wait (after
  :data:`INFLATION_MIN_SAMPLES` waits), i.e. votes/echoes suddenly take
  far longer than they used to;
* **per-node commit lag** — at summary time, a replica's committed-block
  count is under :data:`LAG_RATIO`× the median replica's.

The monitor is a journal *listener* (:meth:`~repro.obs.journal.
EventJournal.add_listener`): it sees every event as it is emitted and
emits its own structured ``health.*`` events back into the same journal
(rate-limited per detector+node so a sustained stall yields one alert
per window, not one per event).  Install it **before** constructing
nodes — they pre-bind ``journal.emit``, and the listener hook swaps that
method.

:meth:`HealthMonitor.summary` is the run-end verdict the harness
attaches to results and the fuzzer attaches to shrunk counterexamples.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from .journal import Event, EventJournal

#: Seconds of global commit silence that count as a stall.
STALL_AFTER = 5.0
#: Sliding window (seconds) of the retrieval-storm detector, and the
#: minimum spacing of its and the inflation detector's alerts.
STORM_WINDOW = 2.0
#: Retrieval requests by one replica inside the window that make a storm.
STORM_THRESHOLD = 25
#: A body→quorum wait this many times the running mean is inflated.
INFLATION_FACTOR = 4.0
#: Waits observed before the inflation detector may fire.
INFLATION_MIN_SAMPLES = 20
#: A replica with fewer than this share of the median's commits lags.
LAG_RATIO = 0.5


class HealthMonitor:
    """Online liveness/health detectors over one run's journal."""

    def __init__(self, n: int) -> None:
        self.n = n
        self._journal: Optional[EventJournal] = None
        self.now = 0.0
        self.alerts: Dict[str, int] = {}
        self.commits_by_node: Dict[int, int] = {i: 0 for i in range(n)}
        self.last_commit_by_node: Dict[int, float] = {}
        self._last_commit_any: Optional[float] = None
        self._first_commit: Optional[float] = None
        self._last_stall_alert = -1e18
        self._retrievals: Dict[int, Deque[float]] = {}
        self._last_storm_alert: Dict[int, float] = {}
        self._body_at: Dict[tuple, float] = {}
        self._quorum_wait_sum = 0.0
        self._quorum_wait_count = 0
        self._last_inflation_alert = -1e18

    # -- wiring ---------------------------------------------------------------

    def install(self, journal: EventJournal) -> None:
        """Subscribe to a journal; must run before nodes bind ``emit``."""
        self._journal = journal
        journal.add_listener(self.on_event)

    def _alert(self, t: float, type_: str, node: int, **data: object) -> None:
        self.alerts[type_] = self.alerts.get(type_, 0) + 1
        if self._journal is not None:
            # Re-entrant emit: on_event ignores health.* events, so the
            # recursion terminates after one level.
            self._journal.emit(t, type_, node, **data)

    # -- the listener ---------------------------------------------------------

    def on_event(self, event: Event) -> None:
        type_ = event.type
        if type_.startswith("health."):
            return
        t = event.t
        if t > self.now:
            self.now = t
        if type_ == "block.commit":
            self.commits_by_node[event.node] = (
                self.commits_by_node.get(event.node, 0) + 1
            )
            self.last_commit_by_node[event.node] = t
            self._last_commit_any = t
            if self._first_commit is None:
                self._first_commit = t
            return
        if type_ == "retrieval.request":
            window = self._retrievals.setdefault(event.node, deque())
            window.append(t)
            floor = t - STORM_WINDOW
            while window and window[0] < floor:
                window.popleft()
            if len(window) > STORM_THRESHOLD:
                last = self._last_storm_alert.get(event.node, -1e18)
                if t - last >= STORM_WINDOW:
                    self._last_storm_alert[event.node] = t
                    self._alert(
                        t, "health.retrieval_storm", event.node,
                        requests=len(window), window=STORM_WINDOW,
                    )
            return
        if type_ == "trace.body":
            self._body_at[(event.node, event.data.get("digest"))] = t
            return
        if type_ == "trace.quorum":
            start = self._body_at.pop(
                (event.node, event.data.get("digest")), None
            )
            if start is None:
                return
            wait = t - start
            if (
                self._quorum_wait_count >= INFLATION_MIN_SAMPLES
                and self._quorum_wait_count > 0
            ):
                mean = self._quorum_wait_sum / self._quorum_wait_count
                if mean > 0 and wait > INFLATION_FACTOR * mean:
                    if t - self._last_inflation_alert >= STORM_WINDOW:
                        self._last_inflation_alert = t
                        self._alert(
                            t, "health.quorum_inflation", event.node,
                            wait=wait, baseline_mean=mean,
                            digest=event.data.get("digest"),
                        )
            self._quorum_wait_sum += wait
            self._quorum_wait_count += 1
            return
        # Any other event advances the clock; check the global commit stall
        # (the check is O(1): one subtraction against the last commit).
        if self._first_commit is not None and self._last_commit_any is not None:
            silent = t - self._last_commit_any
            if (
                silent > STALL_AFTER
                and t - self._last_stall_alert >= STALL_AFTER
            ):
                self._last_stall_alert = t
                self._alert(
                    t, "health.commit_stall", -1,
                    silent_for=silent, last_commit=self._last_commit_any,
                )

    # -- run-end verdict ------------------------------------------------------

    def laggards(self) -> List[int]:
        """Replicas whose commit count trails the median by :data:`LAG_RATIO`."""
        counts = sorted(self.commits_by_node.values())
        if not counts or counts[-1] == 0:
            return []
        median = counts[len(counts) // 2]
        if median == 0:
            return []
        return sorted(
            node
            for node, count in self.commits_by_node.items()
            if count < LAG_RATIO * median
        )

    def summary(self, now: Optional[float] = None) -> Dict[str, object]:
        """The run-end health verdict (JSON-able)."""
        at = now if now is not None else self.now
        lagging = self.laggards()
        alerts = dict(self.alerts)
        if lagging:
            # Summary-time detector; folded into the (copied) alert map so
            # calling summary() twice never double-counts.
            alerts["health.node_lag"] = len(lagging)
        stalled_now = (
            self._first_commit is not None
            and self._last_commit_any is not None
            and at - self._last_commit_any > STALL_AFTER
        ) or self._first_commit is None
        if stalled_now and self._first_commit is None:
            verdict = "no-progress"
        elif stalled_now:
            verdict = "stalled"
        elif alerts:
            verdict = "degraded"
        else:
            verdict = "healthy"
        return {
            "verdict": verdict,
            "alerts": dict(sorted(alerts.items())),
            "commits_by_node": dict(sorted(self.commits_by_node.items())),
            "laggards": lagging,
            "first_commit": self._first_commit,
            "last_commit": self._last_commit_any,
            "observed_until": at,
        }
