"""Mempool admission control and backpressure.

Without admission control an overloaded replica is an unbounded queue:
offered load past the commit capacity accrues pending commands forever,
memory grows without bound, and the measured "latency" is just the age of
an infinite backlog.  Production mempools bound the queue and make the
overflow *visible* — a rejected submission is a signal the client can act
on (back off, retry elsewhere), a silently queued one is not.

:class:`AdmissionController` is the accounting + policy object the SMR
replica consults on every submission:

* a **bounded queue** (``max_pending``): past the cap the policy decides —
  ``reject`` refuses the newcomer, ``shed-oldest`` evicts the oldest
  queued command to make room (freshest-work-first under overload);
* a **per-client fairness cap** (``per_client_cap``): one chatty client
  cannot occupy the whole queue and starve the rest;
* **observability**: admits / rejects (by reason) / sheds are counters,
  queue depth is a gauge, and every decision is available to the
  :mod:`repro.obs` registry when one is bound.

The controller never touches the queue itself — the replica owns the
deque; the controller owns the counts and the verdicts.  That keeps it
trivially testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigError

#: Decision verdicts returned by :meth:`AdmissionController.decide`.
ADMIT = "admit"
SHED = "shed"
REJECT_FULL = "reject-full"
REJECT_CLIENT = "reject-client-cap"

_POLICIES = ("reject", "shed-oldest")


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for one replica's admission controller.

    Attributes
    ----------
    max_pending:
        Queue-depth cap; 0 means unbounded (the historical behaviour).
    policy:
        What happens when the queue is full: ``"reject"`` refuses the new
        command, ``"shed-oldest"`` admits it and evicts the oldest queued
        command instead.
    per_client_cap:
        Maximum commands one client may have queued at once; 0 = no cap.
        Checked before the queue bound, so a greedy client is rejected
        even when the queue has room for polite ones.
    """

    max_pending: int = 0
    policy: str = "reject"
    per_client_cap: int = 0

    def __post_init__(self) -> None:
        if self.max_pending < 0:
            raise ConfigError("max_pending cannot be negative")
        if self.per_client_cap < 0:
            raise ConfigError("per_client_cap cannot be negative")
        if self.policy not in _POLICIES:
            raise ConfigError(
                f"unknown admission policy {self.policy!r}; "
                f"choose from {_POLICIES}"
            )


class AdmissionController:
    """Accounting and policy for one replica's pending-command queue."""

    def __init__(self, config: AdmissionConfig, obs=None, replica_id: int = 0) -> None:
        self.config = config
        self.depth = 0
        self.max_depth = 0
        self.admitted = 0
        self.shed = 0
        self.rejected: Dict[str, int] = {REJECT_FULL: 0, REJECT_CLIENT: 0}
        self._per_client: Dict[str, int] = {}
        self._ctr_admit = self._ctr_shed = None
        self._ctr_reject: Dict[str, object] = {}
        self._g_depth = None
        if obs is not None and obs.metrics.enabled:
            metrics = obs.metrics
            self._ctr_admit = metrics.counter("smr.admitted", replica=replica_id)
            self._ctr_shed = metrics.counter("smr.shed", replica=replica_id)
            self._ctr_reject = {
                reason: metrics.counter(
                    "smr.rejected", replica=replica_id, reason=reason
                )
                for reason in (REJECT_FULL, REJECT_CLIENT)
            }
            self._g_depth = metrics.gauge("smr.pending_depth", replica=replica_id)

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    # -- decisions ---------------------------------------------------------------

    def decide(self, client: str) -> str:
        """Verdict for one submission, given the current queue depth.

        Returns one of :data:`ADMIT`, :data:`SHED` (admit, but the caller
        must evict its oldest queued command and report it via
        :meth:`note_shed`), :data:`REJECT_FULL`, :data:`REJECT_CLIENT`.
        A rejection is final and counted here; the caller applies an
        admission and records it through ``note_admitted`` / ``note_shed``.
        """
        cfg = self.config
        if cfg.per_client_cap and self._per_client.get(client, 0) >= cfg.per_client_cap:
            self._count_reject(REJECT_CLIENT)
            return REJECT_CLIENT
        if cfg.max_pending and self.depth >= cfg.max_pending:
            if cfg.policy == "reject":
                self._count_reject(REJECT_FULL)
                return REJECT_FULL
            return SHED
        return ADMIT

    # -- outcome accounting --------------------------------------------------------

    def note_admitted(self, client: str) -> None:
        self.depth += 1
        if self.depth > self.max_depth:
            self.max_depth = self.depth
        self.admitted += 1
        self._per_client[client] = self._per_client.get(client, 0) + 1
        if self._ctr_admit is not None:
            self._ctr_admit.inc()
            self._g_depth.set(self.depth)

    def note_shed(self, client: str) -> None:
        """The caller evicted one queued command of ``client``."""
        self.shed += 1
        self._release(client)
        if self._ctr_shed is not None:
            self._ctr_shed.inc()
            self._g_depth.set(self.depth)

    def note_drained(self, client: str) -> None:
        """One queued command of ``client`` left the queue into a block."""
        self._release(client)
        if self._g_depth is not None:
            self._g_depth.set(self.depth)

    def _release(self, client: str) -> None:
        self.depth -= 1
        remaining = self._per_client.get(client, 0) - 1
        if remaining > 0:
            self._per_client[client] = remaining
        else:
            self._per_client.pop(client, None)

    def _count_reject(self, reason: str) -> None:
        self.rejected[reason] += 1
        ctr = self._ctr_reject.get(reason)
        if ctr is not None:
            ctr.inc()

    def summary(self) -> Dict[str, int]:
        """Flat totals for result rows and reports."""
        return {
            "admitted": self.admitted,
            "rejected": self.rejected_total,
            "shed": self.shed,
            "depth": self.depth,
            "max_depth": self.max_depth,
        }


def make_admission(
    config: Optional[AdmissionConfig], obs=None, replica_id: int = 0
) -> Optional[AdmissionController]:
    """Controller for ``config``, or None when no bounds are configured."""
    if config is None:
        return None
    if not config.max_pending and not config.per_client_cap:
        return None
    return AdmissionController(config, obs=obs, replica_id=replica_id)
