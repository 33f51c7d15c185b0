"""Reliable Broadcast (RBC) — three steps, full consistency and totality.

Bracha's protocol [13] as used by the baselines (implementation modeled on
Cachin-Tessaro [24], the reference the paper cites for Tusk/Bullshark):

* **VAL** — broadcaster sends the block to everyone.
* **ECHO** — on first body for a slot, broadcast an ECHO (once per slot).
* **READY** — on ``n - f`` ECHOes for a digest, broadcast READY; *also* on
  ``f + 1`` READYs (amplification — this is what buys totality: once any
  non-faulty replica delivers, every non-faulty replica eventually sends
  READY and delivers, even if the broadcaster was Byzantine).
* **Delivery** — body + ``n - f`` READYs (+ the protocol's ancestor gate).

Three message steps → the 3× latency multiplier that motivates the paper
(Table I: DAG-Rider 4 RBC rounds = 12 steps best case).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..crypto.hashing import Digest
from ..dag.block import Block
from ..net.interfaces import NetworkAPI
from ..obs import NULL_OBS, Observability
from .base import DeliverCallback, InstanceTracker
from .messages import BlockEcho, BlockReady, BlockVal


class RbcManager:
    """All RBC instances of one replica."""

    #: Communication steps a full RBC takes (VAL + ECHO + READY).
    STEPS = 3

    def __init__(
        self,
        net: NetworkAPI,
        quorum: int,
        amplify_threshold: int,
        on_deliver: DeliverCallback,
        obs: Optional[Observability] = None,
    ) -> None:
        self.net = net
        self.quorum = quorum  # n - f: echo→ready and ready→deliver threshold
        self.amplify_threshold = amplify_threshold  # f + 1: ready amplification
        obs = obs or NULL_OBS
        metrics = obs.metrics
        metrics.gauge("broadcast.steps", primitive="rbc").set(self.STEPS)
        self._vals_ctr = metrics.counter("broadcast.vals_sent", primitive="rbc")
        self._echoes_ctr = metrics.counter("broadcast.echoes_sent", primitive="rbc")
        self._readies_ctr = metrics.counter("broadcast.readies_sent", primitive="rbc")
        self._amplified_ctr = metrics.counter(
            "broadcast.ready_amplifications", primitive="rbc"
        )
        self._refresh_ctr = metrics.counter("broadcast.vote_refreshes", primitive="rbc")
        self._retrieved_ctr = metrics.counter(
            "broadcast.retrieved_deliveries", primitive="rbc"
        )
        self.tracker = InstanceTracker(on_deliver, obs=obs, primitive="rbc")
        #: pre-bound journal emit (None when the journal is off): the
        #: ready-quorum-crossed milestone, RBC's delivery predicate.
        self._obs_emit = obs.journal.emit if obs.journal.enabled else None
        #: the one digest this replica echoed per slot.
        self._echoed_digest: Dict[Tuple[int, int], Digest] = {}

    # -- proposer side ---------------------------------------------------------

    def broadcast(self, block: Block) -> None:
        self._vals_ctr.inc()
        self.net.broadcast(BlockVal(block))

    # -- receiver side ---------------------------------------------------------

    def on_val(self, src: int, block: Block) -> None:
        """Record the body; echoing happens via :meth:`echo` once the
        protocol has validated the block (and synced its ancestors)."""
        self.tracker.record_body(block)

    def echo(self, block: Block) -> None:
        """Broadcast an ECHO — at most once per slot, which is where RBC's
        consistency comes from."""
        if block.slot in self._echoed_digest:
            return
        self._echoed_digest[block.slot] = block.digest
        self._echoes_ctr.inc()
        self.net.broadcast(
            BlockEcho(round=block.round, author=block.author, digest=block.digest)
        )

    def refresh_vote(self, block: Block) -> None:
        """Re-broadcast our ECHO (and READY, if sent) for a block we
        already endorsed — stall recovery after message loss."""
        if self._echoed_digest.get(block.slot) != block.digest:
            return
        self._refresh_ctr.inc()
        self.net.broadcast(
            BlockEcho(round=block.round, author=block.author, digest=block.digest)
        )
        inst = self.tracker.peek(block.digest)
        if inst is not None and inst.sent_ready:
            self.net.broadcast(
                BlockReady(round=block.round, author=block.author, digest=block.digest)
            )

    def on_echo(self, src: int, echo: BlockEcho) -> bool:
        inst = self.tracker.state_for_vote(echo.digest, echo.round)
        echoers = inst.echoers = inst.echoers | (1 << src)
        if not inst.sent_ready and echoers.bit_count() >= self.quorum:
            self._send_ready(echo.round, echo.author, echo.digest, inst)
        if inst.delivered or inst.readiers.bit_count() < self.quorum:
            return False
        return self.tracker.try_deliver(inst, True)

    def on_ready(self, src: int, ready: BlockReady) -> bool:
        inst = self.tracker.state_for_vote(ready.digest, ready.round)
        before = inst.readiers
        readiers = inst.readiers = before | (1 << src)
        count = readiers.bit_count()
        if self._obs_emit is not None and count == self.quorum and readiers != before:
            self._obs_emit(
                self.net.now(), "trace.quorum", self.net.node_id,
                digest=ready.digest.hex()[:8], round=ready.round,
                author=ready.author, kind="ready", primitive="rbc",
            )
        if not inst.sent_ready and count >= self.amplify_threshold:
            self._send_ready(
                ready.round, ready.author, ready.digest, inst, amplified=True
            )
        if inst.delivered or count < self.quorum:
            return False
        return self.tracker.try_deliver(inst, True)

    def _send_ready(
        self, round_: int, author: int, digest: Digest, inst, amplified: bool = False
    ) -> None:
        inst.sent_ready = True
        self._readies_ctr.inc()
        if amplified:
            self._amplified_ctr.inc()
        self.net.broadcast(BlockReady(round=round_, author=author, digest=digest))

    def mark_ready(self, digest: Digest) -> bool:
        """Protocol signal that validation + ancestor gate passed."""
        inst = self.tracker.mark_ready(digest)
        return self.tracker.try_deliver(inst, inst.readiers.bit_count() >= self.quorum)

    def deliver_retrieved(self, digest: Digest) -> bool:
        """Deliver a digest-pinned retrieval response directly (§IV-A).

        A retrieved block was requested by its exact hash (taken from a
        parent reference), so its content is authenticated by the digest
        itself; the responder serving it asserts it was delivered there.
        Bypassing the local echo/ready quorum is what lets a replica that
        missed whole rounds of broadcast traffic catch back up."""
        inst = self.tracker.mark_ready(digest)
        delivered = self.tracker.try_deliver(inst, predicate_met=True)
        if delivered:
            self._retrieved_ctr.inc()
        return delivered

    # -- memory ---------------------------------------------------------------

    def gc_below(self, horizon: int) -> int:
        """Drop per-instance state and the per-slot vote map for rounds
        below ``horizon`` (the protocol's commit-settled GC watermark)."""
        removed = self.tracker.gc_below(horizon)
        stale_slots = [s for s in self._echoed_digest if s[0] < horizon]
        for slot in stale_slots:
            del self._echoed_digest[slot]
        return removed + len(stale_slots)

    # -- introspection ---------------------------------------------------------

    def is_delivered(self, digest: Digest) -> bool:
        return self.tracker.is_delivered(digest)

    def body_of(self, digest: Digest):
        inst = self.tracker.peek(digest)
        return inst.body if inst else None

    def ready_complete(self, digest: Digest) -> bool:
        """Quorum of READYs present (delivery may still await body/gate)."""
        inst = self.tracker.peek(digest)
        return inst is not None and inst.readiers.bit_count() >= self.quorum
