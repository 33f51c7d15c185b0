"""Consistent Broadcast (CBC) — two steps, consistency without totality.

Implementation follows §III-B.1 (after Dolev [14], Reiter [20]):

* **VAL step** — the broadcaster sends block ``B`` to every replica.
* **ECHO step** — a replica that accepts ``B`` broadcasts an ECHO for
  ``B``'s digest.  Accepting is the *protocol's* decision (LightDAG1: echo
  at most once per slot, after the ancestor gate; LightDAG2: Rules 2/3).
* **Delivery** — a replica delivers ``B`` once it holds the body and
  ``n - f`` ECHOes for ``B``'s digest (and the protocol marked it ready).

Consistency argument: two quorums of ``n - f`` echoes intersect in at least
``f + 1`` replicas, hence in one non-faulty replica; if that replica echoes
at most one digest per slot, no two distinct blocks of one slot can both be
delivered.  Note the *per-slot single echo* lives in the protocol's vote
policy — LightDAG2 deliberately relaxes it (a replica may echo an original
block and later a reproposal, Fig. 10b), trading slot-consistency for the
Rule-2 no-contradictory-references guarantee.

No totality: a replica that never receives the body (Byzantine broadcaster
sent VAL selectively) cannot deliver — the §IV-A retrieval mechanism exists
precisely to patch this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..crypto.hashing import Digest
from ..dag.block import Block
from ..net.interfaces import NetworkAPI
from ..obs import NULL_OBS, Observability
from .base import DeliverCallback, InstanceTracker
from .messages import BlockEcho, BlockVal


class CbcManager:
    """All CBC instances of one replica."""

    #: Communication steps a full CBC takes (VAL + ECHO).
    STEPS = 2

    def __init__(
        self,
        net: NetworkAPI,
        quorum: int,
        on_deliver: DeliverCallback,
        obs: Optional[Observability] = None,
    ) -> None:
        self.net = net
        self.quorum = quorum
        obs = obs or NULL_OBS
        metrics = obs.metrics
        metrics.gauge("broadcast.steps", primitive="cbc").set(self.STEPS)
        self._vals_ctr = metrics.counter("broadcast.vals_sent", primitive="cbc")
        self._echoes_ctr = metrics.counter("broadcast.echoes_sent", primitive="cbc")
        self._refresh_ctr = metrics.counter("broadcast.vote_refreshes", primitive="cbc")
        self._retrieved_ctr = metrics.counter(
            "broadcast.retrieved_deliveries", primitive="cbc"
        )
        self.tracker = InstanceTracker(on_deliver, obs=obs, primitive="cbc")
        #: pre-bound journal emit (None when the journal is off): the
        #: echo-quorum-crossed milestone, CBC's delivery predicate.
        self._obs_emit = obs.journal.emit if obs.journal.enabled else None
        #: digests this replica has echoed, per slot (vote bookkeeping for
        #: protocol policies; LightDAG1 allows one entry, LightDAG2 several).
        self.votes_by_slot: Dict[Tuple[int, int], List[Digest]] = {}

    # -- proposer side ---------------------------------------------------------

    def broadcast(self, block: Block) -> None:
        self._vals_ctr.inc()
        self.net.broadcast(BlockVal(block))

    # -- receiver side ---------------------------------------------------------

    def on_val(self, src: int, block: Block) -> None:
        """Record the body; echoing is a separate, protocol-driven act."""
        self.tracker.record_body(block)

    def vote(self, block: Block) -> None:
        """Broadcast an ECHO for ``block`` (the Rule-2 sense of *voting*).

        Idempotent per digest; the per-slot voting policy is enforced by
        the caller, this method only records what was voted.
        """
        voted = self.votes_by_slot.setdefault(block.slot, [])
        if block.digest in voted:
            return
        voted.append(block.digest)
        self._echoes_ctr.inc()
        self.net.broadcast(
            BlockEcho(round=block.round, author=block.author, digest=block.digest)
        )

    def has_voted_in_slot(self, slot: Tuple[int, int]) -> bool:
        return bool(self.votes_by_slot.get(slot))

    def votes_in_slot(self, slot: Tuple[int, int]) -> List[Digest]:
        return list(self.votes_by_slot.get(slot, ()))

    def refresh_vote(self, block: Block) -> None:
        """Re-broadcast our ECHO for a block we already voted for — the
        stall-recovery path after message loss (partition heal): echoes are
        idempotent at receivers, so this is safe to repeat."""
        if block.digest in self.votes_by_slot.get(block.slot, ()):
            self._refresh_ctr.inc()
            self.net.broadcast(
                BlockEcho(round=block.round, author=block.author, digest=block.digest)
            )

    def on_echo(self, src: int, echo: BlockEcho) -> bool:
        """Count an echo; returns True if this completed a delivery."""
        inst = self.tracker.state_for_vote(echo.digest, echo.round)
        before = inst.echoers
        echoers = inst.echoers = before | (1 << src)
        count = echoers.bit_count()
        if self._obs_emit is not None and count == self.quorum and echoers != before:
            self._obs_emit(
                self.net.now(), "trace.quorum", self.net.node_id,
                digest=echo.digest.hex()[:8], round=echo.round,
                author=echo.author, kind="echo", primitive="cbc",
            )
        if inst.delivered or count < self.quorum:
            return False
        return self.tracker.try_deliver(inst, True)

    def mark_ready(self, digest: Digest) -> bool:
        """Protocol signal that validation + ancestor gate passed."""
        inst = self.tracker.mark_ready(digest)
        return self.tracker.try_deliver(inst, inst.echoers.bit_count() >= self.quorum)

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
        """Drop per-instance state and vote bookkeeping for rounds below
        ``horizon`` (the protocol's commit-settled GC watermark)."""
        removed = self.tracker.gc_below(horizon)
        stale = [slot for slot in self.votes_by_slot if slot[0] < horizon]
        for slot in stale:
            del self.votes_by_slot[slot]
        return removed + len(stale)

    # -- introspection ---------------------------------------------------------

    def is_delivered(self, digest: Digest) -> bool:
        return self.tracker.is_delivered(digest)

    def body_of(self, digest: Digest):
        inst = self.tracker.peek(digest)
        return inst.body if inst else None

    def echo_complete(self, digest: Digest) -> bool:
        """True when the quorum of echoes exists (delivery may still be
        waiting on body or ancestors — the retrieval fallback trigger)."""
        inst = self.tracker.peek(digest)
        return inst is not None and inst.echoers.bit_count() >= self.quorum
