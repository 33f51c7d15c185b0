"""Shared machinery for the per-replica broadcast managers.

Each manager tracks one *kind* of broadcast (PBC/CBC/RBC) across all its
instances (one instance per proposed block).  The split of responsibilities
with the owning protocol node is:

* the **manager** counts messages and decides when an instance's *delivery
  predicate* is met (body present, enough echoes/readies);
* the **protocol** decides when a block is *acceptable* — structural
  validity and the §IV-A ancestor gate — and signals it by calling
  :meth:`InstanceTracker.mark_ready`.  Only blocks that are both ready and
  predicate-complete are delivered, exactly once, via the ``on_deliver``
  callback.

This keeps every protocol rule (LightDAG2's Rules 2/3 voting policy, the
retrieval gate) out of the broadcast layer, matching the paper's layering.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..crypto.hashing import Digest
from ..dag.block import Block
from ..obs import NULL_OBS, Observability

DeliverCallback = Callable[[Block], None]


class InstanceState:
    """Per-block broadcast state (slotted: one per block per replica, and
    every echo reads it).

    The two vote tallies are bitmasks — bit *i* is set once replica *i*'s
    ECHO (``echoers``) or READY (``readiers``) was counted — so a tally is
    n bits rather than a set of n ints, a duplicate vote is idempotent
    (``mask | bit``) and a quorum is ``mask.bit_count()``.  The shift
    relies on voter ids lying in ``[0, n)``, which every transport already
    guarantees before a handler runs: the simulator hands out the ids
    itself, and TCP closes a connection whose hello names any other
    (``bad_hello``).
    """

    __slots__ = (
        "body", "ready", "delivered", "echoers", "readiers", "sent_ready", "round",
    )

    def __init__(self) -> None:
        self.body: Optional[Block] = None
        self.ready = False  # protocol accepted it (ancestors present, valid)
        self.delivered = False
        self.echoers = 0
        self.readiers = 0
        self.sent_ready = False
        #: DAG round of the block; -1 = not yet known.  The body's round is
        #: authoritative (:meth:`InstanceTracker.record_body`); until a body
        #: is recorded it is the highest round a vote claimed
        #: (:meth:`InstanceTracker.state_for_vote`).  Drives
        #: :meth:`InstanceTracker.gc_below` — without it the tracker retains
        #: every instance ever seen, which is what unbounds memory on long
        #: large-n runs.
        self.round = -1


class InstanceTracker:
    """Digest-keyed instance states plus the single-delivery discipline."""

    def __init__(
        self,
        on_deliver: DeliverCallback,
        obs: Optional[Observability] = None,
        primitive: str = "",
    ) -> None:
        self._instances: Dict[Digest, InstanceState] = {}
        self._on_deliver = on_deliver
        # Per-primitive delivery accounting (no-op when uninstrumented).
        self._delivered_ctr = (obs or NULL_OBS).metrics.counter(
            "broadcast.delivered", primitive=primitive
        )

    def state(self, digest: Digest) -> InstanceState:
        inst = self._instances.get(digest)
        if inst is None:
            inst = self._instances[digest] = InstanceState()
        return inst

    def state_for_vote(self, digest: Digest, round_: int) -> InstanceState:
        """The instance an ECHO/READY for ``digest`` is tallied in.

        A vote's round is a claim by its sender: it stamps the instance
        only while no body is recorded, and only upward, so a Byzantine
        vote naming an old round can never make :meth:`gc_below` evict a
        live instance (body, ready flag and votes), and honest votes that
        arrive after such a lie still correct it."""
        # Not ``self.state(digest)``: this runs once per vote, and a second
        # Python call is a fifth of what a vote costs.
        inst = self._instances.get(digest)
        if inst is None:
            inst = self._instances[digest] = InstanceState()
        if inst.body is None and round_ > inst.round:
            inst.round = round_
        return inst

    def peek(self, digest: Digest) -> Optional[InstanceState]:
        return self._instances.get(digest)

    def record_body(self, block: Block) -> InstanceState:
        inst = self.state(block.digest)
        if inst.body is None:
            inst.body = block
        inst.round = block.round
        return inst

    def gc_below(self, horizon: int) -> int:
        """Drop instances of rounds below ``horizon``; returns the count.

        Safety: the caller's horizon sits ``gc_depth`` + a wave below the
        settled commit frontier, so those instances can never influence a
        future delivery decision here.  A straggler message for a pruned
        digest merely recreates an empty stub (no body, not ready — it
        cannot deliver), which the next sweep removes again because the
        message stamps the same old round.  Instances whose round is
        still unknown (-1) are kept — they are transient, bounded by the
        in-flight message population.
        """
        instances = self._instances
        stale = [
            digest
            for digest, inst in instances.items()
            if 0 <= inst.round < horizon
        ]
        for digest in stale:
            del instances[digest]
        return len(stale)

    def mark_ready(self, digest: Digest) -> InstanceState:
        """Protocol signal: the block passed validation and the ancestor
        gate.  Triggers delivery if the predicate is already met."""
        inst = self.state(digest)
        inst.ready = True
        return inst

    def try_deliver(self, inst: InstanceState, predicate_met: bool) -> bool:
        """Deliver exactly once when ready + body + predicate all hold."""
        if inst.delivered or not inst.ready or inst.body is None or not predicate_met:
            return False
        inst.delivered = True
        self._delivered_ctr.inc()
        self._on_deliver(inst.body)
        return True

    def is_delivered(self, digest: Digest) -> bool:
        inst = self._instances.get(digest)
        return inst is not None and inst.delivered
