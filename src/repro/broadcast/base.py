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

from collections.abc import Set as AbstractSet
from typing import Callable, Dict, Iterator, Optional, Set

from ..crypto.hashing import Digest
from ..dag.block import Block
from ..obs import NULL_OBS, Observability

DeliverCallback = Callable[[Block], None]


class SetView(AbstractSet):
    """Read-only, copy-free view over a live ``set``.

    ``echoers_of`` sits on the retrieval-fallback hot path (consulted per
    retry timer and per accepted block); copying the echoer set each call
    is Θ(n) garbage per query.  The view supports membership, iteration,
    length, and the standard set algebra via :class:`collections.abc.Set`,
    but exposes no mutators — callers cannot corrupt broadcast state.  It
    is *live*: membership and length reflect later echoes, which is
    exactly what a retrying retriever wants.  Iteration snapshots the
    target when it starts, so a caller that holds the view while echoes
    arrive iterates a consistent point-in-time set rather than raising
    ``set changed size during iteration``.
    """

    __slots__ = ("_target",)

    def __init__(self, target: "Set[int] | frozenset") -> None:
        self._target = target

    def __contains__(self, item: object) -> bool:
        return item in self._target

    def __iter__(self) -> Iterator:
        # Iteration is Θ(n) regardless; the tuple snapshot only adds a
        # constant factor while making held views safe to iterate across
        # mutations of the underlying echoer set.
        return iter(tuple(self._target))

    def __len__(self) -> int:
        return len(self._target)

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        # Set-algebra results (view & other, view | other, ...) are new
        # collections, not views — materialize them.
        return frozenset(it)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SetView({set(self._target)!r})"


#: Shared empty view for digests with no instance state.
EMPTY_SET_VIEW = SetView(frozenset())


class InstanceState:
    """Per-block broadcast state (slotted: one per block per replica, and
    every echo reads it)."""

    __slots__ = (
        "body", "ready", "delivered", "echoers", "readiers", "sent_ready", "round",
    )

    def __init__(self) -> None:
        self.body: Optional[Block] = None
        self.ready = False  # protocol accepted it (ancestors present, valid)
        self.delivered = False
        self.echoers: Set[int] = set()
        self.readiers: Set[int] = set()
        self.sent_ready = False
        #: DAG round of the block, stamped opportunistically from whichever
        #: message first reveals it (body, echo, ready); -1 = not yet known.
        #: Drives :meth:`InstanceTracker.gc_below` — without it the tracker
        #: retains every instance ever seen, which is what unbounds memory on
        #: long large-n runs.
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

    def echoers_of(self, digest: Digest) -> AbstractSet:
        """Replicas that echoed a digest — retrieval fallback targets: they
        are guaranteed (if non-faulty) to hold the body and its ancestors.

        Returns a live read-only :class:`SetView` (no per-call copy):
        membership/length track echoes as they arrive, and iteration
        snapshots at its start, so the view is safe to hold across
        message processing."""
        inst = self._instances.get(digest)
        return SetView(inst.echoers) if inst else EMPTY_SET_VIEW
