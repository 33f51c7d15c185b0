"""Commit & sort (§IV-B, Algorithm 1) as a deterministic reading of the DAG.

:class:`CommitRule` is the only implementation of direct commit, the
Algorithm 1 cascade and the commit scope, for all five protocols.  It sees
a :class:`~repro.dag.store.DagStore`, the wave geometry, the leader table
and three numbers — never the network, timers, broadcast state or the coin
— so ordering is a function of *which blocks are delivered and which
leaders are known*, not of how either came about.  A protocol differs from
another here only by ``support_depth`` and ``support_threshold``.

A leader slot may hold several blocks (LightDAG2's PBC rounds permit
equivocation), so the rule always ranges over the slot's candidates; under
a strict store there is at most one and the loops run once.

Cascade determinism: replicas may *directly* commit different subsets of
leaders (support observation is local), but Lemma 1 totally orders
directly-committable leaders by ancestry, so "walk back to the last
committed leader, keeping each leader the one kept above it references"
yields the same leader sequence — hence the same ledger — everywhere.
After committing wave ``v`` the rule marks waves ``≤ v`` *settled* and
never direct-commits them later (their leaders were either cascaded in or
provably non-committable).
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Dict, Iterator, List, NamedTuple, Optional, Set

from ..crypto.hashing import Digest
from ..dag.block import Block
from ..dag.rounds import WaveStructure
from ..dag.store import DagStore
from ..dag.traversal import ancestors_of, is_ancestor, uncommitted_ancestors


class Commit(NamedTuple):
    """One leader to commit: its uncommitted ancestry in §IV-B order.

    ``kind`` is ``"cascade"`` for a skipped leader committed through a
    later one and ``"direct"`` for the leader that gathered the support;
    every cascade ends with its one direct commit.
    """

    leader: Block
    wave: int
    kind: str
    blocks: List[Block]


def references_within(store: DagStore, block: Block, target: Digest, depth: int) -> bool:
    """Does ``block`` reach ``target`` in at most ``depth`` parent hops?"""
    frontier = {block.digest}
    for _ in range(depth):
        next_frontier: Set[Digest] = set()
        for digest in frontier:
            holder = store.get_optional(digest)
            if holder is None:
                continue
            for parent in holder.parents:
                if parent == target:
                    return True
                next_frontier.add(parent)
        frontier = next_frontier
    return False


class CommitRule:
    """Direct commit + cascade + scope over one replica's DAG.

    ``leaders`` (wave → leader slot) and ``committed`` (digests already in
    the ledger) are live views the owner updates; the rule only reads them
    (and drops settled waves in :meth:`forget_settled`).
    :meth:`block_delivered` and :meth:`leader_known` are lazy: the
    caller must add each yielded :class:`Commit`'s blocks to ``committed``
    before asking for the next, because a later leader's scope excludes
    what an earlier one took.
    """

    def __init__(
        self,
        store: DagStore,
        wave: WaveStructure,
        leaders: Dict[int, int],
        committed: AbstractSet,
        *,
        support_depth: int,
        support_threshold: int,
        gc_depth: Optional[int] = None,
        cascade: bool = True,
    ) -> None:
        self.store = store
        self.wave = wave
        self.leaders = leaders
        self.committed = committed
        #: rounds between a wave's leader round and its support round
        self.support_depth = support_depth
        #: distinct supporting authors a direct commit needs
        self.support_threshold = support_threshold
        self.gc_depth = gc_depth
        #: Algorithm 1's indirect commits; off only in the oracle self-test
        #: mutant that shows the oracles notice their absence.
        self.cascade = cascade
        self.committed_leader_waves: Set[int] = set()
        self.last_settled_wave = 0
        self._deferred: Set[int] = set()

    # ---------------------------------------------------------------- events

    def block_delivered(self, block: Block) -> Iterator[Commit]:
        """A block entered the store: it may be a leader or a supporter."""
        for wave_num, e in self.wave.waves_containing(block.round):
            if (e == 1 or e == 1 + self.support_depth) and wave_num in self.leaders:
                yield from self._try_direct(wave_num)

    def leader_known(self, wave_num: int) -> Iterator[Commit]:
        """``leaders[wave_num]`` was just filled in: the wave itself may
        commit, and so may any cascade that was waiting on this leader."""
        yield from self._try_direct(wave_num)
        for deferred in sorted(self._deferred):
            yield from self._try_direct(deferred)

    # ------------------------------------------------------------- the rule

    def support(self, wave_num: int, candidate: Block) -> int:
        """Distinct authors in the support round with any delivered block
        that references ``candidate`` within ``support_depth`` hops."""
        support_round = self.wave.first_round(wave_num) + self.support_depth
        count = 0
        for author in self.store.authors_in_round(support_round):
            for supporter in self.store.blocks_in_slot(support_round, author):
                if references_within(
                    self.store, supporter, candidate.digest, self.support_depth
                ):
                    count += 1
                    break
        return count

    def candidates(self, wave_num: int) -> List[Block]:
        """Delivered blocks in the wave's leader slot, first-delivered first."""
        leader = self.leaders.get(wave_num)
        if leader is None:
            return []
        return self.store.blocks_in_slot(self.wave.first_round(wave_num), leader)

    def _try_direct(self, wave_num: int) -> Iterator[Commit]:
        if (
            wave_num <= self.last_settled_wave
            or wave_num in self.committed_leader_waves
        ):
            self._deferred.discard(wave_num)
            return
        for candidate in self.candidates(wave_num):
            if self.support(wave_num, candidate) >= self.support_threshold:
                yield from self._cascade(wave_num, candidate)
                return

    def _cascade(self, v: int, leader_v: Block) -> Iterator[Commit]:
        """Algorithm 1: walk back from ``leader_v`` to the last committed
        leader, keeping each wave's leader that the one kept *above it*
        references, then commit those in wave order, then wave ``v``."""
        u = max((w for w in self.committed_leader_waves if w < v), default=0)
        for w in range(u + 1, v):
            if w not in self.leaders:
                # Cannot yet decide whether wave w's leader must be cascaded
                # in; defer the whole cascade until that leader is known.
                self._deferred.add(v)
                return
        self._deferred.discard(v)
        if self.cascade:
            # The anchor moves down the chain: a skipped leader is judged
            # by the next committed leader above it, which every replica
            # agrees on, not by whichever ``leader_v`` this replica happened
            # to commit directly first.
            chain, anchor = [], leader_v
            for w in range(v - 1, u, -1):
                candidate = self._cascade_candidate(w, anchor)
                if candidate is not None:
                    chain.append((candidate, w))
                    anchor = candidate
            for candidate, w in reversed(chain):
                yield self._commit(candidate, w, "cascade")
        self.last_settled_wave = max(self.last_settled_wave, v)
        yield self._commit(leader_v, v, "direct")

    def _cascade_candidate(self, w: int, anchor: Block) -> Optional[Block]:
        """The wave-``w`` leader block to commit indirectly through
        ``anchor``, or None if the wave must stay skipped (Fig. 5/6).
        Among several blocks in the slot Lemma 4 makes at most one
        reachable; the sort is a deterministic tie-break regardless."""
        for candidate in sorted(
            self.candidates(w), key=lambda b: (b.repropose_index, b.digest)
        ):
            if is_ancestor(candidate.digest, anchor, self.store):
                return candidate
        return None

    def _commit(self, leader: Block, wave_num: int, kind: str) -> Commit:
        self.committed_leader_waves.add(wave_num)
        return Commit(leader, wave_num, kind, self.scope(leader))

    def scope(self, leader: Block) -> List[Block]:
        """The blocks this leader commits: uncommitted ancestors, bounded
        below by the deterministic GC horizon when one is configured.

        The horizon depends only on the leader's round, so every replica
        commits the identical set regardless of local pruning state."""
        committed = self.committed
        if self.gc_depth is None:
            return uncommitted_ancestors(leader, self.store, committed)
        floor = leader.round - self.gc_depth
        scope = [
            block
            for block in ancestors_of(
                leader,
                self.store,
                stop=lambda b: b.digest in committed or b.round < floor,
            )
            if not block.is_genesis
        ]
        scope.sort(key=lambda b: (b.round, b.author, b.repropose_index))
        return scope

    # ------------------------------------------------------------------- GC

    def forget_settled(self) -> None:
        """Drop wave-keyed state strictly below the settled frontier: those
        waves are decided forever.  The frontier wave itself must survive —
        the cascade anchors on ``max(committed < v)``."""
        floor = self.last_settled_wave
        for wave_num in [w for w in self.leaders if w < floor]:
            del self.leaders[wave_num]
        self.committed_leader_waves = {
            w for w in self.committed_leader_waves if w >= floor
        }
        self._deferred = {w for w in self._deferred if w >= floor}
