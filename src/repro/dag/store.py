"""The local DAG store.

Each replica keeps every block it has *delivered* (in the broadcast-protocol
sense) in a :class:`DagStore`.  The store indexes blocks by digest and by
slot, tracks per-round delivery counts (the quorum trigger for round
advancement), and enforces the slot-uniqueness policy appropriate to the
protocol:

* ``strict=True`` — CBC/RBC regime (LightDAG1, baselines): the broadcast
  layer's consistency property makes a second distinct block in a slot a
  protocol violation, surfaced as :class:`EquivocationDetected`.
* ``strict=False`` — PBC regime (LightDAG2): multiple blocks per slot are
  expected; the store keeps all of them, ordered by arrival.

Genesis blocks (round 0, one per replica) are pre-inserted so that round-1
blocks can reference a full quorum of parents like any other round.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..crypto.hashing import Digest
from ..errors import EquivocationDetected, UnknownBlockError
from .block import Block, GENESIS_ROUND, genesis_block


class DagStore:
    """Digest- and slot-indexed storage of delivered blocks."""

    def __init__(self, n: int, strict: bool = True) -> None:
        self.n = n
        self.strict = strict
        self._by_digest: Dict[Digest, Block] = {}
        self._by_slot: Dict[Tuple[int, int], List[Digest]] = {}
        self._round_authors: Dict[int, set] = {}
        for author in range(n):
            self.add(genesis_block(author))

    # -- insertion -------------------------------------------------------------

    def add(self, block: Block) -> bool:
        """Insert a delivered block.  Returns False if already present.

        In strict mode a *different* block landing in an occupied slot
        raises :class:`EquivocationDetected` — under CBC/RBC consistency this
        can only happen if the broadcast layer is broken, so it is fatal.
        """
        if block.digest in self._by_digest:
            return False
        slot = block.slot
        existing = self._by_slot.get(slot)
        if existing and self.strict:
            raise EquivocationDetected(
                f"slot {slot} already holds {existing[0].hex()[:8]}, "
                f"refusing {block.digest.hex()[:8]} (strict store)"
            )
        self._by_digest[block.digest] = block
        self._by_slot.setdefault(slot, []).append(block.digest)
        self._round_authors.setdefault(block.round, set()).add(block.author)
        return True

    # -- lookups --------------------------------------------------------------

    def __contains__(self, digest: Digest) -> bool:
        return digest in self._by_digest

    def __len__(self) -> int:
        return len(self._by_digest)

    def get(self, digest: Digest) -> Block:
        try:
            return self._by_digest[digest]
        except KeyError:
            raise UnknownBlockError(f"block {digest.hex()[:8]} not in store") from None

    def get_optional(self, digest: Digest) -> Optional[Block]:
        return self._by_digest.get(digest)

    def missing(self, digests: Iterable[Digest]) -> List[Digest]:
        """Subset of ``digests`` not yet delivered (retrieval targets)."""
        return [d for d in digests if d not in self._by_digest]

    def block_in_slot(self, round_: int, author: int) -> Optional[Block]:
        """The unique block in a slot (first-delivered in permissive mode)."""
        digests = self._by_slot.get((round_, author))
        return self._by_digest[digests[0]] if digests else None

    def blocks_in_slot(self, round_: int, author: int) -> List[Block]:
        """All blocks delivered in a slot (≥ 2 only under PBC equivocation)."""
        return [self._by_digest[d] for d in self._by_slot.get((round_, author), ())]

    def slot_is_equivocated(self, round_: int, author: int) -> bool:
        return len(self._by_slot.get((round_, author), ())) > 1

    def blocks_in_round(self, round_: int) -> List[Block]:
        """All delivered blocks of a round, in slot order then arrival order."""
        result: List[Block] = []
        for author in sorted(self._round_authors.get(round_, ())):
            result.extend(self.blocks_in_slot(round_, author))
        return result

    def authors_in_round(self, round_: int) -> set:
        """Distinct authors with at least one delivered block in the round."""
        return set(self._round_authors.get(round_, ()))

    def round_author_count(self, round_: int) -> int:
        """Distinct-slot count for the round — the quorum-progress counter."""
        return len(self._round_authors.get(round_, ()))

    def highest_round(self) -> int:
        rounds = [r for r, authors in self._round_authors.items() if authors]
        return max(rounds) if rounds else GENESIS_ROUND

    # -- reference queries -----------------------------------------------------

    def parents_of(self, block: Block) -> List[Block]:
        """Parent blocks, in ``block.parents`` order; raises if any parent
        has not been delivered."""
        try:
            return list(map(self._by_digest.__getitem__, block.parents))
        except KeyError as exc:
            raise UnknownBlockError(
                f"block {exc.args[0].hex()[:8]} not in store"
            ) from None

    # -- garbage collection -------------------------------------------------------

    def prune_below(self, round_: int) -> int:
        """Physically drop all non-genesis blocks with round < ``round_``.

        Returns the number of blocks removed.  Callers are responsible for
        choosing a deterministic horizon (see ``ProtocolConfig.gc_depth``);
        traversals tolerate pruned parents (they skip missing digests).
        """
        removed = 0
        for r in [x for x in self._round_authors if 0 < x < round_]:
            for author in list(self._round_authors[r]):
                for digest in self._by_slot.pop((r, author), ()):  # noqa: B020
                    del self._by_digest[digest]
                    removed += 1
            del self._round_authors[r]
        return removed

    def lowest_retained_round(self) -> int:
        """Smallest non-genesis round still present (0 if none)."""
        rounds = [r for r in self._round_authors if r > 0]
        return min(rounds) if rounds else 0

    def direct_reference_count(self, target: Digest, from_round: int) -> int:
        """How many distinct-slot blocks of ``from_round`` list ``target`` as
        a parent (the §IV-B direct-commit support counter)."""
        count = 0
        for block in self.blocks_in_round(from_round):
            if target in block.parents:
                count += 1
        return count
