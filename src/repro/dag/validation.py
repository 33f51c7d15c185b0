"""Structural block validation.

Checks applied when a block first arrives (before echoing/voting in CBC,
before delivering in PBC).  They encode the DAG well-formedness rules every
protocol shares, which for LightDAG2 are exactly Rule 1 of §V-A:

* the round is positive;
* a round-``r`` block directly references at least ``n - f`` blocks **from
  round ``r - 1``** — parents from other rounds are invalid;
* each referenced parent occupies a **distinct slot** (a block may not
  reference two contradictory blocks of the same equivocator, Fig. 8a);
* the author signature verifies (when a backend is supplied).

Parent-slot checks need the parent blocks themselves; callers run retrieval
first so that all parents are present (§IV-A), then validate.

A *positive* verdict over caller-resolved parents is recorded on the block
object, keyed by the parameters it was reached under, so replicas handed the
same object walk its parents once between them; rejections are recomputed
on every arrival (the sharing rule: :mod:`repro.crypto.memo`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SystemConfig
from ..errors import InvalidBlockError, UnknownBlockError
from .block import Block
from .store import DagStore


#: One key object per parameter set: a recorded verdict keeps its key alive,
#: and over TCP every replica holds (and checks) block objects of its own.
_VERDICT_KEYS: dict = {}


def validate_block_structure(
    block: Block,
    store: DagStore,
    system: SystemConfig,
    backend=None,
    min_parents: Optional[int] = None,
    allow_weak: bool = False,
    max_weak: int = 8,
    parents: Optional[Sequence[Optional[Block]]] = None,
) -> None:
    """Raise :class:`InvalidBlockError` unless ``block`` is well-formed.

    ``min_parents`` defaults to the availability quorum ``n - f`` and
    counts only *strong* parents (previous round).  With ``allow_weak``,
    up to ``max_weak`` additional parents from older rounds are accepted
    (DAG-Rider weak links); without it, every parent must sit exactly one
    round back.  Raises :class:`UnknownBlockError` if a parent is missing
    from the store (callers translate this into a retrieval request, not
    a rejection).  A caller that has already looked the parents up passes
    them as ``parents`` (``block.parents`` order, None where missing).
    """
    required = system.quorum if min_parents is None else min_parents
    params = (system.n, required, allow_weak, max_weak)
    resolved = parents is not None and all(parents)  # no gap in *this* store
    if not resolved or block.__dict__.get("_well_formed") != params:
        _check_structure(block, store, params, parents)
        if resolved:
            key = _VERDICT_KEYS.setdefault(params, params)
            object.__setattr__(block, "_well_formed", key)
    if backend is not None:
        if not backend.verify(block.author, block.digest, block.signature):
            raise InvalidBlockError(
                f"bad signature on block {block.digest.hex()[:8]} "
                f"claimed by author {block.author}"
            )


def _check_structure(block: Block, store: DagStore, params: tuple, parents) -> None:
    """The structural rules proper: everything but the signature."""
    n, required, allow_weak, max_weak = params
    if block.round < 1:
        raise InvalidBlockError(f"block round must be >= 1, got {block.round}")
    if not 0 <= block.author < n:
        raise InvalidBlockError(f"unknown author {block.author}")
    if block.repropose_index < 0:
        raise InvalidBlockError("negative repropose index")

    if len(set(block.parents)) != len(block.parents):
        raise InvalidBlockError("duplicate parent reference")

    if parents is None:
        parents = [store.get_optional(digest) for digest in block.parents]
    previous_round = block.round - 1
    seen_slots = set()
    strong = 0
    weak = 0
    for parent_digest, parent in zip(block.parents, parents):
        if parent is None:
            raise UnknownBlockError(
                f"parent {parent_digest.hex()[:8]} of block "
                f"{block.digest.hex()[:8]} not delivered"
            )
        if parent.round == previous_round:
            strong += 1
        elif allow_weak and 0 <= parent.round < previous_round:
            weak += 1
        else:
            raise InvalidBlockError(
                f"parent {parent_digest.hex()[:8]} is in round {parent.round}, "
                f"block is in round {block.round}"
            )
        if parent.slot in seen_slots:
            # Rule 1 / Fig. 8a: two contradictory blocks of one slot.
            raise InvalidBlockError(
                f"block {block.digest.hex()[:8]} references two blocks in "
                f"slot {parent.slot}"
            )
        seen_slots.add(parent.slot)

    if strong < required:
        raise InvalidBlockError(
            f"block {block.digest.hex()[:8]} has {strong} previous-round "
            f"parents, needs >= {required}"
        )
    if weak > max_weak:
        raise InvalidBlockError(
            f"block {block.digest.hex()[:8]} carries {weak} weak references, "
            f"cap is {max_weak}"
        )


def has_all_parents(block: Block, store: DagStore) -> bool:
    """Cheap completeness probe used before attempting full validation."""
    return all(p in store for p in block.parents)
