"""The committed ledger.

Commitment assigns every block a position in a totally ordered sequence —
the object the safety property speaks about ("two non-faulty replicas
commit blocks B and B' at the same position ⇒ B = B'", §II-A).  That
property is stated over positions and the block identities at them, so the
ledger keeps, per position, only what the post-run oracles read: the commit
metadata (commit time, the leader that triggered the commit and its index),
the header fields (digest, round, author, parents, signature) and the
payload's transaction count — never the :class:`~repro.dag.block.Block`.

Storage is columnar (:class:`LedgerColumns`): the position is the index,
the numbers sit unboxed in :mod:`array` columns, and the digests, parent
tuples, signatures and leader digests are lists of references to objects
the block already owns (digests and parent tuples are shared across
replicas in the simulator, so copying them into a byte buffer would cost
memory, not save it).  A :class:`LedgerEntry` is built on read — by
iteration, :meth:`Ledger.record_at` and :meth:`Ledger.last` — and the
oracles read the columns directly, never every entry at once.

Keeping headers rather than blocks is what lets a committed block's body be
freed once :meth:`~repro.dag.store.DagStore.prune_below` drops it.  The
block itself reaches the ``on_commit`` hooks (the metrics layer, the
replicated state machine, the online monitor) as the :class:`CommitRecord`
that :meth:`Ledger.append` returns, once, at commit time.

The committed-digest set (the commit rule's and the double-commit check's
membership test) forgets what garbage collection has settled:
:meth:`Ledger.shed_below` drops the digests of positions below the node's
GC horizon, after which :meth:`Ledger.append` refuses any block below that
horizon.  Nothing is shed unless ``gc_depth`` is set.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, NamedTuple, Optional, Set, Tuple

from ..crypto.hashing import Digest
from ..errors import ProtocolError
from .block import Block


class CommitRecord(NamedTuple):
    """One committed block with its position and provenance, as the commit
    hooks see it.  The ledger keeps its columns instead.

    A named tuple, not a dataclass: every append builds one, and a tuple is
    the cheapest immutable record to build.
    """

    position: int
    block: Block
    commit_time: float
    #: Digest of the (directly or indirectly committed) leader whose
    #: commitment pulled this block in; equals the block's own digest for
    #: leader blocks.
    via_leader: Digest
    #: Index k of the committed-leader sequence this block was ordered under.
    leader_index: int


class LedgerEntry(NamedTuple):
    """One position of the ledger, built on read from the columns."""

    position: int
    commit_time: float
    via_leader: Digest
    leader_index: int
    digest: Digest
    round: int
    author: int
    parents: Tuple[Digest, ...]
    signature: bytes
    #: Transactions in the block's payload.
    count: int


class LedgerColumns(NamedTuple):
    """The ledger's storage: one column per field, indexed by position.

    Live views — the oracles read them and must not mutate them.
    """

    commit_time: array  # 'd'
    round: array  # 'i'
    author: array  # 'i'
    count: array  # 'i'
    leader_index: array  # 'i'
    digest: List[Digest]
    parents: List[Tuple[Digest, ...]]
    signature: List[bytes]
    via_leader: List[Digest]


class Ledger:
    """Append-only committed sequence with O(1) membership checks above
    the shed horizon."""

    def __init__(self) -> None:
        self.columns = LedgerColumns(
            array("d"), array("i"), array("i"), array("i"), array("i"),
            [], [], [], [],
        )
        self._committed: Set[Digest] = set()
        self._leader_count = 0
        #: Blocks below this round are refused: their digests may be shed.
        self._shed_horizon = 0
        #: Every position before this one has had its digest shed.
        self._shed_cursor = 0

    # -- appends ---------------------------------------------------------------

    def begin_leader(self) -> int:
        """Start a new committed-leader index ``k`` and return it."""
        self._leader_count += 1
        return self._leader_count - 1

    def append(
        self, block: Block, commit_time: float, via_leader: Digest, leader_index: int
    ) -> CommitRecord:
        """Commit one block at the next position.

        Fills one row of the columns; returns the :class:`CommitRecord`,
        block included, for the caller's commit hooks.  Refuses a block
        already committed and any block below the shed horizon (whose
        digest the ledger may no longer remember).
        """
        digest = block.digest
        if digest in self._committed:
            raise ProtocolError(f"block {digest.hex()[:8]} committed twice")
        if block.round < self._shed_horizon:
            raise ProtocolError(
                f"block {digest.hex()[:8]} at round {block.round} is below "
                f"the ledger's shed horizon {self._shed_horizon}"
            )
        cols = self.columns
        position = len(cols.digest)
        cols.commit_time.append(commit_time)
        cols.round.append(block.round)
        cols.author.append(block.author)
        cols.count.append(block.payload.count)
        cols.leader_index.append(leader_index)
        cols.digest.append(digest)
        cols.parents.append(block.parents)
        cols.signature.append(block.signature)
        cols.via_leader.append(via_leader)
        self._committed.add(digest)
        return CommitRecord(position, block, commit_time, via_leader, leader_index)

    # -- garbage collection ----------------------------------------------------

    def shed_below(self, horizon: int) -> None:
        """Forget the committed digests of positions whose round is below
        ``horizon``, and refuse such blocks from now on.

        The set is shed in place (the commit rule holds the same object).
        Safe because no commit scope reaches below the node's GC horizon:
        every later leader's walk stops at ``leader.round - gc_depth``,
        which lies above it (see ``BaseDagNode._maybe_prune``).
        """
        if horizon <= self._shed_horizon:
            return
        self._shed_horizon = horizon
        rounds, digests, committed = self.columns.round, self.columns.digest, self._committed
        cursor, end = self._shed_cursor, len(digests)
        # Positions are only roughly round-ordered, so the cursor stops at
        # the first one still above the horizon and the rest of the tail is
        # swept too; the next call re-reads that tail from the cursor.
        while cursor < end and rounds[cursor] < horizon:
            committed.discard(digests[cursor])
            cursor += 1
        self._shed_cursor = cursor
        for position in range(cursor, end):
            if rounds[position] < horizon:
                committed.discard(digests[position])

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns.digest)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return map(self.record_at, range(len(self)))

    def __contains__(self, digest: Digest) -> bool:
        """Membership among committed digests not yet shed (every one, when
        nothing was shed)."""
        return digest in self._committed

    @property
    def committed_digests(self) -> Set[Digest]:
        """Live view of the committed digests not yet shed (do not mutate)."""
        return self._committed

    @property
    def shed_horizon(self) -> int:
        """Round below which digests may be shed and appends are refused."""
        return self._shed_horizon

    @property
    def leader_count(self) -> int:
        return self._leader_count

    def record_at(self, position: int) -> LedgerEntry:
        cols = self.columns
        return LedgerEntry(
            position, cols.commit_time[position], cols.via_leader[position],
            cols.leader_index[position], cols.digest[position],
            cols.round[position], cols.author[position],
            cols.parents[position], cols.signature[position],
            cols.count[position],
        )

    def last(self) -> Optional[LedgerEntry]:
        return self.record_at(len(self) - 1) if len(self) else None

    def digest_sequence(self) -> List[Digest]:
        """The ordered digest list — what cross-replica safety compares."""
        return list(self.columns.digest)

    def total_transactions(self) -> int:
        return sum(self.columns.count)


def check_prefix_consistency(ledgers: List[Ledger]) -> None:
    """Assert that every pair of ledgers agrees on their common prefix.

    This is the executable form of Theorems 2 and 6: non-faulty replicas
    may be at different commit depths, but where both have committed, they
    must have committed identically.  Raises :class:`ProtocolError` naming
    the first divergent position.

    Prefix agreement with a common reference is transitive, so instead of
    the O(R²·L) all-pairs scan it suffices to compare every ledger against
    the longest one (O(R·L)): if two ledgers each match the longest on
    their whole length, they match each other on their common prefix.
    """
    sequences = [ledger.columns.digest for ledger in ledgers]
    if len(sequences) < 2:
        return
    ref = max(range(len(sequences)), key=lambda i: len(sequences[i]))
    ref_seq = sequences[ref]
    for i, seq in enumerate(sequences):
        if i == ref:
            continue
        # Every non-reference ledger is no longer than the reference, so
        # its whole sequence is the common prefix.
        if seq == ref_seq[: len(seq)]:
            continue
        for pos, (mine, theirs) in enumerate(zip(seq, ref_seq)):
            if mine != theirs:
                a, b = sorted((i, ref))
                raise ProtocolError(
                    f"safety violation: ledgers {a} and {b} diverge at "
                    f"position {pos}: {sequences[a][pos].hex()[:8]} != "
                    f"{sequences[b][pos].hex()[:8]}"
                )
