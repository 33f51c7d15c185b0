"""The committed ledger.

Commitment assigns every block a position in a totally ordered sequence —
the object the safety property speaks about ("two non-faulty replicas
commit blocks B and B' at the same position ⇒ B = B'", §II-A).  That
property is stated over positions and the block identities at them, so the
ledger keeps one :class:`LedgerEntry` per position and never the
:class:`~repro.dag.block.Block`: the commit metadata (position, commit
time, the leader that triggered the commit and its index), the header
fields the post-run oracles read (digest, round, author, parents,
signature) and the payload's transaction count.

Keeping headers rather than blocks is what lets a committed block's body —
payload batch, coin share, proofs, memoized encodings — be freed once
:meth:`~repro.dag.store.DagStore.prune_below` drops it; a ledger that held
every block grew by the whole block per position for the entire run.  The
block itself reaches the ``on_commit`` hooks (the metrics layer, the
replicated state machine, the online monitor) as the :class:`CommitRecord`
that :meth:`Ledger.append` returns, once, at commit time.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Set

from ..crypto.hashing import Digest, short_hex
from ..errors import ProtocolError
from .block import Block


class CommitRecord(NamedTuple):
    """One committed block with its position and provenance, as the commit
    hooks see it.  The ledger keeps a :class:`LedgerEntry` instead.

    A named tuple, not a dataclass: every append builds one next to its
    entry, and a tuple is the cheapest immutable record to build.
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


class LedgerEntry:
    """What the ledger keeps of one committed block (read-only by contract).

    Slotted, and holding only references the block's header already owns,
    so a position costs one small object plus the parents tuple.
    """

    __slots__ = (
        "position", "commit_time", "via_leader", "leader_index",
        "digest", "round", "author", "parents", "signature", "count",
    )

    def __init__(
        self, position: int, block: Block, commit_time: float,
        via_leader: Digest, leader_index: int,
    ) -> None:
        self.position = position
        self.commit_time = commit_time
        self.via_leader = via_leader
        self.leader_index = leader_index
        self.digest = block.digest
        self.round = block.round
        self.author = block.author
        self.parents = block.parents
        self.signature = block.signature
        #: Transactions in the block's payload.
        self.count = block.payload.count


class Ledger:
    """Append-only committed sequence with O(1) membership checks."""

    def __init__(self) -> None:
        self._records: List[LedgerEntry] = []
        self._committed: Set[Digest] = set()
        self._leader_count = 0
        self._trace = None
        self._trace_node = -1

    def bind_trace(self, trace, node_id: int) -> None:
        """Attach a tracer so appends emit ``trace.ordered`` spans.

        Called by the owning node when tracing is on; the default (no
        tracer) keeps :meth:`append` branch-only, per the obs budget.
        """
        self._trace = trace
        self._trace_node = node_id

    # -- appends ---------------------------------------------------------------

    def begin_leader(self) -> int:
        """Start a new committed-leader index ``k`` and return it."""
        self._leader_count += 1
        return self._leader_count - 1

    def append(
        self, block: Block, commit_time: float, via_leader: Digest, leader_index: int
    ) -> CommitRecord:
        """Commit one block at the next position.

        Keeps a :class:`LedgerEntry`; returns the :class:`CommitRecord`,
        block included, for the caller's commit hooks.
        """
        if block.digest in self._committed:
            raise ProtocolError(
                f"block {block.digest.hex()[:8]} committed twice"
            )
        position = len(self._records)
        self._records.append(
            LedgerEntry(position, block, commit_time, via_leader, leader_index)
        )
        self._committed.add(block.digest)
        if self._trace is not None:
            self._trace.emit(
                commit_time, "trace.ordered", self._trace_node,
                digest=short_hex(block.digest), round=block.round,
                author=block.author, position=position,
                leader_index=leader_index,
            )
        return CommitRecord(
            position=position,
            block=block,
            commit_time=commit_time,
            via_leader=via_leader,
            leader_index=leader_index,
        )

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self._records)

    def __contains__(self, digest: Digest) -> bool:
        return digest in self._committed

    @property
    def committed_digests(self) -> Set[Digest]:
        """Live view of all committed digests (do not mutate)."""
        return self._committed

    @property
    def leader_count(self) -> int:
        return self._leader_count

    def record_at(self, position: int) -> LedgerEntry:
        return self._records[position]

    def last(self) -> Optional[LedgerEntry]:
        return self._records[-1] if self._records else None

    def digest_sequence(self) -> List[Digest]:
        """The ordered digest list — what cross-replica safety compares."""
        return [r.digest for r in self._records]

    def total_transactions(self) -> int:
        return sum(r.count for r in self._records)


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
    sequences = [ledger.digest_sequence() for ledger in ledgers]
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
