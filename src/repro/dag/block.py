"""Block structure shared by every protocol in the family.

A block is immutable once created; its identity is the SHA-256 hash of a
canonical encoding of all consensus-relevant fields.  Transactions are
modeled by :class:`TxBatch` — the simulator never carries client payload
bytes, only the *count*, the *byte size*, and enough timing information to
compute commit latency exactly (sum of submit times) plus a bounded sample
for percentile estimates.

LightDAG2-specific fields (``repropose_index``, ``byz_proofs``) default to
empty so LightDAG1 and the baselines pay nothing for them; they participate
in the block hash, which is what makes an original block and its
reproposal distinct blocks in the same slot (the ``j`` superscript of
§III-D).  The slot annotations of the paper's Rule 4 are not carried: the
commit path would never read them (DESIGN.md "Known paper ambiguities").
A block in a wave's last round under a coin protocol carries its author's
GPC share for that wave (``coin_share``), hashed and signed with the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..crypto.coin import CoinShare, share_bytes
from ..crypto.hashing import Digest, block_preimage, hash_bytes
# Kept importable from here: benchmarks/suite/test_suite.py checks that the
# suite's tracer reaches ``hash_fields`` through this by-name import.
from ..crypto.hashing import hash_fields  # noqa: F401
from ..net import sizes

#: Round number of the implicit genesis blocks every replica starts from.
GENESIS_ROUND = 0

#: Max per-batch submit-time samples kept for percentile estimation.
_SAMPLE_CAP = 16


@dataclass(frozen=True)
class TxBatch:
    """Modeled transaction batch.

    Attributes
    ----------
    count:
        Number of transactions in the batch.
    tx_size:
        Bytes per transaction (for the bandwidth model).
    submit_time_sum:
        Sum of the client submit timestamps of all transactions; with the
        commit time ``T`` this yields the exact mean latency
        ``T - submit_time_sum / count`` without storing every timestamp.
    sample:
        Up to :data:`_SAMPLE_CAP` individual submit times for percentile
        estimation (deterministic stride sample, not random).
    items:
        Optional real transaction payloads.  The benchmarks model payload
        analytically (count/size only); applications built on the library —
        e.g. the replicated KV store example — put actual command bytes
        here, and the committed ledger delivers them in total order.
    """

    count: int
    tx_size: int
    submit_time_sum: float = 0.0
    sample: Tuple[float, ...] = ()
    items: Tuple[bytes, ...] = ()

    @classmethod
    def from_times(cls, times: Sequence[float], tx_size: int) -> "TxBatch":
        if not times:
            return cls(count=0, tx_size=tx_size)
        stride = max(1, len(times) // _SAMPLE_CAP)
        return cls(
            count=len(times),
            tx_size=tx_size,
            submit_time_sum=float(sum(times)),
            sample=tuple(times[::stride][:_SAMPLE_CAP]),
        )

    @property
    def byte_size(self) -> int:
        return self.count * self.tx_size

    def mean_submit_time(self) -> float:
        return self.submit_time_sum / self.count if self.count else 0.0

    # Batches are frozen values; snapshot/restore (repro.net.simulator.
    # SimulatorSnapshot) must share them rather than fork per branch.
    def __copy__(self) -> "TxBatch":
        return self

    def __deepcopy__(self, memo) -> "TxBatch":
        return self


EMPTY_BATCH = TxBatch(count=0, tx_size=0)


@dataclass(frozen=True)
class Block:
    """One DAG block.  Construct through :func:`make_block` (computes id)."""

    round: int
    author: int
    parents: Tuple[Digest, ...]
    payload: TxBatch = EMPTY_BATCH
    #: LightDAG2: reproposal index j within the slot (0 = original proposal).
    repropose_index: int = 0
    #: LightDAG2 Rule 2/3: embedded Byzantine proofs (objects exposing a
    #: ``digest`` attribute; see :class:`repro.core.proofs.ByzantineProof`).
    byz_proofs: Tuple[object, ...] = ()
    #: The author's GPC share for the wave whose last round this is (coin
    #: protocols only; None everywhere else).
    coin_share: Optional[CoinShare] = None
    #: Filled in by make_block; identity of the block.
    digest: Digest = b""
    #: Author's signature over the digest (backend-specific object).
    signature: object = None
    #: The DAG position ``(round, author)`` this block occupies.  Derived,
    #: built once at construction: validation and the per-parent loops read
    #: it once per parent per recipient, and a plain attribute costs no
    #: call.  ``compare=False`` keeps it out of ``==`` and ``hash``.
    slot: Tuple[int, int] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slot", (self.round, self.author))

    @property
    def is_genesis(self) -> bool:
        return self.round == GENESIS_ROUND

    def wire_size(self) -> int:
        """Modeled encoded size (see :mod:`repro.net.sizes`).

        Memoized on the instance: a block's size is consulted once per
        recipient per hop (VAL fan-out, retrieval responses, proof
        messages), and the block is frozen so the value can never go
        stale.
        """
        size = self.__dict__.get("_wire_size")
        if size is None:
            size = sizes.block_wire_size(
                num_parents=len(self.parents),
                num_txs=self.payload.count,
                tx_size=self.payload.tx_size,
                num_proofs=len(self.byz_proofs),
            )
            object.__setattr__(self, "_wire_size", size)
        return size

    # Blocks are immutable (the ``_wire_size`` memo and the positive verdicts
    # ``_well_formed`` (dag.validation) and ``_digest_checked`` (core.
    # retrieval) are idempotent caches of pure functions); simulator
    # snapshots share them across branches instead of deep-copying — identity
    # of a block never matters, only its digest, so aliasing between
    # branches is safe and keeps snapshots O(state).
    def __copy__(self) -> "Block":
        return self

    def __deepcopy__(self, memo) -> "Block":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block(r={self.round}, a={self.author}, j={self.repropose_index}, "
            f"id={self.digest.hex()[:8]}, txs={self.payload.count})"
        )


def compute_block_digest(block: Block) -> Digest:
    """The digest ``block``'s fields hash to (its own ``digest`` unread):
    the one derivation :func:`make_block`, the codec and retrieval's digest
    pinning share.  Canonical and injective: ``hash_fields("block", ...)``
    over the fields, the share as an 11th only when present, its preimage
    built flat by :func:`~repro.crypto.hashing.block_preimage`.

    The payload contributes its count/size and timing summary; carrying the
    actual bytes would only slow the simulator without changing behaviour.
    Timing floats are part of identity (as their ``repr``) so two batches
    created at different times hash differently (bit-exact determinism per
    seed).
    """
    payload = block.payload
    share = block.coin_share
    return hash_bytes(block_preimage(
        block.round, block.author, block.parents, payload.count, payload.tx_size,
        repr(payload.submit_time_sum), payload.items, block.repropose_index,
        [p.digest for p in block.byz_proofs],
        None if share is None else share_bytes(share),
    ))


def make_block(
    round_: int,
    author: int,
    parents: Sequence[Digest],
    payload: TxBatch = EMPTY_BATCH,
    repropose_index: int = 0,
    byz_proofs: Sequence[Digest] = (),
    coin_share: Optional[CoinShare] = None,
    signer=None,
) -> Block:
    """Create a block, compute its digest, and optionally sign it."""
    block = Block(
        round=round_,
        author=author,
        parents=tuple(parents),
        payload=payload,
        repropose_index=repropose_index,
        byz_proofs=tuple(byz_proofs),
        coin_share=coin_share,
    )
    # Sealed before anyone else holds a reference: the one place a new
    # block's identity is written (the codec's decoder is the other).
    digest = compute_block_digest(block)
    object.__setattr__(block, "digest", digest)
    if signer is not None:
        object.__setattr__(block, "signature", signer.sign(digest))
    return block


def genesis_block(author: int) -> Block:
    """The implicit round-0 block of ``author``; identical at every replica."""
    return make_block(GENESIS_ROUND, author, parents=())
