"""Codec for blocks and their nested structures.

Encodes :class:`~repro.dag.block.Block` (with payload, signature, embedded
Byzantine proofs and Rule-4 determinations) and verifies on decode that
the transported digest matches a recomputation — a peer cannot ship a
block whose identity disagrees with its content.
"""

from __future__ import annotations

from ..core.proofs import MAX_PROOF_DEPTH, ByzantineProof
from ..crypto.hashing import intern_digest
from ..crypto.schnorr import SchnorrSignature
from ..dag.block import Block, TxBatch, compute_block_digest
from .primitives import CodecError, Reader, Writer

_SIG_NONE = 0
_SIG_BYTES = 1
_SIG_SCHNORR = 2


def encode_signature(w: Writer, signature: object) -> None:
    """Write the tagged signature union (none / MAC bytes / Schnorr)."""
    if signature is None:
        w.byte(_SIG_NONE)
    elif isinstance(signature, bytes):
        w.byte(_SIG_BYTES)
        w.lp_bytes(signature)
    elif isinstance(signature, SchnorrSignature):
        w.byte(_SIG_SCHNORR)
        w.bigint(signature.R)
        w.bigint(signature.s)
    else:
        raise CodecError(f"unknown signature type {type(signature).__name__}")


def decode_signature(r: Reader) -> object:
    """Read the tagged signature union written by :func:`encode_signature`."""
    tag = r.byte()
    if tag == _SIG_NONE:
        return None
    if tag == _SIG_BYTES:
        return r.lp_bytes()
    if tag == _SIG_SCHNORR:
        return SchnorrSignature(R=r.bigint(), s=r.bigint())
    raise CodecError(f"unknown signature tag {tag}")


def encode_batch(w: Writer, batch: TxBatch) -> None:
    """Write a TxBatch (counts, timing summary, optional real items)."""
    w.uvarint(batch.count)
    w.uvarint(batch.tx_size)
    w.double(batch.submit_time_sum)
    w.uvarint(len(batch.sample))
    for t in batch.sample:
        w.double(t)
    w.uvarint(len(batch.items))
    for item in batch.items:
        w.lp_bytes(item)


def decode_batch(r: Reader) -> TxBatch:
    """Read a TxBatch written by :func:`encode_batch`."""
    count = r.uvarint()
    tx_size = r.uvarint()
    submit_sum = r.double()
    sample = tuple(r.double() for _ in range(r.uvarint()))
    items = tuple(r.lp_bytes() for _ in range(r.uvarint()))
    return TxBatch(
        count=count, tx_size=tx_size, submit_time_sum=submit_sum,
        sample=sample, items=items,
    )


def encode_block(w: Writer, block: Block) -> None:
    """Write a full block (parents, payload, proofs, determinations, sig)."""
    w.uvarint(block.round)
    w.uvarint(block.author)
    w.uvarint(len(block.parents))
    for parent in block.parents:
        w.lp_bytes(parent)
    encode_batch(w, block.payload)
    w.uvarint(block.repropose_index)
    w.uvarint(len(block.byz_proofs))
    for proof in block.byz_proofs:
        encode_proof(w, proof)
    w.uvarint(len(block.determinations))
    for round_, author, digest in block.determinations:
        w.uvarint(round_)
        w.uvarint(author)
        w.lp_bytes(digest)
    encode_signature(w, block.signature)


def decode_block(r: Reader, depth: int = 0) -> Block:
    """Read a block (nested in ``depth`` proofs) and *recompute* its digest."""
    round_ = r.uvarint()
    author = r.uvarint()
    # Digest references are interned: at scale the same parent digest
    # arrives from up to n peers, and one canonical bytes object per
    # digest keeps the decoded DAG's reference graph from duplicating
    # 32-byte strings n times over.
    parents = tuple(intern_digest(r.lp_bytes()) for _ in range(r.uvarint()))
    payload = decode_batch(r)
    repropose_index = r.uvarint()
    proofs = tuple(decode_proof(r, depth + 1) for _ in range(r.uvarint()))
    determinations = tuple(
        (r.uvarint(), r.uvarint(), intern_digest(r.lp_bytes()))
        for _ in range(r.uvarint())
    )
    signature = decode_signature(r)
    digest = intern_digest(
        compute_block_digest(
            round_, author, parents, payload, repropose_index, proofs,
            determinations,
        )
    )
    return Block(
        round=round_,
        author=author,
        parents=parents,
        payload=payload,
        repropose_index=repropose_index,
        byz_proofs=proofs,
        determinations=determinations,
        digest=digest,
        signature=signature,
    )


def encode_proof(w: Writer, proof: ByzantineProof) -> None:
    """Write a Byzantine proof (culprit id + both conflicting blocks)."""
    if not isinstance(proof, ByzantineProof):
        raise CodecError(f"cannot encode proof of type {type(proof).__name__}")
    w.uvarint(proof.culprit)
    encode_block(w, proof.block_a)
    encode_block(w, proof.block_b)


def decode_proof(r: Reader, depth: int = 1) -> ByzantineProof:
    """Read a Byzantine proof written by :func:`encode_proof`."""
    if depth > MAX_PROOF_DEPTH:
        raise CodecError("proof nesting too deep")
    culprit = r.uvarint()
    block_a = decode_block(r, depth)
    block_b = decode_block(r, depth)
    return ByzantineProof(culprit=culprit, block_a=block_a, block_b=block_b)


def block_to_bytes(block: Block) -> bytes:
    """Standalone block encoding (tests, storage)."""
    w = Writer()
    encode_block(w, block)
    return w.getvalue()


def block_from_bytes(data: bytes) -> Block:
    """Standalone block decoding; rejects trailing bytes."""
    r = Reader(data)
    block = decode_block(r)
    r.expect_eof()
    return block
