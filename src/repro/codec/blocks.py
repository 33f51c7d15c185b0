"""Codec for blocks and their nested structures.

Encodes :class:`~repro.dag.block.Block` (with payload, signature and
embedded Byzantine proofs) and verifies on decode that the transported
digest matches a recomputation — a peer cannot ship a block whose identity
disagrees with its content.

Nearly every frame carries a block, so each direction is one pass in one
function: :func:`block_to_bytes` collects the block's pieces and joins them
once, and :func:`decode_block` walks the buffer by index, reading one-byte
varints and length prefixes inline.  The layout is the
:mod:`~repro.codec.primitives` one, field by field::

    uvarint round, author, len(parents); lp_bytes parent...
    payload: uvarint count, tx_size; double submit_time_sum;
             uvarint len(sample); double t...; uvarint len(items); lp_bytes item...
    uvarint repropose_index, len(byz_proofs)
    proof...: uvarint culprit; block_a; block_b
    coin share, only if the block has one: byte 3, crypto.coin.share_bytes
    signature: byte 0 | byte 1, lp_bytes MAC | byte 2, bigint R, bigint s

The share's marker is a tag no signature uses, so a block without a share
spends no byte on it.

A malformed block raises :class:`CodecError` in every case a
:class:`~repro.codec.primitives.Reader` would: truncation, an overlong
varint, a length over :data:`MAX_LENGTH`, an unknown signature or coin
payload tag, proofs nested deeper than
:data:`~repro.core.proofs.MAX_PROOF_DEPTH`.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from ..core.proofs import MAX_PROOF_DEPTH, ByzantineProof
from ..crypto.coin import read_share, share_bytes
from ..crypto.hashing import intern_digest
from ..crypto.schnorr import SchnorrSignature
from ..dag.block import Block, TxBatch, compute_block_digest
from .primitives import (
    MAX_LENGTH, ONE_BYTE, CodecError, bigint_bytes, length_prefix, read_lp_bytes,
    read_uvarint, uvarint_bytes,
)

_SIG_NONE = 0
_SIG_BYTES = 1
_SIG_SCHNORR = 2
_COIN_SHARE = 3

_DOUBLE = struct.Struct("!d")


def _block_parts(out: List[bytes], block: Block) -> None:
    payload = block.payload
    sample = payload.sample
    out += (
        uvarint_bytes(block.round), uvarint_bytes(block.author),
        uvarint_bytes(len(block.parents)),
    )
    for parent in block.parents:
        out += (length_prefix(len(parent)), parent)
    out += (
        uvarint_bytes(payload.count), uvarint_bytes(payload.tx_size),
        _DOUBLE.pack(payload.submit_time_sum),
        uvarint_bytes(len(sample)), struct.pack(f"!{len(sample)}d", *sample),
        uvarint_bytes(len(payload.items)),
    )
    for item in payload.items:
        out += (length_prefix(len(item)), item)
    out += (uvarint_bytes(block.repropose_index), uvarint_bytes(len(block.byz_proofs)))
    for proof in block.byz_proofs:
        if not isinstance(proof, ByzantineProof):
            raise CodecError(f"cannot encode proof of type {type(proof).__name__}")
        out.append(uvarint_bytes(proof.culprit))
        _block_parts(out, proof.block_a)
        _block_parts(out, proof.block_b)
    if block.coin_share is not None:
        out += (ONE_BYTE[_COIN_SHARE], share_bytes(block.coin_share))
    signature = block.signature
    if signature is None:
        out.append(ONE_BYTE[_SIG_NONE])
    elif isinstance(signature, bytes):
        out += (ONE_BYTE[_SIG_BYTES], length_prefix(len(signature)), signature)
    elif isinstance(signature, SchnorrSignature):
        out += (
            ONE_BYTE[_SIG_SCHNORR], bigint_bytes(signature.R), bigint_bytes(signature.s),
        )
    else:
        raise CodecError(f"unknown signature type {type(signature).__name__}")


def block_to_bytes(block: Block) -> bytes:
    """The wire bytes of a full block (parents, payload, proofs, signature)."""
    out: List[bytes] = []
    _block_parts(out, block)
    return b"".join(out)


def _block_at(data: bytes, pos: int, depth: int) -> Tuple[Block, int]:
    end = len(data)
    round_ = data[pos]
    pos += 1
    if round_ >= 0x80:
        round_, pos = read_uvarint(data, pos - 1)
    author = data[pos]
    pos += 1
    if author >= 0x80:
        author, pos = read_uvarint(data, pos - 1)
    count = data[pos]
    pos += 1
    if count >= 0x80:
        count, pos = read_uvarint(data, pos - 1)
    # Digest references are interned: at scale the same parent digest
    # arrives from up to n peers, and one canonical bytes object per
    # digest keeps the decoded DAG's reference graph from duplicating
    # 32-byte strings n times over.
    parents = []
    for _ in range(count):
        n = data[pos]
        pos += 1
        if n >= 0x80:
            n, pos = read_uvarint(data, pos - 1)
            if n > MAX_LENGTH:
                raise CodecError(f"length prefix too large: {n}")
        if pos + n > end:
            raise CodecError(f"truncated input: wanted {n} bytes, have {end - pos}")
        parents.append(intern_digest(data[pos:pos + n]))
        pos += n

    tx_count = data[pos]
    pos += 1
    if tx_count >= 0x80:
        tx_count, pos = read_uvarint(data, pos - 1)
    tx_size = data[pos]
    pos += 1
    if tx_size >= 0x80:
        tx_size, pos = read_uvarint(data, pos - 1)
    (submit_sum,) = _DOUBLE.unpack_from(data, pos)
    pos += 8
    count = data[pos]
    pos += 1
    if count >= 0x80:
        count, pos = read_uvarint(data, pos - 1)
    if pos + 8 * count > end:
        raise CodecError(f"truncated input: {count} samples, have {end - pos} bytes")
    sample = struct.unpack_from(f"!{count}d", data, pos)
    pos += 8 * count
    count = data[pos]
    pos += 1
    if count >= 0x80:
        count, pos = read_uvarint(data, pos - 1)
    items = []
    for _ in range(count):
        item, pos = read_lp_bytes(data, pos)
        items.append(item)
    payload = TxBatch(
        count=tx_count, tx_size=tx_size, submit_time_sum=submit_sum,
        sample=sample, items=tuple(items),
    )

    repropose_index = data[pos]
    pos += 1
    if repropose_index >= 0x80:
        repropose_index, pos = read_uvarint(data, pos - 1)
    count = data[pos]
    pos += 1
    if count >= 0x80:
        count, pos = read_uvarint(data, pos - 1)
    proofs = []
    for _ in range(count):
        if depth >= MAX_PROOF_DEPTH:
            raise CodecError("proof nesting too deep")
        culprit, pos = read_uvarint(data, pos)
        block_a, pos = _block_at(data, pos, depth + 1)
        block_b, pos = _block_at(data, pos, depth + 1)
        proofs.append(ByzantineProof(culprit=culprit, block_a=block_a, block_b=block_b))

    tag = data[pos]
    pos += 1
    coin_share = None
    if tag == _COIN_SHARE:
        coin_share, pos = read_share(data, pos)
        tag = data[pos]
        pos += 1
    if tag == _SIG_NONE:
        signature: object = None
    elif tag == _SIG_BYTES:
        signature, pos = read_lp_bytes(data, pos)
    elif tag == _SIG_SCHNORR:
        sig_r, pos = read_lp_bytes(data, pos)
        sig_s, pos = read_lp_bytes(data, pos)
        signature = SchnorrSignature(
            R=int.from_bytes(sig_r, "big"), s=int.from_bytes(sig_s, "big"),
        )
    else:
        raise CodecError(f"unknown signature tag {tag}")

    block = Block(
        round=round_,
        author=author,
        parents=tuple(parents),
        payload=payload,
        repropose_index=repropose_index,
        byz_proofs=tuple(proofs),
        coin_share=coin_share,
        signature=signature,
    )
    # Identity is derived from the decoded fields, never taken on trust.
    object.__setattr__(block, "digest", intern_digest(compute_block_digest(block)))
    return block, pos


def decode_block(data: bytes, pos: int = 0) -> Tuple[Block, int]:
    """The block encoded at ``data[pos:]``, its digest *recomputed*, and
    the offset just past it."""
    try:
        return _block_at(data, pos, 0)
    except (IndexError, struct.error):
        raise CodecError("truncated input") from None


def block_from_bytes(data: bytes) -> Block:
    """Standalone block decoding; rejects trailing bytes."""
    block, end = decode_block(data)
    if end != len(data):
        raise CodecError(f"{len(data) - end} trailing bytes after message")
    return block
