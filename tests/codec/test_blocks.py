"""The one-pass block codec against the ``Reader``/``Writer``-per-field one
it replaced, kept here as the reference: same bytes out, the same block
back, and :class:`CodecError` in exactly the same cases — on valid blocks,
every truncation of them and every single-byte mutation of them."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.blocks import block_from_bytes, block_to_bytes, decode_block
from repro.codec.primitives import CodecError, Reader, Writer
from repro.config import SystemConfig
from repro.core.proofs import MAX_PROOF_DEPTH, ByzantineProof
from repro.crypto.backend import HmacBackend, SchnorrBackend
from repro.crypto.coin import CoinShare, SeededCoin, ThresholdCoin
from repro.crypto.hashing import intern_digest
from repro.crypto.keys import TrustedDealer
from repro.crypto.schnorr import SchnorrSignature
from repro.crypto.threshold import DleqProof, PartialEval
from repro.dag.block import Block, TxBatch, compute_block_digest, genesis_block, make_block

# -- the reference: the field-by-field codec the one-pass one replaced -------


def ref_encode_signature(w, signature):
    if signature is None:
        w.byte(0)
    elif isinstance(signature, bytes):
        w.byte(1)
        w.lp_bytes(signature)
    elif isinstance(signature, SchnorrSignature):
        w.byte(2)
        w.bigint(signature.R)
        w.bigint(signature.s)
    else:
        raise CodecError(f"unknown signature type {type(signature).__name__}")


def ref_decode_signature(r, tag):
    if tag == 0:
        return None
    if tag == 1:
        return r.lp_bytes()
    if tag == 2:
        return SchnorrSignature(R=r.bigint(), s=r.bigint())
    raise CodecError(f"unknown signature tag {tag}")


def ref_encode_share(w, share):
    w.uvarint(share.wave)
    w.uvarint(share.replica)
    payload = share.payload
    if isinstance(payload, bytes):
        w.byte(0)
        w.lp_bytes(payload)
    else:
        w.byte(1)
        w.uvarint(payload.index)
        w.bigint(payload.value)
        w.bigint(payload.proof.c)
        w.bigint(payload.proof.s)


def ref_decode_share(r):
    wave = r.uvarint()
    replica = r.uvarint()
    tag = r.byte()
    if tag == 0:
        payload = r.lp_bytes()
    elif tag == 1:
        payload = PartialEval(
            index=r.uvarint(), value=r.bigint(),
            proof=DleqProof(c=r.bigint(), s=r.bigint()),
        )
    else:
        raise CodecError(f"unknown coin payload tag {tag}")
    return CoinShare(wave=wave, replica=replica, payload=payload)


def ref_encode_batch(w, batch):
    w.uvarint(batch.count)
    w.uvarint(batch.tx_size)
    w.double(batch.submit_time_sum)
    w.uvarint(len(batch.sample))
    for t in batch.sample:
        w.double(t)
    w.uvarint(len(batch.items))
    for item in batch.items:
        w.lp_bytes(item)


def ref_decode_batch(r):
    count = r.uvarint()
    tx_size = r.uvarint()
    submit_sum = r.double()
    sample = tuple(r.double() for _ in range(r.uvarint()))
    items = tuple(r.lp_bytes() for _ in range(r.uvarint()))
    return TxBatch(
        count=count, tx_size=tx_size, submit_time_sum=submit_sum,
        sample=sample, items=items,
    )


def ref_encode_block(w, block):
    w.uvarint(block.round)
    w.uvarint(block.author)
    w.uvarint(len(block.parents))
    for parent in block.parents:
        w.lp_bytes(parent)
    ref_encode_batch(w, block.payload)
    w.uvarint(block.repropose_index)
    w.uvarint(len(block.byz_proofs))
    for proof in block.byz_proofs:
        w.uvarint(proof.culprit)
        ref_encode_block(w, proof.block_a)
        ref_encode_block(w, proof.block_b)
    if block.coin_share is not None:
        w.byte(3)
        ref_encode_share(w, block.coin_share)
    ref_encode_signature(w, block.signature)


def ref_decode_block(r, depth=0):
    round_ = r.uvarint()
    author = r.uvarint()
    parents = tuple(intern_digest(r.lp_bytes()) for _ in range(r.uvarint()))
    payload = ref_decode_batch(r)
    repropose_index = r.uvarint()
    proofs = tuple(ref_decode_proof(r, depth + 1) for _ in range(r.uvarint()))
    share = None
    tag = r.byte()
    if tag == 3:
        share = ref_decode_share(r)
        tag = r.byte()
    signature = ref_decode_signature(r, tag)
    block = Block(
        round=round_, author=author, parents=parents, payload=payload,
        repropose_index=repropose_index, byz_proofs=proofs, coin_share=share,
        signature=signature,
    )
    return replace(block, digest=intern_digest(compute_block_digest(block)))


def ref_decode_proof(r, depth):
    if depth > MAX_PROOF_DEPTH:
        raise CodecError("proof nesting too deep")
    culprit = r.uvarint()
    block_a = ref_decode_block(r, depth)
    block_b = ref_decode_block(r, depth)
    return ByzantineProof(culprit=culprit, block_a=block_a, block_b=block_b)


def ref_to_bytes(block):
    w = Writer()
    ref_encode_block(w, block)
    return w.getvalue()


def ref_from_bytes(data):
    r = Reader(data)
    block = ref_decode_block(r)
    r.expect_eof()
    return block


# -- the blocks ------------------------------------------------------------

SYSTEM = SystemConfig(n=4, crypto="schnorr", seed=0)
CHAINS = TrustedDealer(SYSTEM).deal()
PARENTS = [genesis_block(a).digest for a in range(4)]


def _block(author=0, round_=1, j=0, items=(), signer="hmac", **extra):
    backend = (
        HmacBackend(author, SYSTEM) if signer == "hmac"
        else SchnorrBackend(CHAINS[author]) if signer == "schnorr"
        else None
    )
    payload = TxBatch(
        count=len(items) or 3, tx_size=128, submit_time_sum=7.25,
        sample=(1.25, 2.5), items=items,
    )
    return make_block(round_, author, PARENTS, payload=payload, repropose_index=j,
                      signer=backend, **extra)


#: A proof small enough to mutate byte by byte: two unsigned one-parent blocks.
PROOF = ByzantineProof(
    culprit=2, block_a=make_block(1, 2, PARENTS[:1]),
    block_b=make_block(1, 2, PARENTS[:1], repropose_index=1),
)


#: What a saturated TCP run sends (metadata only) and every optional part.
BLOCKS = {
    "tcp_shape": _block(),
    "hmac_items": _block(round_=300, items=(b"SET a 1", b"x" * 130)),
    "schnorr": _block(author=1, signer="schnorr"),
    "unsigned_empty": make_block(1, 3, ()),
    "proofs": _block(author=1, round_=4, byz_proofs=(PROOF,)),
    "coin_token": _block(
        author=2, round_=3,
        coin_share=SeededCoin(n=4, threshold=3, seed=0, replica_id=2).make_share(1),
    ),
    "coin_partial": _block(
        author=1, round_=3, signer=None,
        coin_share=ThresholdCoin(CHAINS[1]).make_share(1),
    ),
}
WIRE = {name: block_to_bytes(block) for name, block in BLOCKS.items()}


def _outcome(decode, data):
    try:
        return decode(data)
    except CodecError:
        return CodecError


def _same(new, old):
    """Equal blocks, or the same error.  A mutated double may decode to NaN,
    and nan != nan: such blocks must re-encode to the same bytes instead."""
    if new is CodecError or old is CodecError:
        return new is old
    return new == old or (
        ref_to_bytes(new) == ref_to_bytes(old) and new.digest == old.digest
    )


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_encoding_is_byte_identical(name):
    assert WIRE[name] == ref_to_bytes(BLOCKS[name])


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_valid_blocks_decode_alike(name):
    new = block_from_bytes(WIRE[name])
    assert new == ref_from_bytes(WIRE[name]) == BLOCKS[name]
    assert new.digest == BLOCKS[name].digest


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_every_truncation_is_refused_alike(name):
    data = WIRE[name]
    for cut in range(len(data)):
        assert _outcome(block_from_bytes, data[:cut]) is CodecError, cut
        assert _outcome(ref_from_bytes, data[:cut]) is CodecError, cut


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_every_single_byte_mutation_decodes_alike(name):
    data = bytearray(WIRE[name])
    for at in range(len(data)):
        original = data[at]
        for value in range(256):
            if value == original:
                continue
            data[at] = value
            mutated = bytes(data)
            new = _outcome(block_from_bytes, mutated)
            old = _outcome(ref_from_bytes, mutated)
            assert _same(new, old), (at, value)
        data[at] = original


@pytest.mark.parametrize(
    "data",
    [
        b"\x01\x00" + b"\xff" * 11 + b"\x01",  # an overlong varint
        b"\x01\x00\x01\xff\xff\xff\xff\x7f" + bytes(40),  # a length over MAX_LENGTH
        WIRE["tcp_shape"] + b"\x00",  # trailing bytes
        WIRE["tcp_shape"][:-34] + b"\x07" + WIRE["tcp_shape"][-33:],  # unknown signature tag
    ],
)
def test_malformed_edges_are_refused_alike(data):
    assert _outcome(block_from_bytes, data) is CodecError
    assert _outcome(ref_from_bytes, data) is CodecError


def test_non_minimal_varints_decode_alike():
    data = WIRE["tcp_shape"]
    padded = b"\x81\x80\x00" + data[1:]  # round 1 spelled in three bytes
    assert block_from_bytes(padded) == ref_from_bytes(padded) == BLOCKS["tcp_shape"]


def test_proof_nesting_limit_is_the_reference_one():
    block = _block(author=2)
    for level in range(MAX_PROOF_DEPTH + 1):
        block = make_block(
            level + 2, 2, block.parents,
            byz_proofs=(ByzantineProof(culprit=2, block_a=block, block_b=block),),
        )
        data = block_to_bytes(block)
        assert data == ref_to_bytes(block)
        if level < MAX_PROOF_DEPTH:
            assert block_from_bytes(data) == ref_from_bytes(data) == block
    for decode in (block_from_bytes, ref_from_bytes):
        with pytest.raises(CodecError, match="proof nesting too deep"):
            decode(data)


def test_decode_block_reports_where_the_block_ends():
    data = WIRE["schnorr"] + WIRE["tcp_shape"]
    first, end = decode_block(data)
    second, last = decode_block(data, end)
    assert (first, second) == (BLOCKS["schnorr"], BLOCKS["tcp_shape"])
    assert (end, last) == (len(WIRE["schnorr"]), len(data))


@settings(max_examples=60, deadline=None)
@given(
    round_=st.integers(0, 2**64 - 1),
    parents=st.lists(st.binary(max_size=40), max_size=7),
    items=st.lists(st.binary(max_size=200), max_size=3),
    sample=st.lists(st.floats(), max_size=4),
    total=st.floats(),
)
def test_property_arbitrary_blocks_roundtrip_like_the_reference(round_, parents, items, sample, total):
    payload = TxBatch(count=len(items), tx_size=9, submit_time_sum=total,
                      sample=tuple(sample), items=tuple(items))
    block = make_block(round_, 3, parents, payload=payload, signer=HmacBackend(3, SYSTEM))
    data = block_to_bytes(block)
    assert data == ref_to_bytes(block)
    assert _same(block_from_bytes(data), ref_from_bytes(data))
    assert block_from_bytes(data).digest == block.digest
