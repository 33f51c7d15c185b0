"""Tests for repro.codec.blocks / .messages: full message round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast.messages import (
    BlockEcho,
    BlockReady,
    BlockVal,
    ByzantineProofMsg,
    ContradictionNotice,
    RetrievalRequest,
    RetrievalResponse,
)
from repro.codec.blocks import block_from_bytes, block_to_bytes
from repro.codec.messages import decode_message, encode_message
from repro.codec.primitives import CodecError
from repro.config import SystemConfig
from repro.core.proofs import MAX_PROOF_DEPTH, ByzantineProof
from repro.crypto.backend import HmacBackend, SchnorrBackend
from repro.crypto.coin import SeededCoin, ThresholdCoin, share_bytes
from repro.crypto.keys import TrustedDealer
from repro.dag.block import TxBatch, genesis_block, make_block
from repro.errors import NetworkError
from repro.net.tcp import FrameSplitter, _encode_frame

SYSTEM = SystemConfig(n=4, crypto="hmac", seed=0)
CHAINS = TrustedDealer(SYSTEM).deal()


def sample_block(author=0, round_=1, j=0, txs=3, items=(), signer="hmac"):
    backend = (
        HmacBackend(author, SYSTEM) if signer == "hmac"
        else SchnorrBackend(CHAINS[author]) if signer == "schnorr"
        else None
    )
    payload = TxBatch(
        count=txs, tx_size=128, submit_time_sum=txs * 1.25,
        sample=(1.25,), items=items,
    )
    return make_block(
        round_, author, [genesis_block(a).digest for a in range(4)],
        payload=payload, repropose_index=j, signer=backend,
    )


def share_block(share, signer="hmac"):
    """A wave-7 last-round block of ``share``'s replica (LightDAG1 ends wave
    7 at round 15) carrying the share."""
    backend = HmacBackend(share.replica, SYSTEM) if signer == "hmac" else None
    return make_block(
        15, share.replica, [genesis_block(a).digest for a in range(4)],
        coin_share=share, signer=backend,
    )


def proof_pair():
    a = sample_block(author=2, j=0)
    b = sample_block(author=2, j=1)
    return ByzantineProof(culprit=2, block_a=a, block_b=b)


class TestBlockCodec:
    def test_roundtrip_preserves_identity(self):
        block = sample_block()
        decoded = block_from_bytes(block_to_bytes(block))
        assert decoded == block
        assert decoded.digest == block.digest

    def test_roundtrip_with_items(self):
        block = sample_block(items=(b"SET a 1", b"SET b 2"))
        assert block_from_bytes(block_to_bytes(block)).payload.items == (
            b"SET a 1", b"SET b 2",
        )

    def test_roundtrip_schnorr_signature(self):
        block = sample_block(signer="schnorr")
        decoded = block_from_bytes(block_to_bytes(block))
        assert decoded.signature == block.signature
        assert SchnorrBackend(CHAINS[1]).verify(0, decoded.digest, decoded.signature)

    def test_roundtrip_unsigned(self):
        block = sample_block(signer=None)
        assert block_from_bytes(block_to_bytes(block)).signature is None

    def test_roundtrip_with_proofs(self):
        proof = proof_pair()
        block = make_block(
            4, 1, [genesis_block(a).digest for a in range(4)],
            byz_proofs=(proof,),
            signer=HmacBackend(1, SYSTEM),
        )
        decoded = block_from_bytes(block_to_bytes(block))
        assert decoded == block
        assert decoded.byz_proofs[0].verify(HmacBackend(0, SYSTEM))

    def test_digest_recomputed_not_trusted(self):
        """The wire format carries no digest — it is recomputed, so content
        and identity can never disagree."""
        block = sample_block()
        raw = bytearray(block_to_bytes(block))
        # Flip a payload byte (the tx count varint near the parents).
        decoded = block_from_bytes(bytes(raw))
        assert decoded.digest == block.digest  # sanity on unmodified

    def test_truncated_block_rejected(self):
        raw = block_to_bytes(sample_block())
        with pytest.raises(CodecError):
            block_from_bytes(raw[:-3])

    def test_trailing_bytes_rejected(self):
        raw = block_to_bytes(sample_block())
        with pytest.raises(CodecError):
            block_from_bytes(raw + b"\x00")


class TestMessageCodec:
    def roundtrip(self, msg):
        decoded = decode_message(encode_message(msg))
        assert decoded == msg
        return decoded

    def test_block_val(self):
        self.roundtrip(BlockVal(sample_block()))

    def test_block_echo(self):
        self.roundtrip(BlockEcho(round=5, author=2, digest=b"\x22" * 32))

    def test_block_ready(self):
        self.roundtrip(BlockReady(round=5, author=2, digest=b"\x22" * 32))

    def test_retrieval_request(self):
        self.roundtrip(RetrievalRequest((b"\x01" * 32, b"\x02" * 32)))
        self.roundtrip(RetrievalRequest(()))

    def test_retrieval_response(self):
        self.roundtrip(RetrievalResponse((sample_block(), sample_block(author=1))))

    def test_coin_share_token(self):
        share = SeededCoin(n=4, threshold=3, seed=0, replica_id=1).make_share(7)
        decoded = self.roundtrip(BlockVal(share_block(share)))
        assert decoded.block.coin_share == share

    def test_coin_share_partial(self):
        chains = TrustedDealer(SystemConfig(n=4, crypto="schnorr")).deal()
        share = ThresholdCoin(chains[1]).make_share(7)
        decoded = self.roundtrip(BlockVal(share_block(share)))
        # The decoded partial must still verify.
        assert ThresholdCoin(chains[0]).verify_share(decoded.block.coin_share)

    def test_truncated_coin_share_rejected(self):
        share = SeededCoin(n=4, threshold=3, seed=0, replica_id=1).make_share(7)
        raw = encode_message(BlockVal(share_block(share, signer=None)))
        # The frame ends in the share, then the one-byte "no signature" tag.
        assert raw.endswith(share_bytes(share) + b"\x00")
        with pytest.raises(CodecError):
            decode_message(raw[:-2])

    def test_unknown_coin_payload_tag_rejected(self):
        share = SeededCoin(n=4, threshold=3, seed=0, replica_id=1).make_share(7)
        raw = encode_message(BlockVal(share_block(share)))
        encoded = share_bytes(share)
        at = raw.rfind(encoded)
        # uvarint wave, uvarint replica, then the payload tag.
        tag_at = at + 2
        forged = raw[:tag_at] + bytes([7]) + raw[tag_at + 1:]
        with pytest.raises(CodecError, match="coin payload tag 7"):
            decode_message(forged)

    def test_contradiction_notice(self):
        self.roundtrip(
            ContradictionNotice(objected=b"\x33" * 32, conflicting_block=sample_block())
        )

    def test_byzantine_proof_msg(self):
        proof = proof_pair()
        self.roundtrip(
            ByzantineProofMsg(
                culprit=2, block_a=proof.block_a, block_b=proof.block_b,
                objected=b"\x44" * 32,
            )
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(CodecError, match="kind"):
            decode_message(b"\x63")

    def test_empty_input_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"")

    def test_trailing_bytes_rejected(self):
        raw = encode_message(BlockEcho(1, 0, b"\x01" * 32))
        with pytest.raises(CodecError, match="trailing"):
            decode_message(raw + b"!")

    def test_proof_nesting_is_bounded(self):
        # A 75 KB VAL frame: a block carrying a proof whose first block
        # carries a proof ... 5000 deep.  A CodecError like any other
        # malformed frame, not a RecursionError out of the decoder.
        nested_block = bytes([1, 0, 0, 0, 0]) + bytes(8) + bytes([0, 0, 0, 1, 0])
        with pytest.raises(CodecError, match="proof nesting too deep"):
            decode_message(bytes([1]) + nested_block * 5000)

    def test_honest_proof_nesting_roundtrips(self):
        block = sample_block(author=2)
        for level in range(MAX_PROOF_DEPTH):
            other = sample_block(author=2, j=1, txs=level)
            block = make_block(
                level + 2, 2, block.parents,
                byz_proofs=(ByzantineProof(culprit=2, block_a=block, block_b=other),),
            )
        assert block.byz_proofs[0].depth == MAX_PROOF_DEPTH
        assert block_from_bytes(block_to_bytes(block)) == block
        # One level more encodes but is refused: LightDAG2 never embeds such
        # a proof (tests/core/test_lightdag2.py pins that side).
        deeper = make_block(
            99, 2, block.parents,
            byz_proofs=(ByzantineProof(culprit=2, block_a=block, block_b=block),),
        )
        with pytest.raises(CodecError, match="proof nesting too deep"):
            block_from_bytes(block_to_bytes(deeper))


@settings(max_examples=50)
@given(
    round_=st.integers(min_value=1, max_value=1000),
    author=st.integers(min_value=0, max_value=3),
    txs=st.integers(min_value=0, max_value=50),
    j=st.integers(min_value=0, max_value=3),
    ts=st.floats(min_value=0, max_value=1e6, allow_nan=False),
)
def test_property_block_roundtrip(round_, author, txs, j, ts):
    payload = TxBatch(count=txs, tx_size=128, submit_time_sum=ts, sample=(ts,))
    block = make_block(
        round_, author, [genesis_block(a).digest for a in range(4)],
        payload=payload, repropose_index=j,
        signer=HmacBackend(author, SYSTEM),
    )
    decoded = block_from_bytes(block_to_bytes(block))
    assert decoded == block


def wire_samples():
    """One valid encoding of each of the seven wire kinds (and VAL frames
    carrying both coin share payloads)."""
    schnorr = TrustedDealer(SystemConfig(n=4, crypto="schnorr")).deal()
    proof = proof_pair()
    messages = [
        BlockVal(make_block(
            4, 1, [genesis_block(a).digest for a in range(4)],
            byz_proofs=(proof,), signer=HmacBackend(1, SYSTEM),
        )),
        BlockEcho(round=5, author=2, digest=b"\x22" * 32),
        BlockReady(round=5, author=2, digest=b"\x22" * 32),
        RetrievalRequest((b"\x01" * 32, b"\x02" * 32)),
        RetrievalResponse((sample_block(items=(b"SET a 1",)), sample_block(author=1))),
        BlockVal(share_block(
            SeededCoin(n=4, threshold=3, seed=0, replica_id=1).make_share(7)
        )),
        BlockVal(share_block(ThresholdCoin(schnorr[1]).make_share(7))),
        ContradictionNotice(objected=b"\x33" * 32, conflicting_block=sample_block()),
        ByzantineProofMsg(
            culprit=2, block_a=proof.block_a, block_b=proof.block_b,
            objected=b"\x44" * 32,
        ),
    ]
    return [encode_message(msg) for msg in messages]


WIRE_SAMPLES = wire_samples()


@st.composite
def mutated_frames(draw):
    """A valid frame of some kind with 1-3 byte flips, inserts or deletes:
    random bytes seldom get past the kind tag, these reach the block,
    proof and coin decoders."""
    frame = bytearray(_encode_frame(draw(st.sampled_from(WIRE_SAMPLES))))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(frame) - 1))
        edit = draw(st.sampled_from(["flip", "insert", "delete"]))
        if edit == "flip":
            frame[pos] ^= draw(st.integers(1, 255))
        elif edit == "insert":
            frame.insert(pos, draw(st.integers(0, 255)))
        else:
            del frame[pos]
    return bytes(frame)


def test_wire_samples_cover_every_kind():
    assert sorted({raw[0] for raw in WIRE_SAMPLES}) == [1, 2, 3, 4, 5, 7, 8]
    for raw in WIRE_SAMPLES:
        assert encode_message(decode_message(raw)) == raw


@settings(max_examples=300, deadline=None)
@given(stream=st.one_of(
    st.binary(min_size=0, max_size=200).map(_encode_frame), mutated_frames()
))
def test_property_decoder_never_crashes_unsafely(stream):
    """Arbitrary or mangled frames, cut and decoded as a TCP connection
    does, either decode to messages or are refused with NetworkError /
    CodecError — never any other exception (a malicious peer cannot crash
    the node)."""
    try:
        for body in FrameSplitter().feed(stream):
            decode_message(body)
    except (NetworkError, CodecError):
        pass
