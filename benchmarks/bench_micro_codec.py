"""Micro-benchmarks: the binary wire codec.

Quantifies the serialization cost the TCP transport pays per message —
and, by comparison with the CPU-model constants (DESIGN.md §3), sanity
checks that the modeled per-byte cost is not absurd relative to a real
pure-Python codec.
"""

import pytest

from repro.codec.blocks import block_from_bytes, block_to_bytes
from repro.codec.messages import decode_message, encode_message, encoded_wire_bytes
from repro.broadcast.messages import BlockEcho, BlockVal
from repro.config import SystemConfig
from repro.crypto.backend import HmacBackend
from repro.dag.block import TxBatch, genesis_block, make_block

SYSTEM = SystemConfig(n=4, crypto="hmac", seed=0)


def big_block(txs=400):
    return make_block(
        1, 0, [genesis_block(a).digest for a in range(4)],
        payload=TxBatch(count=txs, tx_size=128, submit_time_sum=txs * 1.0,
                        sample=(1.0,), items=tuple(bytes(128) for _ in range(txs))),
        signer=HmacBackend(0, SYSTEM),
    )


def metadata_block():
    """The block a saturated TCP run ships: the mempool sends count, size,
    timing sum and one sample — no items — so the frame is ~200 bytes
    whatever the batch size."""
    return make_block(
        57, 1, [genesis_block(a).digest for a in range(4)],
        payload=TxBatch(count=100, tx_size=512, submit_time_sum=1234.5678,
                        sample=(12.25,)),
        signer=HmacBackend(1, SYSTEM),
    )


class TestMetadataVal:
    """Encode and decode of the VAL frame the TCP workload actually sends."""

    def test_encode_metadata_val(self, benchmark):
        msg = BlockVal(metadata_block())
        raw = benchmark(encode_message, msg)
        assert len(raw) < 256

    def test_decode_metadata_val(self, benchmark):
        msg = BlockVal(metadata_block())
        raw = encode_message(msg)
        assert benchmark(decode_message, raw) == msg


class TestCodecThroughput:
    def test_encode_block_with_payload(self, benchmark):
        block = big_block()
        raw = benchmark(block_to_bytes, block)
        assert len(raw) > 400 * 128

    def test_decode_block_with_payload(self, benchmark):
        raw = block_to_bytes(big_block())
        decoded = benchmark(block_from_bytes, raw)
        assert decoded.payload.count == 400

    def test_encode_echo(self, benchmark):
        echo = BlockEcho(round=5, author=2, digest=b"\x22" * 32)
        raw = benchmark(encode_message, echo)
        assert len(raw) < 64

    def test_decode_echo(self, benchmark):
        raw = encode_message(BlockEcho(round=5, author=2, digest=b"\x22" * 32))
        msg = benchmark(decode_message, raw)
        assert msg.round == 5

    def test_roundtrip_val(self, benchmark):
        msg = BlockVal(big_block(txs=100))

        def roundtrip():
            return decode_message(encode_message(msg))

        assert benchmark(roundtrip) == msg


class TestEncodeOnceFanout:
    """The transport fan-out: one message serialized for n-1 recipients."""

    N_RECIPIENTS = 16

    def test_fanout16_encode_per_recipient(self, benchmark):
        block = big_block(txs=100)

        def fanout():
            msg = BlockVal(block)
            return [encode_message(msg) for _ in range(self.N_RECIPIENTS)]

        assert len(benchmark(fanout)) == self.N_RECIPIENTS

    def test_fanout16_encode_once(self, benchmark):
        block = big_block(txs=100)

        def fanout():
            msg = BlockVal(block)  # fresh instance: one real encode per run
            return [encoded_wire_bytes(msg) for _ in range(self.N_RECIPIENTS)]

        assert len(benchmark(fanout)) == self.N_RECIPIENTS

    def test_wire_size_x16(self, benchmark):
        block = big_block(txs=100)

        def sizes_():
            msg = BlockVal(block)
            return [msg.wire_size() for _ in range(self.N_RECIPIENTS)]

        assert len(set(benchmark(sizes_))) == 1
