"""Tests for repro.broadcast.messages: wire sizes and structure."""

from repro.broadcast.messages import (
    BlockEcho,
    BlockReady,
    BlockVal,
    ByzantineProofMsg,
    ContradictionNotice,
    RetrievalRequest,
    RetrievalResponse,
)
from repro.crypto.coin import CoinShare
from repro.dag.block import TxBatch, genesis_block, make_block
from repro.net import sizes


def sample_block(txs=5):
    return make_block(1, 0, [genesis_block(a).digest for a in range(4)],
                      payload=TxBatch(txs, 128))


class TestWireSizes:
    def test_val_wraps_block(self):
        block = sample_block()
        assert BlockVal(block).wire_size() == sizes.HEADER_OVERHEAD + block.wire_size()

    def test_echo_constant_size(self):
        a = BlockEcho(1, 0, b"\x01" * 32)
        b = BlockEcho(99, 3, b"\x02" * 32)
        assert a.wire_size() == b.wire_size()
        assert a.wire_size() < sample_block().wire_size()  # echoes are cheap

    def test_ready_same_shape_as_echo(self):
        echo = BlockEcho(1, 0, b"\x01" * 32)
        ready = BlockReady(1, 0, b"\x01" * 32)
        assert echo.wire_size() == ready.wire_size()

    def test_retrieval_request_scales_with_digests(self):
        one = RetrievalRequest((b"\x01" * 32,))
        two = RetrievalRequest((b"\x01" * 32, b"\x02" * 32))
        assert two.wire_size() - one.wire_size() == sizes.DIGEST_SIZE

    def test_retrieval_response_carries_blocks(self):
        block = sample_block()
        resp = RetrievalResponse((block, block))
        assert resp.wire_size() == sizes.HEADER_OVERHEAD + 2 * block.wire_size()

    def test_coin_share_size(self):
        """Every block is charged for a share, whether or not it carries
        one, so a share adds no modeled bytes."""
        share = CoinShare(wave=1, replica=0, payload=b"token")
        plain = sample_block()
        carrying = make_block(1, 0, plain.parents, plain.payload, coin_share=share)
        assert carrying.wire_size() == plain.wire_size() == sizes.block_wire_size(
            num_parents=4, num_txs=5, tx_size=128,
        )
        assert plain.wire_size() - sizes.COIN_SHARE_SIZE == (
            sizes.HEADER_OVERHEAD + sizes.SIGNATURE_SIZE
            + 4 * sizes.DIGEST_SIZE + 5 * 128
        )

    def test_contradiction_carries_full_block(self):
        block = sample_block()
        notice = ContradictionNotice(objected=b"\x05" * 32, conflicting_block=block)
        assert notice.wire_size() > block.wire_size()

    def test_proof_msg_carries_two_blocks(self):
        a, b = sample_block(1), sample_block(2)
        msg = ByzantineProofMsg(culprit=0, block_a=a, block_b=b, objected=b"\x06" * 32)
        assert msg.wire_size() > a.wire_size() + b.wire_size()
