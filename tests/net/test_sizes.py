"""Tests for repro.net.sizes: the wire-size model."""

from repro.net import sizes


class TestBlockWireSize:
    def test_monotone_in_parents(self):
        a = sizes.block_wire_size(3, 0, 128)
        b = sizes.block_wire_size(4, 0, 128)
        assert b - a == sizes.DIGEST_SIZE

    def test_monotone_in_txs(self):
        a = sizes.block_wire_size(3, 100, 128)
        b = sizes.block_wire_size(3, 101, 128)
        assert b - a == 128

    def test_proof_cost(self):
        a = sizes.block_wire_size(3, 0, 128, num_proofs=0)
        b = sizes.block_wire_size(3, 0, 128, num_proofs=1)
        assert b > a

    def test_header_floor(self):
        assert sizes.block_wire_size(0, 0, 0) >= sizes.HEADER_OVERHEAD

    def test_batch_dominates_large_blocks(self):
        # A 1000-tx batch at 128B dwarfs everything else — the regime the
        # paper's batch-size sweep operates in.
        total = sizes.block_wire_size(22, 1000, 128)
        assert 1000 * 128 / total > 0.9
