"""Tests for repro.dag.block: block identity, payload modeling, sizes."""

import dataclasses
import pickle

import pytest

from repro.check.explorer import _Canonicalizer
from repro.codec.blocks import block_from_bytes, block_to_bytes
from repro.config import SystemConfig
from repro.core.proofs import ByzantineProof
from repro.core.retrieval import RetrievalManager
from repro.crypto.backend import HmacBackend
from repro.crypto.coin import SeededCoin
from repro.dag.block import (
    EMPTY_BATCH,
    GENESIS_ROUND,
    TxBatch,
    genesis_block,
    make_block,
)
from repro.dag.store import DagStore

from ..conftest import FakeNet


class TestTxBatch:
    def test_from_times_exact_sum(self):
        times = [1.0, 2.0, 3.0]
        tb = TxBatch.from_times(times, tx_size=128)
        assert tb.count == 3
        assert tb.submit_time_sum == 6.0
        assert tb.mean_submit_time() == 2.0

    def test_from_times_empty(self):
        tb = TxBatch.from_times([], tx_size=128)
        assert tb.count == 0
        assert tb.mean_submit_time() == 0.0

    def test_sample_capped(self):
        tb = TxBatch.from_times([float(i) for i in range(1000)], tx_size=1)
        assert len(tb.sample) <= 16

    def test_byte_size(self):
        tb = TxBatch(count=10, tx_size=128)
        assert tb.byte_size == 1280

    def test_items_default_empty(self):
        assert TxBatch(count=1, tx_size=8).items == ()


class TestBlockIdentity:
    def test_digest_deterministic(self):
        a = make_block(1, 0, [])
        b = make_block(1, 0, [])
        assert a.digest == b.digest

    def test_round_changes_digest(self):
        assert make_block(1, 0, []).digest != make_block(2, 0, []).digest

    def test_author_changes_digest(self):
        assert make_block(1, 0, []).digest != make_block(1, 1, []).digest

    def test_parents_change_digest(self):
        g = genesis_block(0)
        assert make_block(1, 0, []).digest != make_block(1, 0, [g.digest]).digest

    def test_parent_order_changes_digest(self):
        g0, g1 = genesis_block(0), genesis_block(1)
        a = make_block(1, 0, [g0.digest, g1.digest])
        b = make_block(1, 0, [g1.digest, g0.digest])
        assert a.digest != b.digest

    def test_payload_count_changes_digest(self):
        a = make_block(1, 0, [], payload=TxBatch(1, 128))
        b = make_block(1, 0, [], payload=TxBatch(2, 128))
        assert a.digest != b.digest

    def test_payload_timing_changes_digest(self):
        a = make_block(1, 0, [], payload=TxBatch(1, 128, submit_time_sum=1.0))
        b = make_block(1, 0, [], payload=TxBatch(1, 128, submit_time_sum=1.0 + 1e-9))
        assert a.digest != b.digest

    def test_payload_items_change_digest(self):
        a = make_block(1, 0, [], payload=TxBatch(1, 8, items=(b"x",)))
        b = make_block(1, 0, [], payload=TxBatch(1, 8, items=(b"y",)))
        assert a.digest != b.digest

    def test_repropose_index_changes_digest(self):
        a = make_block(1, 0, [])
        b = make_block(1, 0, [], repropose_index=1)
        assert a.digest != b.digest
        assert a.slot == b.slot  # same slot, different block — equivocation shape


class TestOneDigestDerivation:
    """``make_block``, the codec and retrieval's digest pinning derive a
    digest through one function.  If they ever disagreed on a field, every
    honest retrieval response for such blocks would be dropped as garbage,
    silently."""

    @staticmethod
    def full_block():
        """A block with every optional field set."""
        system = SystemConfig(n=4, crypto="hmac", seed=0)
        parents = [genesis_block(a).digest for a in range(4)]
        proof = ByzantineProof(
            culprit=2, block_a=make_block(1, 2, parents),
            block_b=make_block(1, 2, parents, repropose_index=1),
        )
        payload = TxBatch(
            count=2, tx_size=64, submit_time_sum=3.5, sample=(1.5, 2.0),
            items=(b"SET a 1", b"SET b 2"),
        )
        share = SeededCoin(n=4, threshold=3, seed=0, replica_id=1).make_share(1)
        return make_block(
            3, 1, parents[:3], payload, repropose_index=2, byz_proofs=(proof,),
            coin_share=share, signer=HmacBackend(1, system),
        )

    @staticmethod
    def pinned(block):
        return RetrievalManager(FakeNet(0, 4), DagStore(n=4))._digest_pinned(block)

    def test_full_block_roundtrips_and_pins(self):
        block = self.full_block()
        decoded = block_from_bytes(block_to_bytes(block))
        assert decoded == block and decoded.digest == block.digest
        assert self.pinned(block) and self.pinned(decoded)

    def test_changing_any_one_field_fails_pinning(self):
        block = self.full_block()
        payload = block.payload
        share = block.coin_share
        changed = {
            "round": 4,
            "author": 2,
            "parents": block.parents[:2],
            "repropose_index": 3,
            "byz_proofs": (),
            "coin_share": dataclasses.replace(share, wave=2),
            "payload.count": dataclasses.replace(payload, count=3),
            "payload.tx_size": dataclasses.replace(payload, tx_size=65),
            "payload.submit_time_sum": dataclasses.replace(payload, submit_time_sum=3.25),
            "payload.items": dataclasses.replace(payload, items=(b"SET a 1",)),
        }
        for name, value in changed.items():
            field = name.split(".")[0]
            forged = dataclasses.replace(block, **{field: value})
            assert forged.digest == block.digest
            assert not self.pinned(forged), name
        # Every consensus field is covered (the payload's ``sample`` is a
        # latency-measurement aid, never identity).
        identity = {f.name for f in dataclasses.fields(block) if f.init} - {
            "digest", "signature",
        }
        assert {name.split(".")[0] for name in changed} == identity
        assert {name for name in changed if name.startswith("payload.")} == {
            f"payload.{f.name}" for f in dataclasses.fields(payload)
        } - {"payload.sample"}
        assert not self.pinned(dataclasses.replace(block, coin_share=None))


class TestSigning:
    def test_signed_block_verifies(self):
        system = SystemConfig(n=4)
        backend = HmacBackend(2, system)
        block = make_block(1, 2, [], signer=backend)
        assert backend.verify(2, block.digest, block.signature)

    def test_unsigned_block_has_none(self):
        assert make_block(1, 0, []).signature is None


class TestGenesis:
    def test_round_zero(self):
        assert genesis_block(0).round == GENESIS_ROUND
        assert genesis_block(0).is_genesis

    def test_identical_across_calls(self):
        assert genesis_block(1).digest == genesis_block(1).digest

    def test_distinct_per_author(self):
        assert genesis_block(0).digest != genesis_block(1).digest

    def test_no_parents(self):
        assert genesis_block(3).parents == ()


class TestWireSize:
    def test_grows_with_parents(self):
        g = [genesis_block(i).digest for i in range(4)]
        small = make_block(1, 0, g[:2])
        large = make_block(1, 0, g)
        assert large.wire_size() == small.wire_size() + 2 * 32

    def test_grows_with_payload(self):
        a = make_block(1, 0, [], payload=TxBatch(10, 128))
        b = make_block(1, 0, [], payload=TxBatch(20, 128))
        assert b.wire_size() - a.wire_size() == 10 * 128

    def test_empty_batch_constant(self):
        assert EMPTY_BATCH.count == 0
        assert EMPTY_BATCH.byte_size == 0

    def test_slot_property(self):
        assert make_block(5, 2, []).slot == (5, 2)

    def test_slot_is_built_once_and_invisible(self):
        """``slot`` is one tuple per block, and neither holding nor reading
        it shows anywhere else: equality, hash, pickling, the explorer's
        canonical form."""
        g = [genesis_block(i).digest for i in range(3)]
        block, fresh = make_block(5, 2, g), make_block(5, 2, g)
        assert block.slot is block.slot  # one tuple, a plain attribute
        assert block == fresh and hash(block) == hash(fresh)
        copy = pickle.loads(pickle.dumps(block))
        assert copy == block and copy.slot == (5, 2)
        assert _Canonicalizer().canon(block) == ("B", block.digest)
        assert _Canonicalizer().canon([block.slot, block.slot]) == \
            _Canonicalizer().canon([(5, 2), (5, 2)])  # sharing it is not state
        # a derived block computes its own
        assert dataclasses.replace(block, round=6).slot == (6, 2)
