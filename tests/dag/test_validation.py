"""Tests for repro.dag.validation: structural rules (incl. LightDAG2 Rule 1)."""

import dataclasses

import pytest

import repro.dag.validation as validation
from repro.config import SystemConfig
from repro.crypto.backend import HmacBackend
from repro.dag.block import genesis_block, make_block
from repro.dag.store import DagStore
from repro.dag.validation import has_all_parents, validate_block_structure
from repro.errors import InvalidBlockError, UnknownBlockError

from ..conftest import count_calls
from .helpers import build_round


@pytest.fixture
def system():
    return SystemConfig(n=4)  # quorum = 3


@pytest.fixture
def store():
    return DagStore(n=4, strict=False)


def genesis_parents(k=4):
    return [genesis_block(a).digest for a in range(k)]


class TestBasicStructure:
    def test_valid_block_passes(self, store, system):
        block = make_block(1, 0, genesis_parents())
        validate_block_structure(block, store, system)

    def test_round_zero_rejected(self, store, system):
        block = make_block(1, 0, genesis_parents())
        object.__setattr__(block, "round", 0)
        with pytest.raises(InvalidBlockError, match="round"):
            validate_block_structure(block, store, system)

    def test_unknown_author_rejected(self, store, system):
        block = make_block(1, 9, genesis_parents())
        with pytest.raises(InvalidBlockError, match="author"):
            validate_block_structure(block, store, system)

    def test_negative_repropose_rejected(self, store, system):
        block = make_block(1, 0, genesis_parents(), repropose_index=0)
        object.__setattr__(block, "repropose_index", -1)
        with pytest.raises(InvalidBlockError):
            validate_block_structure(block, store, system)


class TestParentQuorum:
    def test_too_few_parents_rejected(self, store, system):
        block = make_block(1, 0, genesis_parents(2))
        with pytest.raises(InvalidBlockError, match="parents"):
            validate_block_structure(block, store, system)

    def test_exactly_quorum_accepted(self, store, system):
        block = make_block(1, 0, genesis_parents(3))
        validate_block_structure(block, store, system)

    def test_min_parents_override(self, store, system):
        block = make_block(1, 0, genesis_parents(1))
        validate_block_structure(block, store, system, min_parents=1)

    def test_duplicate_parent_rejected(self, store, system):
        g = genesis_parents(3)
        block = make_block(1, 0, g + [g[0]])
        with pytest.raises(InvalidBlockError, match="duplicate"):
            validate_block_structure(block, store, system)


class TestParentLinkage:
    def test_missing_parent_raises_unknown(self, store, system):
        block = make_block(1, 0, genesis_parents(2) + [b"\x77" * 32])
        with pytest.raises(UnknownBlockError):
            validate_block_structure(block, store, system)

    def test_wrong_round_parent_rejected(self, store, system):
        build_round(store, 1, [0, 1, 2, 3])
        # A round-3 block referencing round-1 blocks (skipping round 2).
        parents = [store.block_in_slot(1, a).digest for a in range(3)]
        block = make_block(3, 0, parents)
        with pytest.raises(InvalidBlockError, match="round"):
            validate_block_structure(block, store, system)

    def test_rule1_two_blocks_same_slot_rejected(self, store, system):
        """Fig. 8a: a block may not reference two contradictory blocks."""
        build_round(store, 1, [1, 2, 3])
        twin = make_block(1, 1, genesis_parents(), repropose_index=1)
        store.add(twin)
        original = store.blocks_in_slot(1, 1)[0]
        parents = [
            original.digest,
            twin.digest,
            store.block_in_slot(1, 2).digest,
        ]
        block = make_block(2, 0, parents)
        with pytest.raises(InvalidBlockError, match="slot"):
            validate_block_structure(block, store, system)

    def test_distinct_slots_accepted(self, store, system):
        build_round(store, 1, [0, 1, 2, 3])
        parents = [store.block_in_slot(1, a).digest for a in range(3)]
        validate_block_structure(make_block(2, 0, parents), store, system)


class TestSignatureGate:
    def test_bad_signature_rejected(self, store, system):
        backend = HmacBackend(0, system)
        block = make_block(1, 1, genesis_parents(), signer=backend)  # signed by 0, claims 1
        with pytest.raises(InvalidBlockError, match="signature"):
            validate_block_structure(block, store, system, backend=backend)

    def test_good_signature_accepted(self, store, system):
        backend = HmacBackend(1, system)
        block = make_block(1, 1, genesis_parents(), signer=backend)
        validate_block_structure(block, store, system, backend=backend)


class TestVerdictRidesOnTheBlock:
    """A positive verdict over caller-resolved parents is kept on the block
    object, keyed by what it was checked under; nothing else is."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        count_calls(monkeypatch, validation, "_check_structure", calls)
        return calls

    def replica_view(self, block):
        """A fresh store holding the block's round-1 parents, and the lookup."""
        store = DagStore(n=4, strict=False)
        build_round(store, 1, [0, 1, 2, 3])
        return store, store.parents_of(block)

    def round2_block(self, authors=(0, 1, 2)):
        store = DagStore(n=4, strict=False)
        build_round(store, 1, [0, 1, 2, 3])
        return make_block(2, 0, [store.block_in_slot(1, a).digest for a in authors])

    def test_parent_walk_runs_once_for_all_replicas(self, system, walks):
        block = self.round2_block()
        for _replica in range(4):
            store, parents = self.replica_view(block)
            validate_block_structure(block, store, system, parents=parents)
        assert len(walks) == 1

    def test_store_path_records_no_verdict(self, system, walks):
        block = self.round2_block()
        for _replica in range(2):
            store, _parents = self.replica_view(block)
            validate_block_structure(block, store, system)
        assert len(walks) == 2 and "_well_formed" not in block.__dict__

    def test_invalid_block_is_rejected_again_at_each_replica(self, system, walks):
        block = self.round2_block(authors=(0, 1))  # two parents, quorum is three
        for _replica in range(3):
            store, parents = self.replica_view(block)
            with pytest.raises(InvalidBlockError, match="parents"):
                validate_block_structure(block, store, system, parents=parents)
        assert len(walks) == 3 and "_well_formed" not in block.__dict__

    def test_verdict_under_other_parameters_does_not_count(self, system, walks):
        block = self.round2_block(authors=(0, 1))
        store, parents = self.replica_view(block)
        validate_block_structure(block, store, system, min_parents=2, parents=parents)
        with pytest.raises(InvalidBlockError, match="parents"):
            validate_block_structure(block, store, system, parents=parents)  # quorum 3
        assert len(walks) == 2
        validate_block_structure(block, store, system, min_parents=2, parents=parents)
        assert len(walks) == 2  # same parameters again: a hit
        validate_block_structure(
            block, store, SystemConfig(n=7), min_parents=2, parents=parents
        )
        assert len(walks) == 3  # another n: checked afresh

    def test_replaced_block_carries_no_verdict(self, system, walks):
        block = self.round2_block()
        store, parents = self.replica_view(block)
        validate_block_structure(block, store, system, parents=parents)
        twin = dataclasses.replace(block, repropose_index=-1)
        assert "_well_formed" in block.__dict__ and "_well_formed" not in twin.__dict__
        with pytest.raises(InvalidBlockError, match="repropose"):
            validate_block_structure(twin, store, system, parents=parents)

    def test_a_parent_missing_here_is_still_unknown(self, system, walks):
        block = self.round2_block()
        store, parents = self.replica_view(block)
        validate_block_structure(block, store, system, parents=parents)
        with pytest.raises(UnknownBlockError):
            validate_block_structure(
                block, store, system, parents=[None] + parents[1:]
            )

    def test_signature_is_still_checked_on_a_structural_hit(self, system, walks):
        signer, other = HmacBackend(0, system), HmacBackend(3, system)
        store = DagStore(n=4, strict=False)
        block = make_block(1, 1, genesis_parents(), signer=signer)  # claims 1
        parents = store.parents_of(block)
        validate_block_structure(block, store, system, parents=parents)
        for backend in (signer, other):
            with pytest.raises(InvalidBlockError, match="signature"):
                validate_block_structure(
                    block, store, system, backend=backend, parents=parents
                )
        assert len(walks) == 1


class TestHasAllParents:
    def test_true_for_genesis_refs(self, store):
        assert has_all_parents(make_block(1, 0, genesis_parents()), store)

    def test_false_for_unknown(self, store):
        assert not has_all_parents(make_block(1, 0, [b"\x88" * 32]), store)
