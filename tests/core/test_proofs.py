"""Tests for repro.core.proofs: Byzantine-proof verification."""

import pytest

from repro.config import SystemConfig
from repro.core.proofs import ByzantineProof, proof_from_blocks
from repro.crypto.backend import HmacBackend, NullBackend
from repro.dag.block import genesis_block, make_block


@pytest.fixture
def system():
    return SystemConfig(n=4, crypto="hmac")


@pytest.fixture
def backend(system):
    return HmacBackend(0, system)


def equivocation_pair(system, author=2, round_=1):
    signer = HmacBackend(author, system)
    parents = [genesis_block(a).digest for a in range(4)]
    a = make_block(round_, author, parents, repropose_index=0, signer=signer)
    b = make_block(round_, author, parents, repropose_index=1, signer=signer)
    return a, b


class TestVerification:
    def test_genuine_proof_verifies(self, system, backend):
        a, b = equivocation_pair(system)
        assert proof_from_blocks(a, b).verify(backend)

    def test_same_block_twice_rejected(self, system, backend):
        a, _ = equivocation_pair(system)
        assert not ByzantineProof(culprit=2, block_a=a, block_b=a).verify(backend)

    def test_different_slots_rejected(self, system, backend):
        a, _ = equivocation_pair(system, round_=1)
        c, _ = equivocation_pair(system, round_=2)
        assert not ByzantineProof(culprit=2, block_a=a, block_b=c).verify(backend)

    def test_different_authors_rejected(self, system, backend):
        a, _ = equivocation_pair(system, author=1)
        c, _ = equivocation_pair(system, author=2)
        assert not ByzantineProof(culprit=1, block_a=a, block_b=c).verify(backend)

    def test_culprit_mismatch_rejected(self, system, backend):
        a, b = equivocation_pair(system, author=2)
        assert not ByzantineProof(culprit=1, block_a=a, block_b=b).verify(backend)

    def test_forged_signature_rejected(self, system, backend):
        """Framing an honest replica must fail: blocks signed by someone
        else claiming the victim's authorship don't verify."""
        framer = HmacBackend(3, system)
        parents = [genesis_block(x).digest for x in range(4)]
        a = make_block(1, 2, parents, repropose_index=0, signer=framer)
        b = make_block(1, 2, parents, repropose_index=1, signer=framer)
        assert not ByzantineProof(culprit=2, block_a=a, block_b=b).verify(backend)

    def test_null_backend_accepts_structurally_valid(self, system):
        a, b = equivocation_pair(system)
        assert proof_from_blocks(a, b).verify(NullBackend())


class TestIdentity:
    def test_digest_order_normalized(self, system):
        a, b = equivocation_pair(system)
        assert (
            ByzantineProof(2, a, b).digest == ByzantineProof(2, b, a).digest
        )

    def test_digest_distinct_per_pair(self, system):
        a, b = equivocation_pair(system, round_=1)
        c, d = equivocation_pair(system, round_=4)
        assert ByzantineProof(2, a, b).digest != ByzantineProof(2, c, d).digest

    def test_proof_from_blocks_takes_author(self, system):
        a, b = equivocation_pair(system, author=3)
        assert proof_from_blocks(a, b).culprit == 3

    def test_depth_counts_the_proofs_nested_in_either_block(self, system):
        a, b = equivocation_pair(system)
        flat = ByzantineProof(2, a, b)
        assert flat.depth == 1
        parents = [genesis_block(x).digest for x in range(4)]
        carrier = make_block(2, 2, parents, byz_proofs=(flat,))
        assert ByzantineProof(2, b, carrier).depth == 2
        assert ByzantineProof(2, carrier, b).depth == 2
