"""Tests for repro.broadcast.cbc: the two-step consistent broadcast."""

import pytest

from repro.broadcast.cbc import CbcManager
from repro.broadcast.messages import BlockEcho, BlockVal
from repro.dag.block import genesis_block, make_block

from ..conftest import FakeNet

QUORUM = 3  # n=4, f=1


def sample_block(author=0, round_=1, j=0):
    return make_block(round_, author, [genesis_block(a).digest for a in range(4)],
                      repropose_index=j)


def echo_for(block):
    return BlockEcho(round=block.round, author=block.author, digest=block.digest)


@pytest.fixture
def setup():
    net = FakeNet(node_id=0, n=4)
    delivered = []
    manager = CbcManager(net, quorum=QUORUM, on_deliver=delivered.append)
    return net, manager, delivered


class TestVoting:
    def test_vote_broadcasts_echo(self, setup):
        net, manager, _ = setup
        block = sample_block()
        manager.on_val(1, block)
        manager.vote(block)
        echoes = [m for _, m in net.sent if isinstance(m, BlockEcho)]
        assert len(echoes) == 4  # one per replica
        assert echoes[0].digest == block.digest

    def test_vote_idempotent_per_digest(self, setup):
        net, manager, _ = setup
        block = sample_block()
        manager.vote(block)
        sent_before = len(net.sent)
        manager.vote(block)
        assert len(net.sent) == sent_before

    def test_vote_bookkeeping_per_slot(self, setup):
        _, manager, _ = setup
        block = sample_block()
        assert not manager.has_voted_in_slot(block.slot)
        manager.vote(block)
        assert manager.has_voted_in_slot(block.slot)
        assert manager.votes_in_slot(block.slot) == [block.digest]

    def test_multiple_votes_per_slot_recorded(self, setup):
        """LightDAG2 may legitimately vote original + reproposal (Fig 10b)."""
        _, manager, _ = setup
        a, b = sample_block(j=0), sample_block(j=1)
        manager.vote(a)
        manager.vote(b)
        assert manager.votes_in_slot(a.slot) == [a.digest, b.digest]


class TestDeliveryPredicate:
    def test_quorum_echoes_plus_body_plus_ready(self, setup):
        _, manager, delivered = setup
        block = sample_block()
        manager.on_val(1, block)
        manager.mark_ready(block.digest)
        for src in range(QUORUM - 1):
            assert not manager.on_echo(src, echo_for(block))
        assert delivered == []
        assert manager.on_echo(QUORUM - 1, echo_for(block))
        assert delivered == [block]

    def test_no_delivery_without_ready(self, setup):
        _, manager, delivered = setup
        block = sample_block()
        manager.on_val(1, block)
        for src in range(4):
            manager.on_echo(src, echo_for(block))
        assert delivered == []
        assert manager.echo_complete(block.digest)
        manager.mark_ready(block.digest)
        assert delivered == [block]

    def test_no_delivery_without_body(self, setup):
        _, manager, delivered = setup
        block = sample_block()
        manager.mark_ready(block.digest)
        for src in range(4):
            manager.on_echo(src, echo_for(block))
        assert delivered == []  # echoes + ready, but no body yet
        manager.on_val(2, block)
        manager.mark_ready(block.digest)  # body arrived; re-drive
        assert delivered == [block]

    def test_duplicate_echoes_not_counted(self, setup):
        _, manager, delivered = setup
        block = sample_block()
        manager.on_val(1, block)
        manager.mark_ready(block.digest)
        for _ in range(5):
            manager.on_echo(1, echo_for(block))
        assert delivered == []

    def test_single_delivery(self, setup):
        _, manager, delivered = setup
        block = sample_block()
        manager.on_val(1, block)
        manager.mark_ready(block.digest)
        for src in range(4):
            manager.on_echo(src, echo_for(block))
        assert delivered == [block]

    def test_echoers_tracked(self, setup):
        _, manager, _ = setup
        block = sample_block()
        manager.on_echo(2, echo_for(block))
        manager.on_echo(3, echo_for(block))
        assert manager.tracker.peek(block.digest).echoers == 0b1100


class TestConsistencyMechanics:
    def test_split_votes_no_quorum(self, setup):
        """If honest replicas split between two blocks of one slot, neither
        reaches quorum — the counting argument behind CBC consistency."""
        _, manager, delivered = setup
        a, b = sample_block(j=0), sample_block(j=1)
        manager.on_val(1, a)
        manager.on_val(1, b)
        manager.mark_ready(a.digest)
        manager.mark_ready(b.digest)
        manager.on_echo(0, echo_for(a))
        manager.on_echo(1, echo_for(a))
        manager.on_echo(2, echo_for(b))
        manager.on_echo(3, echo_for(b))
        assert delivered == []

    def test_echoes_accumulate_before_body(self, setup):
        """A replica that missed the VAL still counts everyone's echoes and
        delivers as soon as retrieval supplies the body."""
        _, manager, delivered = setup
        block = sample_block()
        for src in range(QUORUM):
            manager.on_echo(src, echo_for(block))
        assert manager.echo_complete(block.digest)
        manager.on_val(3, block)  # e.g. retrieval response
        manager.mark_ready(block.digest)
        assert delivered == [block]
