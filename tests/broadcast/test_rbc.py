"""Tests for repro.broadcast.rbc: Bracha reliable broadcast."""

import pytest

from repro.broadcast.messages import BlockEcho, BlockReady, BlockVal
from repro.broadcast.rbc import RbcManager
from repro.dag.block import genesis_block, make_block

from ..conftest import FakeNet

QUORUM = 3  # n - f for n=4
AMPLIFY = 2  # f + 1


def sample_block(author=0, round_=1, j=0):
    return make_block(round_, author, [genesis_block(a).digest for a in range(4)],
                      repropose_index=j)


def echo_for(block):
    return BlockEcho(block.round, block.author, block.digest)


def ready_for(block):
    return BlockReady(block.round, block.author, block.digest)


@pytest.fixture
def setup():
    net = FakeNet(node_id=0, n=4)
    delivered = []
    manager = RbcManager(net, quorum=QUORUM, amplify_threshold=AMPLIFY,
                         on_deliver=delivered.append)
    return net, manager, delivered


class TestEchoDiscipline:
    def test_echo_once_per_slot(self, setup):
        net, manager, _ = setup
        a, b = sample_block(j=0), sample_block(j=1)
        manager.on_val(1, a)
        manager.echo(a)
        echoes_before = sum(isinstance(m, BlockEcho) for _, m in net.sent)
        manager.on_val(1, b)
        manager.echo(b)  # same slot: suppressed — RBC consistency
        echoes_after = sum(isinstance(m, BlockEcho) for _, m in net.sent)
        assert echoes_before == echoes_after == 4

    def test_echo_distinct_slots(self, setup):
        net, manager, _ = setup
        a, b = sample_block(author=0), sample_block(author=1)
        manager.echo(a)
        manager.echo(b)
        assert sum(isinstance(m, BlockEcho) for _, m in net.sent) == 8


class TestReadyTransitions:
    def test_ready_on_echo_quorum(self, setup):
        net, manager, _ = setup
        block = sample_block()
        for src in range(QUORUM):
            manager.on_echo(src, echo_for(block))
        readys = [m for _, m in net.sent if isinstance(m, BlockReady)]
        assert len(readys) == 4  # broadcast once

    def test_no_ready_below_quorum(self, setup):
        net, manager, _ = setup
        block = sample_block()
        for src in range(QUORUM - 1):
            manager.on_echo(src, echo_for(block))
        assert not any(isinstance(m, BlockReady) for _, m in net.sent)

    def test_ready_amplification(self, setup):
        """f+1 READYs trigger our own READY even without echo quorum —
        the Bracha amplification that buys totality."""
        net, manager, _ = setup
        block = sample_block()
        for src in (1, 2):  # f + 1 = 2
            manager.on_ready(src, ready_for(block))
        readys = [m for _, m in net.sent if isinstance(m, BlockReady)]
        assert len(readys) == 4

    def test_ready_sent_once(self, setup):
        net, manager, _ = setup
        block = sample_block()
        for src in range(4):
            manager.on_echo(src, echo_for(block))
        for src in range(4):
            manager.on_ready(src, ready_for(block))
        readys = [m for _, m in net.sent if isinstance(m, BlockReady)]
        assert len(readys) == 4


class TestDelivery:
    def drive_to_quorum(self, manager, block):
        for src in range(QUORUM):
            manager.on_ready(src, ready_for(block))

    def test_full_predicate(self, setup):
        _, manager, delivered = setup
        block = sample_block()
        manager.on_val(1, block)
        manager.mark_ready(block.digest)
        self.drive_to_quorum(manager, block)
        assert delivered == [block]

    def test_no_delivery_without_ready_quorum(self, setup):
        _, manager, delivered = setup
        block = sample_block()
        manager.on_val(1, block)
        manager.mark_ready(block.digest)
        for src in range(QUORUM - 1):
            manager.on_ready(src, ready_for(block))
        assert delivered == []

    def test_no_delivery_without_gate(self, setup):
        _, manager, delivered = setup
        block = sample_block()
        manager.on_val(1, block)
        self.drive_to_quorum(manager, block)
        assert delivered == []
        assert manager.ready_complete(block.digest)
        manager.mark_ready(block.digest)
        assert delivered == [block]

    def test_single_delivery(self, setup):
        _, manager, delivered = setup
        block = sample_block()
        manager.on_val(1, block)
        manager.mark_ready(block.digest)
        for src in range(4):
            manager.on_ready(src, ready_for(block))
        assert delivered == [block]

    def test_body_via_retrieval_path(self, setup):
        _, manager, delivered = setup
        block = sample_block()
        self.drive_to_quorum(manager, block)
        manager.on_val(2, block)
        manager.mark_ready(block.digest)
        assert delivered == [block]

    def test_introspection(self, setup):
        _, manager, _ = setup
        block = sample_block()
        assert manager.body_of(block.digest) is None
        manager.on_val(1, block)
        assert manager.body_of(block.digest) is block
        manager.on_echo(2, echo_for(block))
        assert manager.tracker.peek(block.digest).echoers == 0b100
        assert not manager.is_delivered(block.digest)
