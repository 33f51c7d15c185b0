"""Unit tests for broadcast-layer garbage collection (gc_below).

The commit-horizon sweep added for large-n runs: every manager drops its
per-instance state (and any slot-keyed side tables) for rounds below the
watermark, keeps everything at or above it, keeps round-unknown stubs,
and stays correct when a straggler message resurrects a pruned digest.
"""

import pytest

from repro.broadcast.base import InstanceTracker
from repro.broadcast.cbc import CbcManager
from repro.broadcast.messages import BlockEcho, BlockReady
from repro.broadcast.pbc import PbcManager
from repro.broadcast.rbc import RbcManager
from repro.dag.block import genesis_block, make_block

from ..conftest import FakeNet

QUORUM = 3  # n=4, f=1


def block_at(round_, author=0, j=0):
    return make_block(
        round_, author, [genesis_block(a).digest for a in range(4)],
        repropose_index=j,
    )


def echo_for(block):
    return BlockEcho(round=block.round, author=block.author, digest=block.digest)


class TestTrackerGcBelow:
    def test_prunes_only_below_horizon(self):
        tracker = InstanceTracker(on_deliver=lambda b: None)
        old, young = block_at(3), block_at(9)
        tracker.record_body(old)
        tracker.record_body(young)
        removed = tracker.gc_below(5)
        assert removed == 1
        assert tracker.peek(old.digest) is None
        assert tracker.peek(young.digest) is not None

    def test_unstamped_instances_survive(self):
        """An instance created by an out-of-order echo before any round
        stamp (round == -1) is transient in-flight state, not GC fodder."""
        tracker = InstanceTracker(on_deliver=lambda b: None)
        inst = tracker.state(b"\x01" * 32)
        assert inst.round == -1
        assert tracker.gc_below(100) == 0
        assert tracker.peek(b"\x01" * 32) is not None

    def test_horizon_is_exclusive(self):
        tracker = InstanceTracker(on_deliver=lambda b: None)
        tracker.record_body(block_at(5))
        assert tracker.gc_below(5) == 0  # round 5 is not below horizon 5
        assert tracker.gc_below(6) == 1

    def test_round_stamped_by_messages_not_just_bodies(self):
        """Echo/ready handlers stamp rounds too, so body-less instances
        are still sweepable once any message names their round."""
        net = FakeNet(node_id=0, n=4)
        manager = RbcManager(net, quorum=QUORUM, amplify_threshold=2,
                             on_deliver=lambda b: None)
        block = block_at(2)
        manager.on_echo(1, echo_for(block))
        manager.on_ready(
            1, BlockReady(round=block.round, author=block.author,
                          digest=block.digest)
        )
        inst = manager.tracker.peek(block.digest)
        assert inst.round == 2
        assert manager.gc_below(5) >= 1
        assert manager.tracker.peek(block.digest) is None


class TestCbcGc:
    def test_sweeps_instances_and_vote_slots(self):
        net = FakeNet(node_id=0, n=4)
        delivered = []
        manager = CbcManager(net, quorum=QUORUM, on_deliver=delivered.append)
        old, young = block_at(2), block_at(8)
        for block in (old, young):
            manager.on_val(block.author, block)
            manager.vote(block)
        assert old.slot in manager.votes_by_slot
        manager.gc_below(5)
        assert old.slot not in manager.votes_by_slot
        assert young.slot in manager.votes_by_slot
        assert manager.tracker.peek(old.digest) is None
        assert manager.tracker.peek(young.digest) is not None

    def test_straggler_echo_after_prune_cannot_deliver(self):
        """A quorum of echoes for a pruned digest recreates only an empty
        stub: no body, not ready, so the single-delivery discipline holds
        and the next sweep removes the stub again."""
        net = FakeNet(node_id=0, n=4)
        delivered = []
        manager = CbcManager(net, quorum=QUORUM, on_deliver=delivered.append)
        block = block_at(2)
        manager.on_val(block.author, block)
        manager.mark_ready(block.digest)
        for src in range(QUORUM):
            manager.on_echo(src, echo_for(block))
        assert delivered == [block]
        manager.gc_below(5)

        for src in range(QUORUM):
            assert manager.on_echo(src, echo_for(block)) is False
        assert delivered == [block]  # no double delivery
        stub = manager.tracker.peek(block.digest)
        assert stub.body is None and not stub.ready
        assert stub.round == block.round  # the echo re-stamped it...
        manager.gc_below(5)
        assert manager.tracker.peek(block.digest) is None  # ...so it re-GCs


class TestRbcGc:
    def test_sweeps_slot_maps(self):
        net = FakeNet(node_id=0, n=4)
        manager = RbcManager(net, quorum=QUORUM, amplify_threshold=2,
                             on_deliver=lambda b: None)
        old, young = block_at(2), block_at(8)
        for block in (old, young):
            manager.on_val(block.author, block)
            manager.echo(block)
        assert manager._echoed_digest[old.slot] == old.digest
        manager.gc_below(5)
        assert old.slot not in manager._echoed_digest
        assert manager._echoed_digest[young.slot] == young.digest


def cbc_manager(net, on_deliver):
    return CbcManager(net, quorum=QUORUM, on_deliver=on_deliver)


def rbc_manager(net, on_deliver):
    return RbcManager(net, quorum=QUORUM, amplify_threshold=2, on_deliver=on_deliver)


def cast_votes(manager, src, block, round_):
    """``src``'s ECHO — and READY, where the primitive has one — for
    ``block``, claiming it is of ``round_``."""
    named = dict(round=round_, author=block.author, digest=block.digest)
    manager.on_echo(src, BlockEcho(**named))
    if isinstance(manager, RbcManager):
        manager.on_ready(src, BlockReady(**named))


@pytest.mark.parametrize("make_manager", [cbc_manager, rbc_manager])
class TestVoteRoundIsOnlyAClaim:
    """The round a vote names is its sender's word; the body's is a fact."""

    def test_lying_vote_cannot_evict_a_live_instance(self, make_manager):
        delivered = []
        manager = make_manager(FakeNet(node_id=0, n=4), delivered.append)
        block = block_at(10)
        manager.on_val(block.author, block)
        manager.mark_ready(block.digest)
        cast_votes(manager, 3, block, round_=1)  # Byzantine: true digest, old round
        assert manager.tracker.peek(block.digest).round == 10
        assert manager.gc_below(5) == 0
        for src in range(QUORUM):
            cast_votes(manager, src, block, round_=block.round)
        assert delivered == [block]

    def test_honest_votes_correct_a_lie_told_before_the_body(self, make_manager):
        delivered = []
        manager = make_manager(FakeNet(node_id=0, n=4), delivered.append)
        block = block_at(10)
        cast_votes(manager, 3, block, round_=1)
        cast_votes(manager, 0, block, round_=block.round)
        cast_votes(manager, 3, block, round_=1)  # a repeated lie moves nothing
        assert manager.tracker.peek(block.digest).round == 10
        assert manager.gc_below(5) == 0
        manager.on_val(block.author, block)
        manager.mark_ready(block.digest)
        for src in (1, 2):
            cast_votes(manager, src, block, round_=block.round)
        assert delivered == [block]

    def test_body_overrules_a_vote_that_named_a_later_round(self, make_manager):
        manager = make_manager(FakeNet(node_id=0, n=4), lambda b: None)
        block = block_at(3)
        cast_votes(manager, 3, block, round_=99)
        manager.on_val(block.author, block)
        assert manager.tracker.peek(block.digest).round == 3
        assert manager.gc_below(5) >= 1
        assert manager.tracker.peek(block.digest) is None


class TestPbcGc:
    def test_sweeps_instances(self):
        net = FakeNet(node_id=0, n=4)
        manager = PbcManager(net, on_deliver=lambda b: None)
        old, young = block_at(2), block_at(8)
        for block in (old, young):
            manager.on_val(block.author, block)
        removed = manager.gc_below(5)
        assert removed == 1
        assert manager.tracker.peek(old.digest) is None
        assert manager.tracker.peek(young.digest) is not None
