"""Tests for repro.core.retrieval: the §IV-A block retrieval mechanism."""

import pytest

from repro.broadcast.messages import (
    MAX_REQUEST_DIGESTS,
    RetrievalRequest,
    RetrievalResponse,
)
from repro.core.retrieval import RetrievalManager
from repro.dag.block import genesis_block, make_block
from repro.dag.store import DagStore

from ..conftest import FakeNet


def chain_blocks():
    """g -> a(r1) -> b(r2): b's parent is a, a's parents are genesis."""
    a = make_block(1, 0, [genesis_block(x).digest for x in range(4)])
    b = make_block(2, 0, [a.digest])
    return a, b


@pytest.fixture
def setup():
    net = FakeNet(node_id=0, n=4)
    store = DagStore(n=4)
    manager = RetrievalManager(net, store)
    return net, store, manager


class TestRequesting:
    def test_note_pending_sends_request_to_source(self, setup):
        net, _, manager = setup
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        (dst, msg), = net.sent
        assert dst == 2
        assert isinstance(msg, RetrievalRequest)
        assert msg.digests == (a.digest,)
        assert manager.is_pending(b.digest)

    def test_no_duplicate_timers_per_digest(self, setup):
        """Re-asks ride the node's recovery tick, so asking arms no timer,
        and a second dependent of the same missing parent does not ask
        again: one open ask per digest."""
        net, _, manager = setup
        a, b = chain_blocks()
        c = make_block(2, 1, [a.digest])
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.note_pending(c, src=3, missing=[a.digest])
        assert net.timers == []
        assert len(net.sent) == 1

    def test_duplicate_pending_ignored(self, setup):
        net, _, manager = setup
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.note_pending(b, src=3, missing=[a.digest])
        assert len([m for _, m in net.sent if isinstance(m, RetrievalRequest)]) == 1

    def test_inflight_not_rerequested(self, setup):
        net, _, manager = setup
        a, b = chain_blocks()
        c = make_block(2, 1, [a.digest])
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.note_pending(c, src=3, missing=[a.digest])
        requests = [m for _, m in net.sent if isinstance(m, RetrievalRequest)]
        assert len(requests) == 1

    def test_note_pending_empty_missing_reports_complete(self, setup):
        """An empty missing list must not register a block that can never
        become ready (no parent delivery would trigger satisfied_by)."""
        net, _, manager = setup
        _, b = chain_blocks()
        assert manager.note_pending(b, src=2, missing=[]) is False
        assert not manager.is_pending(b.digest)
        assert net.sent == []

    def test_note_pending_already_stored_parent_reports_complete(self, setup):
        net, store, manager = setup
        a, b = chain_blocks()
        store.add(a)
        assert manager.note_pending(b, src=2, missing=[a.digest]) is False
        assert not manager.is_pending(b.digest)
        assert net.sent == []

    def test_note_pending_registered_returns_true(self, setup):
        _, _, manager = setup
        a, b = chain_blocks()
        assert manager.note_pending(b, src=2, missing=[a.digest]) is True
        assert manager.note_pending(b, src=3, missing=[a.digest]) is True

    def test_requested_state_pruned_on_delivery(self, setup):
        """Open asks must not grow without bound: delivery of the missing
        parent releases every trace of the request."""
        _, store, manager = setup
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        assert manager.inflight_count() == 1
        store.add(a)
        manager.satisfied_by(a.digest)
        assert manager.inflight_count() == 0
        assert a.digest not in manager._asked
        assert manager.abandoned_count == 0  # it arrived
        # a late (duplicate) response for the delivered digest is ignored
        assert manager.on_response(3, RetrievalResponse((a,))) == []

    def test_requested_state_pruned_on_drop(self, setup):
        """Dropping the only dependent cancels the parent's request too,
        and counts it as abandoned: released without arriving."""
        _, _, manager = setup
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.drop_pending(b.digest)
        assert manager.inflight_count() == 0
        assert a.digest not in manager._asked
        assert manager.abandoned_count == 1

    def test_disabled_manager_sends_nothing(self):
        net = FakeNet()
        manager = RetrievalManager(net, DagStore(n=4), enabled=False)
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        assert net.sent == []


class TestResponding:
    def test_serves_known_blocks(self, setup):
        net, store, manager = setup
        a, _ = chain_blocks()
        store.add(a)
        manager.on_request(3, RetrievalRequest((a.digest,)))
        (dst, msg), = net.sent
        assert dst == 3
        assert isinstance(msg, RetrievalResponse)
        assert msg.blocks == (a,)
        assert manager.blocks_served == 1

    def test_silent_on_unknown(self, setup):
        net, _, manager = setup
        manager.on_request(3, RetrievalRequest((b"\x01" * 32,)))
        assert net.sent == []

    def test_partial_response(self, setup):
        net, store, manager = setup
        a, _ = chain_blocks()
        store.add(a)
        manager.on_request(1, RetrievalRequest((a.digest, b"\x09" * 32)))
        (_, msg), = net.sent
        assert msg.blocks == (a,)


class TestCompletion:
    def test_satisfied_by_releases_dependent(self, setup):
        _, store, manager = setup
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        store.add(a)
        ready = manager.satisfied_by(a.digest)
        assert ready == [(b, 2, False)]
        assert not manager.is_pending(b.digest)

    def test_partial_satisfaction_keeps_pending(self, setup):
        _, store, manager = setup
        a1 = make_block(1, 0, [genesis_block(x).digest for x in range(4)])
        a2 = make_block(1, 1, [genesis_block(x).digest for x in range(4)])
        b = make_block(2, 0, [a1.digest, a2.digest])
        manager.note_pending(b, src=2, missing=[a1.digest, a2.digest], retrieved=True)
        assert manager.satisfied_by(a1.digest) == []
        assert manager.is_pending(b.digest)
        assert manager.satisfied_by(a2.digest) == [(b, 2, True)]

    def test_on_response_returns_requested_bodies(self, setup):
        _, _, manager = setup
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])  # requests a
        out = manager.on_response(2, RetrievalResponse((a,)))
        assert out == [(a, 2)]

    def test_on_response_drops_unsolicited(self, setup):
        """An unsolicited block is not digest-pinned: ignore it."""
        _, _, manager = setup
        a, _ = chain_blocks()
        assert manager.on_response(2, RetrievalResponse((a,))) == []

    def test_drop_pending_cleans_indexes(self, setup):
        _, _, manager = setup
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.drop_pending(b.digest)
        assert not manager.is_pending(b.digest)
        assert manager.satisfied_by(a.digest) == []


def tick(net, manager, period=0.5):
    """One recovery tick, ``period`` after the previous one."""
    net.advance(period)
    net.clear()
    manager.on_retry_timer()
    return [(dst, msg) for dst, msg in net.sent if isinstance(msg, RetrievalRequest)]


class TestRetry:
    def test_young_ask_is_not_repeated(self, setup):
        """An ask made since the previous tick is less than one period
        old: the tick leaves it alone, and the next one re-asks it."""
        net, _, manager = setup
        manager.on_retry_timer()  # the previous tick, at t=0
        net.advance(0.2)
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        assert tick(net, manager, period=0.3) == []
        (dst, msg), = tick(net, manager)
        assert msg.digests == (a.digest,)
        assert manager.requests_sent == 2

    def test_retry_targets_different_replica(self, setup):
        net, _, manager = setup
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.on_retry_timer()
        (first, _), = tick(net, manager)
        (second, _), = tick(net, manager)
        assert first != second

    def test_retry_avoids_previous_and_self(self, setup):
        net, _, manager = setup
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.on_retry_timer()
        previous = None
        for _ in range(10):
            (dst, _), = tick(net, manager)
            assert dst not in (0, previous)  # never ask ourselves
            previous = dst

    def test_stale_ask_rotates_over_every_other_replica(self):
        n = 7
        net = FakeNet(node_id=3, n=n)
        manager = RetrievalManager(net, DagStore(n=n))
        a = make_block(1, 0, [genesis_block(x).digest for x in range(4)])
        b = make_block(2, 0, [a.digest])
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.on_retry_timer()
        targets = []
        for _ in range(n - 1):
            (dst, msg), = tick(net, manager)
            assert msg.digests == (a.digest,)
            targets.append(dst)
        assert all(x != y for x, y in zip(targets, targets[1:]))
        assert sorted(targets) == [0, 1, 2, 4, 5, 6]  # all but ourselves

    def test_stale_digests_share_requests_chunked_at_the_cap(self, setup):
        net, _, manager = setup
        manager.on_retry_timer()
        parents = [genesis_block(x).digest for x in range(4)]
        blocks = [make_block(1, 0, parents, repropose_index=i)
                  for i in range(MAX_REQUEST_DIGESTS + 2)]
        for i, parent in enumerate(blocks):
            manager.note_pending(make_block(2, 1, [parent.digest],
                                            repropose_index=i),
                                 src=2, missing=[parent.digest])
        first, second = tick(net, manager)
        assert first[0] == second[0]  # one target per tick
        assert len(first[1].digests) == MAX_REQUEST_DIGESTS
        assert len(second[1].digests) == 2
        asked = first[1].digests + second[1].digests
        assert list(asked) == sorted(b.digest for b in blocks)

    def test_retry_noop_once_satisfied(self, setup):
        net, store, manager = setup
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.on_retry_timer()
        store.add(a)
        manager.satisfied_by(a.digest)
        assert tick(net, manager) == []
        assert manager.inflight_count() == 0

    def test_revive_reasks_the_sender_at_once(self, setup):
        """A duplicate VAL of a parked block re-asks its missing parents
        from its sender, whatever the age of the open ask."""
        net, _, manager = setup
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        net.clear()
        manager.revive(b.digest)
        (dst, msg), = net.sent
        assert dst == 2
        assert msg.digests == (a.digest,)
