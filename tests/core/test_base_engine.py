"""Unit tests for the shared engine (repro.core.base) driven by a FakeNet.

These tests poke one node directly — message by message — to pin down the
accept path, dedupe, signature gating, and reference counting.  Whole-
protocol behaviour is covered by the simulator-driven tests.
"""

from dataclasses import replace

import pytest

from repro.broadcast.messages import (
    BlockVal,
    RetrievalRequest,
    RetrievalResponse,
)
from repro.config import ProtocolConfig, SystemConfig
from repro.core.base import STALL_CHECK_PERIOD, STALL_CHECK_TAG
from repro.core.commit import references_within
from repro.core.lightdag1 import LightDag1Node
from repro.crypto.backend import HmacBackend
from repro.crypto.coin import make_coin
from repro.crypto.keys import TrustedDealer
from repro.dag.block import genesis_block, make_block
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulation

from ..conftest import FakeNet


@pytest.fixture
def system():
    return SystemConfig(n=4, crypto="hmac", seed=0)


@pytest.fixture
def chains(system):
    return TrustedDealer(system).deal()


@pytest.fixture
def node(system, chains):
    n = LightDag1Node(FakeNet(node_id=0, n=4), system, ProtocolConfig(batch_size=5), chains[0])
    n.on_start()
    n.net.clear()
    return n


def signed_block(system, author, round_, parents, j=0, coin_share=None):
    backend = HmacBackend(author, system)
    return make_block(
        round_, author, parents, repropose_index=j, coin_share=coin_share,
        signer=backend,
    )


def genesis_parents():
    return [genesis_block(a).digest for a in range(4)]


class TestStartup:
    def test_on_start_proposes_round_one(self, system, chains):
        net = FakeNet(node_id=0, n=4)
        node = LightDag1Node(net, system, ProtocolConfig(batch_size=5), chains[0])
        node.on_start()
        vals = [m for _, m in net.sent if isinstance(m, BlockVal)]
        assert len(vals) == 4  # broadcast to everyone incl. self
        assert vals[0].block.round == 1
        assert node.next_round == 2

    def test_round_one_references_genesis_quorum(self, system, chains):
        net = FakeNet(node_id=0, n=4)
        node = LightDag1Node(net, system, ProtocolConfig(batch_size=5), chains[0])
        node.on_start()
        block = next(m.block for _, m in net.sent if isinstance(m, BlockVal))
        assert len(block.parents) == 4  # references every genesis slot

    def test_no_coin_share_in_early_rounds(self, system, chains):
        net = FakeNet(node_id=0, n=4)
        node = LightDag1Node(net, system, ProtocolConfig(batch_size=5), chains[0])
        node.on_start()
        vals = [m for _, m in net.sent if isinstance(m, BlockVal)]
        assert vals and all(m.block.coin_share is None for m in vals)


class TestAcceptPath:
    def test_valid_block_voted(self, system, node):
        block = signed_block(system, 1, 1, genesis_parents())
        node.on_message(1, BlockVal(block))
        assert node.cbc.has_voted_in_slot(block.slot)

    def test_bad_signature_ignored(self, system, node):
        backend = HmacBackend(2, system)  # wrong signer for author 1
        block = make_block(1, 1, genesis_parents(), signer=backend)
        node.on_message(1, BlockVal(block))
        assert not node.cbc.has_voted_in_slot(block.slot)

    def test_unknown_author_ignored(self, system, node):
        block = make_block(1, 9, genesis_parents())
        node.on_message(1, BlockVal(block))
        assert block.digest in node._invalid

    def test_structurally_invalid_marked(self, system, node):
        # Only 2 parents < quorum of 3.
        block = signed_block(system, 1, 1, genesis_parents()[:2])
        node.on_message(1, BlockVal(block))
        assert block.digest in node._invalid
        assert not node.cbc.has_voted_in_slot(block.slot)

    def test_duplicate_val_refreshes_echo_only(self, system, node):
        """A duplicate VAL (a peer's stall-recovery re-broadcast) may only
        re-send our existing ECHO — never a second vote or new state."""
        from repro.broadcast.messages import BlockEcho

        block = signed_block(system, 1, 1, genesis_parents())
        node.on_message(1, BlockVal(block))
        votes_after_first = node.cbc.votes_in_slot(block.slot)
        sent_after_first = len(node.net.sent)
        node.on_message(2, BlockVal(block))
        assert node.cbc.votes_in_slot(block.slot) == votes_after_first
        new_messages = [m for _, m in node.net.sent[sent_after_first:]]
        assert all(
            isinstance(m, BlockEcho) and m.digest == block.digest
            for m in new_messages
        )

    def test_missing_parents_trigger_retrieval(self, system, node):
        parent = signed_block(system, 1, 1, genesis_parents())
        child = signed_block(system, 1, 2, [parent.digest] + genesis_parents()[:2])
        node.net.clear()
        node.on_message(1, BlockVal(child))
        requests = [m for _, m in node.net.sent if isinstance(m, RetrievalRequest)]
        assert len(requests) == 1
        assert parent.digest in requests[0].digests
        assert node.retrieval.is_pending(child.digest)

    def test_duplicate_val_of_a_parked_block_reasks_at_once(self, system, node):
        """A stall re-broadcast of a parked block re-asks its sender for
        the missing parents without waiting for the recovery tick."""
        parent = signed_block(system, 1, 1, genesis_parents())
        child = signed_block(system, 1, 2, [parent.digest] + genesis_parents()[:2])
        node.on_message(1, BlockVal(child))
        node.net.clear()
        node.on_message(1, BlockVal(child))
        requests = [
            (dst, m) for dst, m in node.net.sent if isinstance(m, RetrievalRequest)
        ]
        assert requests == [(1, RetrievalRequest((parent.digest,)))]

    def test_recovery_tick_reasks_stale_parents(self, system, node):
        parent = signed_block(system, 1, 1, genesis_parents())
        child = signed_block(system, 1, 2, [parent.digest] + genesis_parents()[:2])
        node.on_message(1, BlockVal(child))
        node.on_timer(STALL_CHECK_TAG)  # the ask is younger than a period
        node.net.advance(STALL_CHECK_PERIOD)
        node.net.clear()
        node.on_timer(STALL_CHECK_TAG)
        requests = [m for _, m in node.net.sent if isinstance(m, RetrievalRequest)]
        assert requests == [RetrievalRequest((parent.digest,))]

    def test_repeated_vals_do_not_hold_back_the_rotation(self, system, node):
        """A sender that ignores requests and re-sends the parked block's
        VAL more often than the tick cannot keep the ask young: every tick
        still re-asks the parent, each time of the next replica."""
        parent = signed_block(system, 1, 1, genesis_parents())
        child = signed_block(system, 1, 2, [parent.digest] + genesis_parents()[:2])
        node.on_message(1, BlockVal(child))
        node.on_timer(STALL_CHECK_TAG)
        step = STALL_CHECK_PERIOD / 10
        tick_targets = []
        for k in range(1, 31):  # six ticks, a VAL every 0.8 periods
            node.net.advance(step)
            if k % 8 == 0:
                node.on_message(1, BlockVal(child))
            if k % 10 == 0:
                node.net.clear()
                node.on_timer(STALL_CHECK_TAG)
                (dst, msg), = [(dst, m) for dst, m in node.net.sent
                               if isinstance(m, RetrievalRequest)]
                assert msg.digests == (parent.digest,)
                tick_targets.append(dst)
        assert set(tick_targets[:3]) == {1, 2, 3}  # every peer within n - 1 ticks

    def test_one_vote_per_slot(self, system, node):
        a = signed_block(system, 1, 1, genesis_parents(), j=0)
        b = signed_block(system, 1, 1, genesis_parents(), j=1)
        node.on_message(1, BlockVal(a))
        node.on_message(1, BlockVal(b))
        assert node.cbc.votes_in_slot((1, 1)) == [a.digest]


class TestCanPropose:
    def test_short_of_a_quorum_no_slot_is_probed(self, system, node, monkeypatch):
        """The common advance-timer wake-up: fewer occupied slots in the
        previous round than a quorum answers False off the count alone."""
        probes = []
        monkeypatch.setattr(
            node.store, "authors_in_round", lambda r: probes.append(r) or set()
        )
        for author in (1, 2):  # own block undelivered: two slots < quorum 3
            node.store.add(signed_block(system, author, 1, genesis_parents()))
        assert node.store.round_author_count(1) == 2
        assert not node._can_propose(2)
        assert probes == []

    def test_a_quorum_of_slots_still_asks_which_parents_are_allowed(
        self, system, node, monkeypatch
    ):
        for author in (1, 2, 3):
            node.store.add(signed_block(system, author, 1, genesis_parents()))
        assert node._can_propose(2)
        monkeypatch.setattr(node, "_parent_allowed", lambda block: block.author != 3)
        assert not node._can_propose(2)  # three slots, two allowed parents


class TestReferenceCounting:
    def test_references_within_depth_one(self, system, node):
        block = signed_block(system, 1, 1, genesis_parents())
        node.store.add(block)
        child = signed_block(system, 2, 2, [block.digest])
        node.store.add(child)
        assert references_within(node.store, child, block.digest, 1)
        assert not references_within(node.store, child, b"\x01" * 32, 1)

    def test_references_within_depth_two(self, system, node):
        a = signed_block(system, 1, 1, genesis_parents())
        node.store.add(a)
        b = signed_block(system, 2, 2, [a.digest])
        node.store.add(b)
        c = signed_block(system, 3, 3, [b.digest])
        node.store.add(c)
        assert not references_within(node.store, c, a.digest, 1)
        assert references_within(node.store, c, a.digest, 2)

    def test_genesis_reachable(self, system, node):
        block = signed_block(system, 1, 1, genesis_parents())
        node.store.add(block)
        assert references_within(node.store, block, genesis_block(0).digest, 1)


def coins(system, chains):
    return [make_coin("hmac", chain, system.seed) for chain in chains]


#: A bad share where one is due (LightDAG1 ends wave w at round 2w + 1),
#: made from the author's coin and another replica's.
DUE_SHARE_FAULTS = {
    "missing": lambda coin, other, wave: None,
    "wrong_wave": lambda coin, other, wave: coin.make_share(wave + 1),
    "wrong_author": lambda coin, other, wave: other.make_share(wave),
    "forged": lambda coin, other, wave: replace(coin.make_share(wave), payload=bytes(32)),
}


class TestCoinPlumbing:
    """Shares ride in last-round blocks (LightDAG1's wave 1 ends at round
    3).  Parents are unknown here, so each block parks in retrieval, but
    its share counts as soon as the body is authenticated."""

    def test_share_for_unrevealed_wave_accumulates(self, system, chains, node):
        coin = coins(system, chains)
        for author in (1, 2, 3):
            block = signed_block(
                system, author, 3, genesis_parents(),
                coin_share=coin[author].make_share(1),
            )
            node.on_message(author, BlockVal(block))
            # the threshold is 2f+1 = 3
            assert (1 in node.revealed_leaders) == (author == 3)

    def test_duplicate_share_ignored(self, system, chains, node):
        share = coins(system, chains)[1].make_share(1)
        block = signed_block(system, 1, 3, genesis_parents(), coin_share=share)
        twin = signed_block(system, 1, 3, genesis_parents(), j=1, coin_share=share)
        node.on_message(1, BlockVal(block))
        node.on_message(2, BlockVal(block))
        node.on_message(1, BlockVal(twin))  # an equivocation repeats the share
        assert node.coin.pending_share_count(1) == 1
        assert 1 not in node.revealed_leaders

    def test_retrieved_block_brings_its_share(self, system, chains, node):
        """A replica that missed the last-round VALs gets their shares back
        with the bodies, by retrieval: there is no other recovery path."""
        coin = coins(system, chains)
        last = [
            signed_block(system, a, 3, genesis_parents(), coin_share=coin[a].make_share(1))
            for a in (1, 2, 3)
        ]
        node.on_message(1, BlockVal(signed_block(system, 1, 4, [b.digest for b in last])))
        assert node.coin.pending_share_count(1) == 0
        node.on_message(2, RetrievalResponse(tuple(last)))
        assert 1 in node.revealed_leaders

    @pytest.mark.parametrize("fault", sorted(DUE_SHARE_FAULTS))
    def test_bad_share_where_one_is_due_is_rejected(self, system, chains, node, fault):
        coin = coins(system, chains)
        share = DUE_SHARE_FAULTS[fault](coin[1], coin[2], 1)
        block = signed_block(system, 1, 3, genesis_parents(), coin_share=share)
        node.on_message(1, BlockVal(block))
        assert block.digest in node._invalid
        assert block.digest not in node._known
        assert node.coin.pending_share_count(1) == node.coin.pending_share_count(2) == 0

    def test_share_where_none_is_due_is_rejected(self, system, chains, node):
        share = coins(system, chains)[1].make_share(1)
        block = signed_block(system, 1, 2, genesis_parents(), coin_share=share)
        node.on_message(1, BlockVal(block))
        assert block.digest in node._invalid
        assert node.coin.pending_share_count(1) == 0

    @pytest.mark.parametrize("fault", sorted(DUE_SHARE_FAULTS) + ["extra"])
    def test_every_coin_still_reveals_with_one_hostile_author(self, system, chains, fault):
        """n = 4 and replica 3 puts bad shares in its blocks: those blocks
        are rejected, and the three honest shares reveal every wave."""

        class Hostile(LightDag1Node):
            def _make_block(self, round_, parents, payload, **fields):
                wave = self._share_wave(round_)
                if fault == "extra":
                    share = None if wave else self.coin.make_share(1)
                elif wave is None:
                    share = None
                else:
                    other = make_coin("hmac", chains[0], system.seed)
                    share = DUE_SHARE_FAULTS[fault](self.coin, other, wave)
                return make_block(
                    round_, self.node_id, parents, payload, coin_share=share,
                    signer=self.backend, **fields,
                )

        protocol = ProtocolConfig(batch_size=5)
        sim = Simulation(
            [
                lambda net, i=i: (Hostile if i == 3 else LightDag1Node)(
                    net, system, protocol, chains[i]
                )
                for i in range(4)
            ],
            latency_model=FixedLatency(0.05),
            seed=1,
        )
        sim.run(until=4.0)
        for node in sim.nodes[:3]:
            waves = (node.store.highest_round() - 1) // 2
            assert waves >= 10
            assert all(node.coin.leader_of(w) is not None for w in range(1, waves + 1))
            assert node.committed_blocks > 0
            last_rounds = {2 * w + 1 for w in range(1, waves + 1)}
            bad_rounds = [
                r for r in range(1, 2 * waves + 2)
                if (r in last_rounds) == (fault != "extra")
            ]
            assert all(node.store.block_in_slot(r, 3) is None for r in bad_rounds)
