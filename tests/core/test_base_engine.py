"""Unit tests for the shared engine (repro.core.base) driven by a FakeNet.

These tests poke one node directly — message by message — to pin down the
accept path, dedupe, signature gating, and reference counting.  Whole-
protocol behaviour is covered by the simulator-driven tests.
"""

import pytest

from repro.broadcast.messages import BlockVal, CoinShareMsg, RetrievalRequest
from repro.config import ProtocolConfig, SystemConfig
from repro.core.commit import references_within
from repro.core.lightdag1 import LightDag1Node
from repro.crypto.backend import HmacBackend
from repro.crypto.keys import TrustedDealer
from repro.dag.block import TxBatch, genesis_block, make_block

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


def signed_block(system, author, round_, parents, j=0):
    backend = HmacBackend(author, system)
    return make_block(round_, author, parents, repropose_index=j, signer=backend)


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
        assert not any(isinstance(m, CoinShareMsg) for _, m in net.sent)


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


class TestCoinPlumbing:
    def test_share_for_unrevealed_wave_accumulates(self, system, chains, node):
        # Build shares from other replicas' coins for wave 1.
        from repro.crypto.coin import make_coin

        coins = [make_coin("hmac", chains[i], system.seed) for i in range(4)]
        node.on_message(1, CoinShareMsg(coins[1].make_share(1)))
        node.on_message(2, CoinShareMsg(coins[2].make_share(1)))
        assert 1 not in node.revealed_leaders  # threshold is 2f+1 = 3
        node.on_message(3, CoinShareMsg(coins[3].make_share(1)))
        assert 1 in node.revealed_leaders

    def test_duplicate_share_ignored(self, system, chains, node):
        from repro.crypto.coin import make_coin

        coin1 = make_coin("hmac", chains[1], system.seed)
        share = coin1.make_share(1)
        node.on_message(1, CoinShareMsg(share))
        node.on_message(1, CoinShareMsg(share))
        assert 1 not in node.revealed_leaders
