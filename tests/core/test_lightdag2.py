"""LightDAG2 protocol tests (§V): Rules 1-4, proofs, reproposals, exclusion.

Two layers: FakeNet-driven unit tests that pin each rule's mechanics on a
single node, and simulator-driven tests covering whole-system behaviour
under equivocation.
"""

import pytest

from repro.broadcast.messages import (
    BlockEcho,
    BlockVal,
    ByzantineProofMsg,
    ContradictionNotice,
)
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag2 import LightDag2Node
from repro.codec.messages import decode_message, encode_message
from repro.core.proofs import MAX_PROOF_DEPTH, ByzantineProof, proof_from_blocks
from repro.crypto.backend import HmacBackend
from repro.crypto.coin import make_coin
from repro.crypto.keys import TrustedDealer
from repro.dag.block import genesis_block, make_block

from ..conftest import FakeNet


@pytest.fixture
def system():
    return SystemConfig(n=4, crypto="hmac", seed=0)


@pytest.fixture
def chains(system):
    return TrustedDealer(system).deal()


def make_node(system, chains, node_id=0):
    node = LightDag2Node(
        FakeNet(node_id=node_id, n=4), system, ProtocolConfig(batch_size=5), chains[node_id]
    )
    node.on_start()
    return node


def pump(node):
    """Fire queued zero-delay advance timers (FakeNet doesn't).

    Only the advance tick is replayed: the periodic stall check re-arms
    itself on every fire and would loop forever here.
    """
    from repro.core.base import ADVANCE_TAG

    pending = [t for t in node.net.timers if t[1] == ADVANCE_TAG]
    node.net.timers.clear()
    while pending:
        _, tag, data = pending.pop(0)
        node.on_timer(tag, data)
        pending.extend(
            t for t in node.net.timers if t[1] == ADVANCE_TAG
        )
        node.net.timers.clear()


def signed(system, author, round_, parents, j=0):
    return make_block(
        round_, author, parents, repropose_index=j, signer=HmacBackend(author, system)
    )


def genesis_parents():
    return [genesis_block(a).digest for a in range(4)]


def feed_round1(node, system, equivocator=None):
    """Deliver round-1 PBC blocks from replicas 1-3; if ``equivocator`` is
    set, that author's slot receives TWO contradictory blocks.  Returns the
    blocks by (author, j)."""
    blocks = {}
    for author in (1, 2, 3):
        block = signed(system, author, 1, genesis_parents())
        node.on_message(author, BlockVal(block))
        blocks[(author, 0)] = block
    if equivocator is not None:
        twin = signed(system, equivocator, 1, genesis_parents(), j=1)
        node.on_message(equivocator, BlockVal(twin))
        blocks[(equivocator, 1)] = twin
    return blocks


class TestRoundShape:
    def test_round_kinds(self):
        assert [LightDag2Node.round_kind(r) for r in (1, 2, 3, 4, 5, 6)] == [1, 2, 3, 1, 2, 3]

    def test_wave_of(self):
        assert [LightDag2Node.wave_of(r) for r in (1, 3, 4, 6, 7)] == [1, 1, 2, 2, 3]

    def test_manager_selection(self, system, chains):
        node = make_node(system, chains)
        assert node._manager_for_round(1) is node.pbc
        assert node._manager_for_round(2) is node.cbc
        assert node._manager_for_round(3) is node.pbc

    def test_commit_threshold_is_n_minus_f(self, system, chains):
        assert make_node(system, chains).commit.support_threshold == 3

    def test_echo_and_ready_for_a_pbc_round_are_ignored(self, system, chains):
        """PBC has neither step: a (Byzantine) ECHO or READY naming a PBC
        round is routed nowhere instead of reaching a manager without the
        handler."""
        from repro.broadcast.messages import BlockEcho, BlockReady

        node = make_node(system, chains)
        block = signed(system, 1, 1, genesis_parents())
        node.on_message(1, BlockEcho(round=1, author=1, digest=block.digest))
        node.on_message(1, BlockReady(round=2, author=1, digest=block.digest))
        assert node.pbc.tracker.peek(block.digest) is None
        assert node.cbc.tracker.peek(block.digest) is None


class TestPbcDelivery:
    def test_round1_blocks_deliver_without_votes(self, system, chains):
        node = make_node(system, chains)
        feed_round1(node, system)
        for author in (1, 2, 3):
            assert node.store.block_in_slot(1, author) is not None
        assert not any(isinstance(m, BlockEcho) for _, m in node.net.sent)

    def test_equivocated_slot_holds_both(self, system, chains):
        node = make_node(system, chains)
        feed_round1(node, system, equivocator=3)
        assert node.store.slot_is_equivocated(1, 3)
        assert len(node.store.blocks_in_slot(1, 3)) == 2


class TestRule2Voting:
    def test_consistent_cbc_block_gets_vote(self, system, chains):
        node = make_node(system, chains)
        blocks = feed_round1(node, system)
        cbc_block = signed(system, 1, 2, [blocks[(a, 0)].digest for a in (1, 2, 3)])
        node.on_message(1, BlockVal(cbc_block))
        assert node.cbc.votes_in_slot((2, 1)) == [cbc_block.digest]

    def test_vote_binds_endorsements(self, system, chains):
        node = make_node(system, chains)
        blocks = feed_round1(node, system)
        cbc_block = signed(system, 1, 2, [blocks[(a, 0)].digest for a in (1, 2, 3)])
        node.on_message(1, BlockVal(cbc_block))
        assert node.voted_refs[(1, 2)] == blocks[(2, 0)].digest

    def test_contradictory_reference_refused_with_notice(self, system, chains):
        node = make_node(system, chains)
        blocks = feed_round1(node, system, equivocator=3)
        b3a, b3b = blocks[(3, 0)], blocks[(3, 1)]
        d1 = signed(system, 1, 2, [blocks[(1, 0)].digest, blocks[(2, 0)].digest, b3a.digest])
        node.on_message(1, BlockVal(d1))
        assert node.cbc.votes_in_slot((2, 1)) == [d1.digest]
        node.net.clear()
        d2 = signed(system, 2, 2, [blocks[(1, 0)].digest, blocks[(2, 0)].digest, b3b.digest])
        node.on_message(2, BlockVal(d2))
        assert node.cbc.votes_in_slot((2, 2)) == []  # refused
        notices = [(dst, m) for dst, m in node.net.sent if isinstance(m, ContradictionNotice)]
        assert len(notices) == 1
        dst, notice = notices[0]
        assert dst == 2  # sent to D's proposer
        assert notice.objected == d2.digest
        assert notice.conflicting_block.digest == b3a.digest

    def test_wave_monotonicity_rule3_first_bullet(self, system, chains):
        node = make_node(system, chains)
        blocks = feed_round1(node, system)
        node._max_cbc_wave = 5  # pretend we voted in wave 5 already
        stale = signed(system, 1, 2, [blocks[(a, 0)].digest for a in (1, 2, 3)])
        node.on_message(1, BlockVal(stale))
        assert node.cbc.votes_in_slot((2, 1)) == []  # silently refused


class TestProposerSideReproposal:
    def prepare_proposed_cbc(self, system, chains):
        """Drive node 0 to propose its round-2 CBC block referencing the
        equivocator's first copy."""
        node = make_node(system, chains)
        blocks = feed_round1(node, system, equivocator=3)
        pump(node)  # fires the advance timer -> proposes round 2
        my_cbc = [
            m.block
            for _, m in node.net.sent
            if isinstance(m, BlockVal) and m.block.round == 2 and m.block.author == 0
        ]
        assert my_cbc, "node should have proposed its CBC block"
        return node, blocks, my_cbc[0]

    def test_contradiction_notice_triggers_proof_and_blacklist(self, system, chains):
        node, blocks, d0 = self.prepare_proposed_cbc(system, chains)
        referenced = blocks[(3, 0)] if blocks[(3, 0)].digest in d0.parents else blocks[(3, 1)]
        other = blocks[(3, 1)] if referenced is blocks[(3, 0)] else blocks[(3, 0)]
        node.net.clear()
        node.on_message(1, ContradictionNotice(objected=d0.digest, conflicting_block=other))
        assert 3 in node.blacklist
        assert 3 in node.proofs

    def test_reproposal_excludes_culprit_and_carries_proof(self, system, chains):
        node, blocks, d0 = self.prepare_proposed_cbc(system, chains)
        other = blocks[(3, 1)] if blocks[(3, 0)].digest in d0.parents else blocks[(3, 0)]
        # Give the node its own round-1 block so a clean quorum exists.
        own_r1 = [
            m.block for _, m in node.net.sent
            if isinstance(m, BlockVal) and m.block.round == 1 and m.block.author == 0
        ][0]
        node.on_message(0, BlockVal(own_r1))
        node.net.clear()
        node.on_message(1, ContradictionNotice(objected=d0.digest, conflicting_block=other))
        reproposals = [
            m.block for _, m in node.net.sent
            if isinstance(m, BlockVal) and m.block.round == 2 and m.block.author == 0
            and m.block.repropose_index == 1
        ]
        assert node.reproposals == 1
        new_block = reproposals[0]
        assert all(node.store.get(p).author != 3 for p in new_block.parents)
        assert len(new_block.byz_proofs) == 1
        assert new_block.byz_proofs[0].culprit == 3

    def test_everything_sent_about_maximally_nested_equivocation_decodes(self, system, chains):
        """Replica 3 equivocates with two blocks that each already nest proofs
        as deep as the codec lets through.  The proof over them is one level
        deeper: it convicts, but rides in no block, so the reproposal (and
        every other message the node sends) still decodes at its peers."""
        junk = make_block(1, 2, genesis_parents())  # unsigned: convicts nobody
        for level in range(MAX_PROOF_DEPTH):
            junk = make_block(
                1, 2, genesis_parents(), repropose_index=level + 1,
                byz_proofs=(ByzantineProof(culprit=2, block_a=junk, block_b=junk),),
            )
        node = make_node(system, chains)
        for author in (1, 2):
            node.on_message(author, BlockVal(signed(system, author, 1, genesis_parents())))
        twins = [
            make_block(
                1, 3, genesis_parents(), repropose_index=j, byz_proofs=junk.byz_proofs,
                signer=HmacBackend(3, system),
            )
            for j in (0, 1)
        ]
        for twin in twins:
            assert decode_message(encode_message(BlockVal(twin))).block == twin
            node.on_message(3, BlockVal(twin))
        assert node.blacklist == set()
        pump(node)
        mine = {
            m.block.round: m.block for _, m in node.net.sent
            if isinstance(m, BlockVal) and m.block.author == 0
        }
        own_r1, d0 = mine[1], mine[2]
        node.on_message(0, BlockVal(own_r1))
        other = twins[1] if twins[0].digest in d0.parents else twins[0]
        node.on_message(1, ContradictionNotice(objected=d0.digest, conflicting_block=other))
        assert node.blacklist == {3}
        assert node.proofs[3].depth == MAX_PROOF_DEPTH + 1
        assert node.reproposals == 1
        # A peer that still references the culprit gets the proof as a notice.
        d1 = signed(system, 1, 2, [own_r1.digest, d0.parents[1], twins[0].digest])
        node.on_message(1, BlockVal(d1))
        assert any(isinstance(m, ByzantineProofMsg) for _, m in node.net.sent)
        for _, msg in node.net.sent:
            assert decode_message(encode_message(msg)) == msg

    def test_reproposal_deferred_until_clean_quorum(self, system, chains):
        node, blocks, d0 = self.prepare_proposed_cbc(system, chains)
        other = blocks[(3, 1)] if blocks[(3, 0)].digest in d0.parents else blocks[(3, 0)]
        node.net.clear()
        # Only blocks 1,2 are clean (quorum is 3) -> reproposal must wait.
        node.on_message(1, ContradictionNotice(objected=d0.digest, conflicting_block=other))
        assert node.reproposals == 0
        assert node._pending_repropose
        # Our own round-1 block arrives -> clean quorum -> reproposal fires.
        own_r1 = [
            m.block for _, m in node.net.sent
            if isinstance(m, BlockVal) and m.block.round == 1 and m.block.author == 0
        ]
        # net was cleared; recover our round-1 block from the original sim start
        node2_block = signed(system, 0, 1, genesis_parents())
        node.on_message(0, BlockVal(node2_block))
        assert node.reproposals == 1

    def test_bogus_notice_ignored(self, system, chains):
        node, blocks, d0 = self.prepare_proposed_cbc(system, chains)
        # Notice whose conflicting block sits in a slot d0 never referenced
        # (the node's own slot — its round-1 block was never delivered here).
        unrelated = signed(system, 0, 1, genesis_parents(), j=1)
        node.net.clear()
        node.on_message(1, ContradictionNotice(objected=d0.digest, conflicting_block=unrelated))
        assert node.blacklist == set()
        assert node.reproposals == 0

    def test_notice_for_unknown_block_ignored(self, system, chains):
        node, blocks, _ = self.prepare_proposed_cbc(system, chains)
        node.net.clear()
        node.on_message(
            1,
            ContradictionNotice(objected=b"\x01" * 32, conflicting_block=blocks[(3, 0)]),
        )
        assert node.blacklist == set()


class TestRule3Exclusion:
    def test_blacklisted_parents_refused_with_proof_forward(self, system, chains):
        node = make_node(system, chains)
        blocks = feed_round1(node, system, equivocator=3)
        proof = proof_from_blocks(blocks[(3, 0)], blocks[(3, 1)])
        assert node._register_proof(proof)
        node.net.clear()
        d1 = signed(
            system, 1, 2,
            [blocks[(1, 0)].digest, blocks[(2, 0)].digest, blocks[(3, 0)].digest],
        )
        node.on_message(1, BlockVal(d1))
        assert node.cbc.votes_in_slot((2, 1)) == []
        forwards = [(dst, m) for dst, m in node.net.sent if isinstance(m, ByzantineProofMsg)]
        assert len(forwards) == 1
        assert forwards[0][0] == 1
        assert forwards[0][1].culprit == 3

    def test_blacklisted_author_never_chosen_as_parent(self, system, chains):
        node = make_node(system, chains)
        blocks = feed_round1(node, system, equivocator=3)
        proof = proof_from_blocks(blocks[(3, 0)], blocks[(3, 1)])
        node._register_proof(proof)
        for author in (1, 2, 3):
            assert node._parent_allowed(blocks[(author, 0)]) == (author != 3)

    def test_invalid_proof_rejected(self, system, chains):
        node = make_node(system, chains)
        blocks = feed_round1(node, system)
        bogus = proof_from_blocks(blocks[(1, 0)], blocks[(2, 0)])  # different authors
        assert not node._register_proof(bogus)
        assert node.blacklist == set()

    def test_embedded_proofs_harvested_from_bodies(self, system, chains):
        node = make_node(system, chains)
        blocks = feed_round1(node, system, equivocator=3)
        proof = proof_from_blocks(blocks[(3, 0)], blocks[(3, 1)])
        carrier = make_block(
            1, 2, genesis_parents(), repropose_index=1, byz_proofs=(proof,),
            signer=HmacBackend(2, system),
        )
        node.on_message(2, BlockVal(carrier))
        assert 3 in node.blacklist


class TestReproposeRetry:
    """A parked reproposal (not enough clean parents) must survive further
    blacklist growth and fire exactly once when a clean quorum appears."""

    def setup_n7(self):
        system = SystemConfig(n=7, crypto="hmac", seed=0)
        chains = TrustedDealer(system).deal()
        node = LightDag2Node(
            FakeNet(node_id=0, n=7), system, ProtocolConfig(batch_size=5),
            chains[0],
        )
        node.on_start()
        return system, node

    @staticmethod
    def g7():
        return [genesis_block(a).digest for a in range(7)]

    def test_blacklist_grows_while_parked_then_retry_fires_once(self):
        system, node = self.setup_n7()
        quorum = 5  # n - f with n=7
        for author in (1, 2, 3, 5, 6):
            node.on_message(author, BlockVal(signed(system, author, 1, self.g7())))
        own_r1 = [
            m.block for _, m in node.net.sent
            if isinstance(m, BlockVal) and m.block.round == 1 and m.block.author == 0
        ][0]
        pump(node)  # quorum of round-1 blocks -> proposes round-2 CBC block D
        d0 = [
            m.block for _, m in node.net.sent
            if isinstance(m, BlockVal) and m.block.round == 2 and m.block.author == 0
        ][0]
        node.net.clear()

        # Proof against author 6: reproposal wants a clean quorum but only
        # authors {1,2,3,5} remain -> parks.
        node.on_message(1, ByzantineProofMsg(
            culprit=6,
            block_a=signed(system, 6, 1, self.g7()),
            block_b=signed(system, 6, 1, self.g7(), j=1),
            objected=d0.digest,
        ))
        assert node.reproposals == 0
        assert d0.digest in node._pending_repropose

        # A second culprit is exposed while parked: the blacklist grows,
        # the reproposal stays parked (still 4 clean parents).
        node.on_message(2, ByzantineProofMsg(
            culprit=4,
            block_a=signed(system, 4, 1, self.g7()),
            block_b=signed(system, 4, 1, self.g7(), j=1),
            objected=d0.digest,
        ))
        assert node.blacklist == {4, 6}
        assert node.reproposals == 0
        assert d0.digest in node._pending_repropose

        # Our own round-1 block arrives -> 5 clean parents -> retry fires.
        node.on_message(0, BlockVal(own_r1))
        assert node.reproposals == 1
        assert node._pending_repropose == {}
        new_block = [
            m.block for _, m in node.net.sent
            if isinstance(m, BlockVal) and m.block.round == 2
            and m.block.author == 0 and m.block.repropose_index == 1
        ][0]
        assert len(new_block.parents) >= quorum
        assert all(
            node.store.get(p).author not in (4, 6) for p in new_block.parents
        )
        assert {p.culprit for p in new_block.byz_proofs} == {4, 6}

        # Re-delivering more blocks must not repropose again for the same
        # (original, blacklist) state.
        node.on_message(0, BlockVal(own_r1))
        assert node.reproposals == 1


class TestFirstRoundCoinWait:
    """A wave's first-round block waits for the previous wave's coin, so
    every LightDAG2 latency includes that reveal.  Rule 4 imposes the wait:
    first-round blocks name the newest leader slot's block, although
    blocks do not carry that annotation."""

    @staticmethod
    def proposed(node, round_):
        return [
            m.block for _, m in node.net.sent
            if isinstance(m, BlockVal) and m.block.round == round_
            and m.block.author == 0
        ]

    def test_round4_waits_for_wave1_leader(self, system):
        # A coin that needs all n shares: n - f delivered round-3 blocks
        # carry one share too few, which pulls the wait apart from Rule 1's.
        chains = TrustedDealer(system, coin_threshold=system.n).deal()
        node = make_node(system, chains)
        parents = [b.digest for b in feed_round1(node, system).values()]
        pump(node)
        round2 = [signed(system, author, 2, parents) for author in (1, 2, 3)]
        for block in round2:
            node.on_message(block.author, BlockVal(block))
            for voter in (1, 2, 3):
                node.on_message(voter, BlockEcho(
                    round=2, author=block.author, digest=block.digest
                ))
        pump(node)
        own = self.proposed(node, 3)[0]
        assert own.coin_share == node.coin.make_share(1)
        for author in (1, 2, 3):
            share = make_coin(system.crypto, chains[author], system.seed).make_share(1)
            block = make_block(
                3, author, [b.digest for b in round2], coin_share=share,
                signer=HmacBackend(author, system),
            )
            node.on_message(author, BlockVal(block))
        pump(node)
        # n - f deliverable round-3 blocks, yet no round-4 proposal.
        assert node.store.round_author_count(3) >= system.quorum
        assert node.next_round == 4 and 1 not in node.revealed_leaders
        assert not self.proposed(node, 4)
        # Our own round-3 block brings the last share.
        node.on_message(0, BlockVal(own))
        pump(node)
        assert 1 in node.revealed_leaders
        assert self.proposed(node, 4)
        assert node.next_round == 5

    def test_round4_does_not_wait_for_a_coin_gc_forgot(self, system, chains):
        """The wait asks the coin, not ``revealed_leaders``: GC drops a
        settled wave from that table (``CommitRule.forget_settled``).  A
        replica whose commit frontier passed wave 1 before its round-3
        parents delivered must still propose round 4, or it never proposes
        again — and at the fault bound the system stalls with it."""
        node = make_node(system, chains)
        parents = [b.digest for b in feed_round1(node, system).values()]
        pump(node)
        round2 = [signed(system, author, 2, parents) for author in (1, 2, 3)]
        for block in round2:
            node.on_message(block.author, BlockVal(block))  # no echoes yet
        for author in (1, 2, 3):
            share = make_coin(system.crypto, chains[author], system.seed).make_share(1)
            node.on_message(author, BlockVal(make_block(
                3, author, [b.digest for b in round2], coin_share=share,
                signer=HmacBackend(author, system),
            )))
        # Parked on round 2, yet their shares revealed the coin.
        assert 1 in node.revealed_leaders and node.next_round == 3
        del node.revealed_leaders[1]  # what GC does once wave 1 is settled
        for block in round2:
            for voter in (1, 2, 3):
                node.on_message(voter, BlockEcho(
                    round=2, author=block.author, digest=block.digest
                ))
        pump(node)
        assert node.store.round_author_count(3) >= system.quorum
        assert self.proposed(node, 4)

