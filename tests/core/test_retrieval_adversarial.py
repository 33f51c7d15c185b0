"""Retrieval under adversity: the hardened §IV-A recovery path.

Covers the failure modes the paper's §V "unfavorable" analysis leans on
retrieval to absorb: a withholding first-choice responder, garbage and
unsolicited response bodies, oversized requests and request flooding —
plus end-to-end runs with the
:class:`~repro.adversary.withhold.WithholdingResponder` adversary.
"""

import pytest

from repro.adversary.schedule import FaultSchedule
from repro.adversary.withhold import WithholdingResponder, withholding_node_class
from repro.broadcast.messages import (
    MAX_REQUEST_DIGESTS,
    RetrievalRequest,
    RetrievalResponse,
)
from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.core.retrieval import RetrievalManager
from repro.crypto.keys import TrustedDealer
from repro.dag.block import Block, genesis_block, make_block
from repro.dag.ledger import check_prefix_consistency
from repro.dag.store import DagStore
from repro.harness.runner import run_experiment
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulation

from ..conftest import FakeNet


def chain_blocks():
    a = make_block(1, 0, [genesis_block(x).digest for x in range(4)])
    b = make_block(2, 0, [a.digest])
    return a, b


def make_manager(net=None, store=None, **kwargs):
    net = net or FakeNet(node_id=0, n=4)
    store = store or DagStore(n=4)
    return net, store, RetrievalManager(net, store, **kwargs)


def ticks(net, manager, count):
    """``count`` recovery ticks, half a second apart; the requests each sent."""
    sent = []
    for _ in range(count):
        net.advance(0.5)
        net.clear()
        manager.on_retry_timer()
        sent.append([(dst, m) for dst, m in net.sent if isinstance(m, RetrievalRequest)])
    return sent


class TestWithholdingFirstResponder:
    """The first-choice responder never answers: the tick keeps asking."""

    def test_ask_stays_open_until_the_body_arrives(self):
        net, _, manager = make_manager()
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.on_retry_timer()
        # No cap: every tick re-asks, for as long as b is parked.
        assert all(len(sent) == 1 for sent in ticks(net, manager, 20))
        assert manager.inflight_count() == 1
        assert manager.abandoned_count == 0

    def test_abandoned_response_is_no_longer_honored(self):
        """An ask no parked block needs any more (here: both dependents
        fell below the GC horizon) is released as abandoned: no tick
        re-asks it, and a late body for it is unsolicited."""
        net, _, manager = make_manager()
        a, b = chain_blocks()
        c = make_block(2, 1, [a.digest])
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.note_pending(c, src=2, missing=[a.digest])
        assert manager.gc_below(3) == 2
        assert manager.abandoned_count == 1  # one ask, two dependents
        assert ticks(net, manager, 2) == [[], []]
        assert manager.on_response(1, RetrievalResponse((a,))) == []

    def test_new_dependent_reopens_abandoned_request(self):
        net, _, manager = make_manager()
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        manager.drop_pending(b.digest)
        assert manager.abandoned_count == 1
        net.clear()
        c = make_block(2, 1, [a.digest])
        assert manager.note_pending(c, src=1, missing=[a.digest]) is True
        assert manager.inflight_count() == 1
        assert net.sent == [(1, RetrievalRequest((a.digest,)))]


class TestGarbageResponses:
    def test_mislabeled_body_is_rejected(self):
        """A junk body labeled with a requested digest must not survive
        digest pinning (in-process blocks are not codec-verified)."""
        _, _, manager = make_manager()
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        forged = Block(round=1, author=3, parents=(), digest=a.digest)
        assert manager.on_response(3, RetrievalResponse((forged,))) == []
        assert manager.garbage_rejected == 1

    def test_unsolicited_body_is_rejected(self):
        _, _, manager = make_manager()
        a, _ = chain_blocks()
        assert manager.on_response(2, RetrievalResponse((a,))) == []

    def test_honest_body_for_open_request_is_accepted(self):
        _, _, manager = make_manager()
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        assert manager.on_response(2, RetrievalResponse((a,))) == [(a, 2)]


class TestResponderHardening:
    def test_oversized_request_is_clamped(self):
        net, store, manager = make_manager()
        a, b = chain_blocks()
        store.add(a)
        store.add(b)
        junk = tuple(bytes([i % 251] * 32) for i in range(MAX_REQUEST_DIGESTS - 1))
        request = RetrievalRequest((a.digest,) + junk + (b.digest,))
        assert len(request.digests) == MAX_REQUEST_DIGESTS + 1
        manager.on_request(5, request)
        assert manager.oversized_requests == 1
        (_, msg), = net.sent
        assert msg.blocks == (a,)  # b fell past the clamp

    def test_large_answers_are_chunked(self):
        net = FakeNet(node_id=0, n=4)
        store = DagStore(n=4)
        _, _, manager = make_manager(net=net, store=store, max_response_blocks=2)
        parents = [genesis_block(x).digest for x in range(4)]
        blocks = [make_block(1, author, parents) for author in range(4)]
        blocks.append(make_block(2, 0, [blocks[0].digest]))
        for blk in blocks:
            store.add(blk)
        manager.on_request(3, RetrievalRequest(tuple(b.digest for b in blocks)))
        responses = [m for _, m in net.sent if isinstance(m, RetrievalResponse)]
        assert [len(r.blocks) for r in responses] == [2, 2, 1]
        assert manager.blocks_served == 5

    def test_repeat_requesters_are_rate_limited(self):
        net, store, manager = make_manager(rate_burst=2.0, rate_refill=1.0)
        a, _ = chain_blocks()
        store.add(a)
        request = RetrievalRequest((a.digest,))
        for _ in range(5):
            manager.on_request(3, request)
        assert manager.responses_sent == 2  # burst spent, rest dropped
        assert manager.rate_limited_count == 3
        # The bucket refills with (simulated) time.
        net.advance(2.0)
        manager.on_request(3, request)
        assert manager.responses_sent == 3
        # ...and other peers have their own bucket.
        manager.on_request(1, request)
        assert manager.responses_sent == 4


class TestStateGc:
    def test_gc_below_drops_stale_pending_state(self):
        _, _, manager = make_manager()
        a, b = chain_blocks()  # b is round 2
        manager.note_pending(b, src=2, missing=[a.digest])
        assert manager.gc_below(5) == 1
        assert not manager.is_pending(b.digest)
        assert manager.inflight_count() == 0
        assert a.digest not in manager._asked

    def test_gc_below_keeps_live_rounds(self):
        _, _, manager = make_manager()
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        assert manager.gc_below(2) == 0
        assert manager.is_pending(b.digest)


class TestWithholdingResponderNode:
    @pytest.fixture
    def node(self, system4, protocol_cfg, chains4):
        def build(mode):
            cls = withholding_node_class(LightDag1Node, mode=mode)
            net = FakeNet(node_id=3, n=4)
            return net, cls(net, system4, protocol_cfg, chains4[3])

        return build

    def test_ignore_mode_never_answers(self, node):
        net, withholder = node("ignore")
        genesis = genesis_block(0)
        net.clear()
        withholder.on_message(0, RetrievalRequest((genesis.digest,)))
        assert withholder.withheld_requests == 1
        assert net.sent == []

    def test_garbage_mode_answers_are_rejected_by_digest_pinning(self, node):
        net, withholder = node("garbage")
        a, b = chain_blocks()
        net.clear()
        withholder.on_message(0, RetrievalRequest((a.digest,)))
        (dst, msg), = net.sent
        assert dst == 0
        assert isinstance(msg, RetrievalResponse)
        assert msg.blocks[0].digest == a.digest  # labeled with the request
        # An honest requester with that digest open still rejects the body.
        _, _, manager = make_manager()
        manager.note_pending(b, src=3, missing=[a.digest])
        assert manager.on_response(3, msg) == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            withholding_node_class(LightDag1Node, mode="corrupt")


class TestWithholdingIntegration:
    """Acceptance: with f Byzantine replicas withholding (or garbling) every
    retrieval response, a partitioned honest replica still delivers the
    full ancestry through the recovery tick, and every honest replica
    keeps pace with the others."""

    N = 7
    WITHHOLDERS = (5, 6)  # f = 2 of 7
    STRAGGLER = 4

    def build_sim(self, mode, seed=3):
        n = self.N
        system = SystemConfig(n=n, crypto="hmac", seed=seed)
        protocol = ProtocolConfig(batch_size=5)
        chains = TrustedDealer(
            system, coin_threshold=protocol.resolve_coin_threshold(system)
        ).deal()
        withholder_cls = withholding_node_class(LightDag1Node, mode=mode)
        classes = [
            withholder_cls if i in self.WITHHOLDERS else LightDag1Node
            for i in range(n)
        ]
        # The straggler gets partitioned and must catch up through
        # retrieval afterwards.
        adversary = FaultSchedule.from_spec(
            f"partition@0.5+2.5:group={self.STRAGGLER}"
        ).adversary()
        return Simulation(
            [
                (lambda net, i=i: classes[i](net, system, protocol, chains[i]))
                for i in range(n)
            ],
            latency_model=FixedLatency(0.05),
            adversary=adversary,
            seed=seed,
        )

    def check_keeps_pace(self, mode):
        sim = self.build_sim(mode)
        sim.run(until=12.0)
        honest = [
            node for i, node in enumerate(sim.nodes) if i not in self.WITHHOLDERS
        ]
        check_prefix_consistency([node.ledger for node in honest])
        straggler = sim.nodes[self.STRAGGLER]
        top = max(node.current_round for node in honest)
        assert top > 50
        for node in honest:
            assert node.current_round >= top - 2
            assert len(node.ledger) > 0.9 * max(len(h.ledger) for h in honest)
        assert straggler.retrieval.requests_sent > 0
        # The withholders were actually asked.
        assert sum(sim.nodes[i].withheld_requests for i in self.WITHHOLDERS) > 0
        # Nothing left leaking: pending/inflight state drained.
        assert straggler.retrieval.pending_count() == 0
        assert straggler.retrieval.inflight_count() == 0
        return straggler

    def test_honest_replicas_recover_and_commit(self):
        self.check_keeps_pace("ignore")

    def test_honest_replicas_recover_from_garbage_answers(self):
        straggler = self.check_keeps_pace("garbage")
        assert straggler.retrieval.garbage_rejected > 0

    @pytest.mark.parametrize("adversary", ["withhold", "withhold-garbage"])
    def test_run_experiment_with_withholding_adversary(self, adversary):
        cfg = ExperimentConfig(
            system=SystemConfig(n=4, crypto="hmac", seed=1),
            protocol=ProtocolConfig(batch_size=5),
            protocol_name="lightdag1",
            adversary_name=adversary,
            duration=6.0,
            warmup=1.0,
        )
        # run_experiment checks honest-ledger prefix consistency internally.
        result = run_experiment(cfg)
        assert result.committed_txs > 0
        assert result.rounds_reached > 10
