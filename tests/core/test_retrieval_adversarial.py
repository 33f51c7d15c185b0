"""Retrieval under adversity: the hardened §IV-A recovery path.

Covers the failure modes the paper's §V "unfavorable" analysis leans on
retrieval to absorb: a withholding first-choice responder, garbage and
unsolicited response bodies, oversized requests, request flooding, and
retry-budget exhaustion — plus end-to-end runs with the
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
from repro.core.retrieval import RETRY_TAG, RetrievalManager
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
    kwargs.setdefault("retry_base", 0.5)
    return net, store, RetrievalManager(net, store, **kwargs)


def drain_retry(net, manager, digest, candidates=frozenset(), rounds=1):
    """Fire the armed retry timer ``rounds`` times, like the node would."""
    for _ in range(rounds):
        manager.on_retry_timer(digest, set(candidates))


class TestWithholdingFirstResponder:
    """The first-choice responder never answers: backoff, fan-out, cap."""

    def test_backoff_delays_grow_exponentially(self):
        net, _, manager = make_manager()
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        for _ in range(5):
            manager.on_retry_timer(a.digest, set())
        delays = [
            at - 0.0 for at, tag, data in net.timers
            if tag == RETRY_TAG and data == a.digest
        ]
        assert len(delays) == 6  # initial + 5 retries
        # retry k waits base * 2^min(k, cap), scaled by jitter in [1.0, 1.5)
        for k, delay in enumerate(delays):
            expected = 0.5 * 2 ** min(k, 4)
            assert expected <= delay < 1.5 * expected

    def test_backoff_exponent_is_capped(self):
        net, _, manager = make_manager(retry_cap=20)
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        for _ in range(10):
            manager.on_retry_timer(a.digest, set())
        last = [at for at, tag, d in net.timers if tag == RETRY_TAG][-1]
        assert last < 0.5 * 2**4 * 1.5 + 1e-9

    def test_fanout_escalation_after_k_single_target_retries(self):
        net, _, manager = make_manager(fanout_after=2, fanout_width=2)
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        net.clear()
        manager.on_retry_timer(a.digest, set())  # retry 1: single target
        assert len(net.sent) == 1
        net.clear()
        manager.on_retry_timer(a.digest, set())  # retry 2: fan-out
        assert len(net.sent) == 2
        assert manager.fanout_escalations == 1
        dsts = {dst for dst, _ in net.sent}
        assert 0 not in dsts  # never ask ourselves

    def test_fanout_prefers_known_holders(self):
        net, _, manager = make_manager(fanout_after=1, fanout_width=2)
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        net.clear()
        manager.on_retry_timer(a.digest, candidates={1, 3})
        dsts = sorted(dst for dst, _ in net.sent)
        assert dsts == [1, 3]  # the echoers, not random replicas

    def test_retry_cap_exhaustion_abandons_the_request(self):
        net, _, manager = make_manager(retry_cap=3)
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        drain_retry(net, manager, a.digest, rounds=3)
        net.clear()
        # Retry budget spent: the next timer abandons instead of sending.
        manager.on_retry_timer(a.digest, set())
        assert net.sent == []
        assert manager.abandoned_count == 1
        assert manager.inflight_count() == 0
        assert manager.max_retries_seen == 3
        # Stale timers for the abandoned digest are inert.
        manager.on_retry_timer(a.digest, set())
        assert net.sent == []
        # The dependent stays parked: a late delivery still completes it.
        assert manager.is_pending(b.digest)

    def test_abandoned_response_is_no_longer_honored(self):
        net, _, manager = make_manager(retry_cap=1)
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        drain_retry(net, manager, a.digest, rounds=2)  # retry, then abandon
        assert manager.on_response(2, RetrievalResponse((a,))) == []

    def test_revive_reopens_abandoned_request_with_fresh_budget(self):
        net, _, manager = make_manager(retry_cap=1)
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        drain_retry(net, manager, a.digest, rounds=2)
        assert manager.inflight_count() == 0
        net.clear()
        manager.revive(b.digest)
        assert manager.inflight_count() == 1
        (dst, msg), = net.sent
        assert isinstance(msg, RetrievalRequest)
        assert msg.digests == (a.digest,)
        # And the revived request's bodies are honored again.
        assert manager.on_response(dst, RetrievalResponse((a,))) == [(a, dst)]

    def test_new_dependent_reopens_abandoned_request(self):
        net, _, manager = make_manager(retry_cap=1)
        a, b = chain_blocks()
        manager.note_pending(b, src=2, missing=[a.digest])
        drain_retry(net, manager, a.digest, rounds=2)
        net.clear()
        c = make_block(2, 1, [a.digest])
        assert manager.note_pending(c, src=1, missing=[a.digest]) is True
        assert manager.inflight_count() == 1
        assert len(net.sent) == 1


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
        assert a.digest not in manager._requested

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
    """Acceptance: with a Byzantine first-choice responder withholding all
    retrieval responses, every honest replica still delivers the full
    ancestry and commits, and retries per missing block stay bounded."""

    RETRY_CAP = 6

    def build_sim(self, n=4, seed=3):
        system = SystemConfig(n=n, crypto="hmac", seed=seed)
        protocol = ProtocolConfig(batch_size=5)
        chains = TrustedDealer(
            system, coin_threshold=protocol.resolve_coin_threshold(system)
        ).deal()
        withholder_cls = withholding_node_class(LightDag1Node, mode="ignore")
        # Replica 3 withholds; replica 2 gets partitioned and must catch up
        # through retrieval afterwards.
        classes = [LightDag1Node, LightDag1Node, LightDag1Node, withholder_cls]
        adversary = FaultSchedule.from_spec("partition@0.5+2.5:group=2").adversary()
        sim = Simulation(
            [
                (lambda net, i=i: classes[i](net, system, protocol, chains[i]))
                for i in range(n)
            ],
            latency_model=FixedLatency(0.05),
            adversary=adversary,
            seed=seed,
        )
        # Small retry budgets, so the cap is met within the run.
        for node in sim.nodes:
            node.retrieval.retry_cap = self.RETRY_CAP
            node.retrieval.fanout_after = 2
        return sim

    def test_honest_replicas_recover_and_commit(self):
        sim = self.build_sim()
        sim.run(until=12.0)
        honest = sim.nodes[:3]
        check_prefix_consistency([node.ledger for node in honest])
        straggler, reference = sim.nodes[2], sim.nodes[0]
        # The straggler delivered the full ancestry and committed.
        assert len(straggler.ledger) > 0.7 * len(reference.ledger)
        assert len(reference.ledger) > 50
        assert straggler.retrieval.requests_sent > 0
        # The withholder was actually exercised as a (first-choice) responder.
        assert sim.nodes[3].withheld_requests > 0
        # Bounded recovery: no request cycle exceeded the configured cap —
        # the old behaviour (an infinite fixed-delay retry loop) is gone.
        for node in honest:
            assert node.retrieval.max_retries_seen <= self.RETRY_CAP
        # Nothing left leaking: pending/inflight state drained.
        assert straggler.retrieval.pending_count() == 0
        assert straggler.retrieval.inflight_count() == 0

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
