"""Check each claim once per cluster: the deal-wide verified-claims memo.

*Counts* — in a simulated schnorr run every distinct signature and coin
share costs its modexp chain once for the whole cluster, while every replica
still makes every call and still combines every wave's coin itself.
*Safety* — only positive verdicts of pure checks are shared: forgeries are
recomputed (and rejected) at every replica on every arrival, two key deals
share nothing, and replicas of one cluster share no protocol state.
"""

import copy
import itertools
from collections import Counter

import pytest

import repro.core.retrieval as retrieval_mod
import repro.crypto.backend as backend_mod
import repro.crypto.threshold as threshold_mod
from repro.broadcast.messages import RetrievalResponse
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag2 import LightDag2Node
from repro.core.retrieval import RetrievalManager
from repro.crypto.backend import SchnorrBackend
from repro.crypto.coin import CoinShare, SeededCoin, ThresholdCoin, make_coin
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import TrustedDealer
from repro.crypto.memo import VerifiedMemo
from repro.crypto.schnorr import SchnorrSignature
from repro.crypto.threshold import DleqProof, PartialEval, ThresholdPRF
from repro.dag.block import Block, genesis_block, make_block
from repro.dag.ledger import check_prefix_consistency
from repro.dag.store import DagStore
from repro.net.latency import UniformLatency
from repro.net.simulator import Simulation

from ..conftest import FakeNet, count_calls as counting

N = 4


def deal(seed=3, crypto="schnorr", n=N):
    return TrustedDealer(SystemConfig(n=n, crypto=crypto, seed=seed)).deal()


@pytest.fixture(scope="module")
def schnorr_run():
    """An n=4 LightDAG2 run on real crypto with every check site counted."""
    system = SystemConfig(n=N, crypto="schnorr", seed=5)
    protocol = ProtocolConfig(batch_size=5)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    log = {name: [] for name in (
        "schnorr_verify", "dleq_verify", "verify", "verify_partial", "combine",
        "verify_batch",
    )}
    with pytest.MonkeyPatch.context() as mp:
        counting(mp, backend_mod, "schnorr_verify", log["schnorr_verify"])
        counting(mp, threshold_mod, "dleq_verify", log["dleq_verify"])
        counting(mp, SchnorrBackend, "verify", log["verify"])
        counting(mp, SchnorrBackend, "verify_batch", log["verify_batch"])
        counting(mp, ThresholdPRF, "verify_partial", log["verify_partial"])
        counting(mp, ThresholdPRF, "combine", log["combine"])
        sim = Simulation(
            [
                (lambda i: lambda net: LightDag2Node(net, system, protocol, chains[i]))(i)
                for i in range(N)
            ],
            latency_model=UniformLatency(0.02, 0.07),
            seed=5,
        )
        sim.run(until=6.0)
    return sim, chains, log


class TestCounts:
    def test_each_signature_costs_one_verification_per_cluster(self, schnorr_run):
        sim, _chains, log = schnorr_run
        assert not any(items for _self, items in log["verify_batch"])
        claims = {args[1:] for args in log["verify"]}  # (signer, digest, signature)
        blocks = {digest for _signer, digest, _signature in claims}
        committed = set().union(*(node.ledger.committed_digests for node in sim.nodes))
        assert len(committed) > 40 and committed <= blocks
        assert len(log["schnorr_verify"]) == len(claims) == len(blocks)
        # ...while every replica still asked, once per body it received.
        assert len(log["verify"]) >= (N - 1) * len(claims)

    def test_each_share_costs_one_dleq_check_per_cluster(self, schnorr_run):
        _sim, _chains, log = schnorr_run
        claims = {args[1:] for args in log["verify_partial"]}  # (message, partial)
        assert len(claims) >= 2 * N
        assert len(log["dleq_verify"]) == len(claims)
        assert len(log["verify_partial"]) > 2 * len(claims)  # intake + combine, x n

    def test_every_replica_still_combines_every_wave_itself(self, schnorr_run):
        sim, _chains, log = schnorr_run
        per_prf = Counter((id(args[0]), args[1]) for args in log["combine"])
        assert set(per_prf.values()) == {1}  # once per replica per wave
        for node in sim.nodes:
            mine = [key for key in per_prf if key[0] == id(node.coin.prf)]
            assert len(mine) == len(node.coin._revealed) >= 2
        check_prefix_consistency([node.ledger for node in sim.nodes])

    def test_replicas_of_one_cluster_share_the_memo_and_nothing_else(self, schnorr_run):
        sim, chains, _log = schnorr_run
        memo = chains[0].verified
        for node in sim.nodes:
            assert node.backend._verified is memo
            assert node.coin._verified is memo
            assert node.coin.prf._verified is memo
        private = (
            lambda n: n.store, lambda n: n.ledger, lambda n: n.commit,
            lambda n: n.coin, lambda n: n.coin._revealed, lambda n: n.coin._shares,
            lambda n: n.coin.prf, lambda n: n.backend, lambda n: n.retrieval,
            lambda n: n.pbc.tracker, lambda n: n.cbc.tracker,
            lambda n: n.revealed_leaders, lambda n: n._known, lambda n: n._invalid,
        )
        for a, b in itertools.combinations(sim.nodes, 2):
            for attribute in private:
                assert attribute(a) is not attribute(b)

    def test_snapshots_and_copies_keep_the_one_memo(self, schnorr_run):
        sim, chains, _log = schnorr_run
        memo = chains[0].verified
        assert copy.deepcopy(memo) is memo
        size = len(memo)
        snapshot = sim.snapshot()
        snapshot.restore()
        assert all(node.coin._verified is memo for node in sim.nodes)
        assert len(memo) == size


class TestForgeriesAreRecheckedEverywhere:
    def test_forged_signature_beside_a_cached_valid_one(self, monkeypatch):
        chains = deal()
        backends = [SchnorrBackend(chain) for chain in chains]
        digest = hash_fields("cluster-memo", "sig")
        good = backends[1].sign(digest)
        forged = SchnorrSignature(R=good.R, s=(good.s + 1) % chains[0].group.q)
        assert all(b.verify(1, digest, good) for b in backends)
        calls = []
        counting(monkeypatch, backend_mod, "schnorr_verify", calls)
        size = len(chains[0].verified)
        for _ in range(3):
            for b in backends:
                assert not b.verify(1, digest, forged)
                assert not b.verify(2, digest, good)  # right bytes, wrong signer
                assert b.verify(1, digest, good)  # (a hit: not recomputed)
        assert len(calls) == 2 * 3 * N
        assert len(chains[0].verified) == size

    def test_forged_mac_beside_a_cached_valid_one(self):
        system = SystemConfig(n=N, crypto="hmac", seed=3)
        chains = TrustedDealer(system).deal()
        backends = [
            backend_mod.make_backend("hmac", i, system, chains[i]) for i in range(N)
        ]
        assert all(b._verified is chains[0].verified for b in backends)
        digest = hash_fields("cluster-memo", "mac")
        good = backends[1].sign(digest)
        assert all(b.verify(1, digest, good) for b in backends)
        size = len(chains[0].verified)
        for b in backends:
            assert not b.verify(1, digest, bytes(32))
            assert not b.verify(2, digest, good)
        assert len(chains[0].verified) == size == 1

    def test_bad_share_is_rechecked_by_every_coin_every_time(self, monkeypatch):
        chains = deal()
        coins = [ThresholdCoin(chain) for chain in chains]
        good = coins[1].make_share(3)
        partial = good.payload
        bad = CoinShare(3, 1, PartialEval(
            partial.index, partial.value,
            DleqProof(partial.proof.c, (partial.proof.s + 1) % chains[0].group.q),
        ))
        coins[0].add_share(good)
        calls = []
        counting(monkeypatch, threshold_mod, "dleq_verify", calls)
        size = len(chains[0].verified)
        for _ in range(2):
            for coin in coins[2:]:
                assert coin.add_share(bad) is None
                assert coin.pending_share_count(3) == 0
        assert len(calls) == 2 * len(coins[2:])
        assert len(chains[0].verified) == size
        # The valid share, verified once at coin 0, is a hit everywhere else.
        for coin in coins[2:]:
            coin.add_share(good)
            assert coin.pending_share_count(3) == 1
        assert len(calls) == 2 * len(coins[2:])

    def test_seeded_coin_shares_verdicts_and_rejects_forged_tokens(self, monkeypatch):
        system = SystemConfig(n=N, crypto="hmac", seed=9)
        chains = TrustedDealer(system).deal()
        coins = [make_coin("hmac", chain, system.seed) for chain in chains]
        assert all(c._verified is chains[0].verified for c in coins)
        calls = []
        counting(monkeypatch, SeededCoin, "verify_share", calls)
        good = coins[1].make_share(2)
        forged = CoinShare(2, 2, good.payload)  # replica 1's token claimed by 2
        for coin in coins:
            coin.add_share(good)
            assert coin.add_share(forged) is None
            assert coin.pending_share_count(2) == 1
        assert len(calls) == 1 + N  # the valid share once, the forgery every time
        stand_alone = SeededCoin(N, 3, 9, 0)
        assert stand_alone._verified is not chains[0].verified


class TestDealsShareNothing:
    def test_each_deal_makes_its_own_memo(self):
        a, b = deal(seed=1), deal(seed=1)
        assert all(chain.verified is a[0].verified for chain in a)
        assert a[0].verified is not b[0].verified
        assert isinstance(a[0].verified, VerifiedMemo)
        dealer = TrustedDealer(SystemConfig(n=N, seed=1))
        assert dealer.observer_chain().verified is not a[0].verified

    def test_a_block_signed_under_one_deal_fails_under_another(self):
        deal_a, deal_b = deal(seed=1), deal(seed=2)
        parents = [genesis_block(x).digest for x in range(N)]
        block = make_block(1, 0, parents, signer=SchnorrBackend(deal_a[0]))
        claim = (block.author, block.digest, block.signature)
        assert all(SchnorrBackend(chain).verify(*claim) for chain in deal_a)
        assert not any(SchnorrBackend(chain).verify(*claim) for chain in deal_b)
        assert len(deal_b[0].verified) == 0

    def test_same_keys_dealt_twice_still_verify_separately(self, monkeypatch):
        deal_a, deal_b = deal(seed=1), deal(seed=1)
        digest = hash_fields("cluster-memo", "twice")
        signature = SchnorrBackend(deal_a[0]).sign(digest)
        calls = []
        counting(monkeypatch, backend_mod, "schnorr_verify", calls)
        assert all(SchnorrBackend(chain).verify(0, digest, signature) for chain in deal_a)
        assert len(calls) == 1
        assert all(SchnorrBackend(chain).verify(0, digest, signature) for chain in deal_b)
        assert len(calls) == 2


class TestDigestPinningVerdict:
    def manager(self):
        return RetrievalManager(FakeNet(node_id=0, n=N), DagStore(n=N))

    def test_rehash_runs_once_per_block_object(self, monkeypatch):
        calls = []
        counting(monkeypatch, retrieval_mod, "compute_block_digest", calls)
        a = make_block(1, 0, [genesis_block(x).digest for x in range(N)])
        b = make_block(2, 0, [a.digest])
        for _replica in range(3):
            manager = self.manager()
            manager.note_pending(b, src=2, missing=[a.digest])
            assert manager.on_response(2, RetrievalResponse((a,))) == [(a, 2)]
        assert len(calls) == 1

    def test_mislabelled_body_is_rehashed_and_refused_every_time(self, monkeypatch):
        a = make_block(1, 0, [genesis_block(x).digest for x in range(N)])
        b = make_block(2, 0, [a.digest])
        first = self.manager()
        first.note_pending(b, src=2, missing=[a.digest])
        assert first.on_response(2, RetrievalResponse((a,))) == [(a, 2)]
        # Garbage labelled with the digest whose honest body is known-good.
        junk = Block(round=1, author=3, parents=(), digest=a.digest)
        calls = []
        counting(monkeypatch, retrieval_mod, "compute_block_digest", calls)
        for _replica in range(3):
            manager = self.manager()
            manager.note_pending(b, src=2, missing=[a.digest])
            for _ in range(2):
                assert manager.on_response(3, RetrievalResponse((junk,))) == []
            assert manager.garbage_rejected == 2
        assert len(calls) == 6
        assert "_digest_checked" not in junk.__dict__
