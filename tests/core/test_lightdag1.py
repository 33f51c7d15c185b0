"""LightDAG1 protocol tests (§IV) — simulator-driven behaviour."""

import pytest

from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1NoMergeNode, LightDag1Node
from repro.crypto.keys import TrustedDealer
from repro.dag.ledger import check_prefix_consistency
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.simulator import Simulation


def build_sim(n=4, node_cls=LightDag1Node, protocol=None, latency=None, seed=1,
              crypto="hmac", adversary=None):
    system = SystemConfig(n=n, crypto=crypto, seed=seed)
    protocol = protocol or ProtocolConfig(batch_size=10)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()

    def factory(i):
        return lambda net: node_cls(net, system, protocol, chains[i])

    return Simulation(
        [factory(i) for i in range(n)],
        latency_model=latency or FixedLatency(0.05),
        adversary=adversary,
        seed=seed,
    )


class TestProgressAndSafety:
    def test_commits_on_synchronous_network(self):
        sim = build_sim()
        sim.run(until=3.0)
        assert all(len(node.ledger) > 0 for node in sim.nodes)
        check_prefix_consistency([node.ledger for node in sim.nodes])

    def test_all_waves_commit_in_synchrony(self):
        sim = build_sim()
        sim.run(until=3.0)
        waves = sim.nodes[0].commit.committed_leader_waves
        assert waves == set(range(1, max(waves) + 1))

    def test_jittered_network_stays_safe(self):
        sim = build_sim(latency=UniformLatency(0.01, 0.12), seed=3)
        sim.run(until=5.0)
        check_prefix_consistency([node.ledger for node in sim.nodes])
        assert all(len(node.ledger) > 50 for node in sim.nodes)

    def test_larger_system(self):
        sim = build_sim(n=7, latency=UniformLatency(0.02, 0.08), seed=5)
        sim.run(until=3.0)
        check_prefix_consistency([node.ledger for node in sim.nodes])
        assert all(node.commit.committed_leader_waves for node in sim.nodes)

    def test_schnorr_crypto_end_to_end(self):
        sim = build_sim(crypto="schnorr")
        sim.run(until=1.5)
        check_prefix_consistency([node.ledger for node in sim.nodes])
        assert all(len(node.ledger) > 0 for node in sim.nodes)

    def test_deterministic_runs(self):
        a = build_sim(seed=9)
        a.run(until=2.0)
        b = build_sim(seed=9)
        b.run(until=2.0)
        assert a.nodes[0].ledger.digest_sequence() == b.nodes[0].ledger.digest_sequence()

    def test_different_seeds_different_leaders(self):
        a = build_sim(seed=1)
        a.run(until=3.0)
        b = build_sim(seed=2)
        b.run(until=3.0)
        la = [a.nodes[0].revealed_leaders[w] for w in sorted(a.nodes[0].revealed_leaders)]
        lb = [b.nodes[0].revealed_leaders[w] for w in sorted(b.nodes[0].revealed_leaders)]
        assert la != lb


class TestWaveShape:
    def test_overlapping_waves(self):
        sim = build_sim()
        sim.run(until=2.0)
        node = sim.nodes[0]
        assert node.wave.stride == 2
        # Leader rounds are odd: 1, 3, 5, ...
        for w in node.revealed_leaders:
            assert node.wave.first_round(w) == 2 * w - 1

    def test_commit_threshold_default_f_plus_1(self):
        sim = build_sim()
        assert sim.nodes[0].commit.support_threshold == 2  # f+1 with f=1

    def test_commit_threshold_config_2f_plus_1(self):
        protocol = ProtocolConfig(batch_size=10, commit_threshold="2f+1")
        sim = build_sim(protocol=protocol)
        assert sim.nodes[0].commit.support_threshold == 3
        sim.run(until=3.0)
        check_prefix_consistency([node.ledger for node in sim.nodes])
        assert all(len(node.ledger) > 0 for node in sim.nodes)


class TestNoMergeAblation:
    def test_no_merge_is_slower(self):
        merged = build_sim(node_cls=LightDag1Node)
        merged.run(until=3.0)
        unmerged = build_sim(node_cls=LightDag1NoMergeNode)
        unmerged.run(until=3.0)
        # Same rounds per second, but waves advance by 3 rounds instead of 2.
        assert (
            len(unmerged.nodes[0].commit.committed_leader_waves)
            < len(merged.nodes[0].commit.committed_leader_waves)
        )
        check_prefix_consistency([node.ledger for node in unmerged.nodes])

    def test_no_merge_wave_arithmetic(self):
        sim = build_sim(node_cls=LightDag1NoMergeNode)
        assert sim.nodes[0].wave.stride == 3


class TestCrashFaults:
    def test_progress_with_f_crashed(self):
        sim = build_sim(n=4, seed=2)
        sim.crash(3)
        sim.run(until=5.0)
        alive = sim.nodes[:3]
        check_prefix_consistency([node.ledger for node in alive])
        assert all(len(node.ledger) > 10 for node in alive)

    def test_crashed_leader_waves_skipped_not_stuck(self):
        sim = build_sim(n=4, seed=2)
        sim.crash(3)
        sim.run(until=5.0)
        node = sim.nodes[0]
        # Waves whose coin picked the crashed replica have no leader block;
        # they must be skipped while later waves still commit.
        skipped = [
            w
            for w in node.revealed_leaders
            if node.revealed_leaders[w] == 3 and w <= max(node.commit.committed_leader_waves)
        ]
        committed_after_skip = [
            w for w in node.commit.committed_leader_waves if skipped and w > min(skipped)
        ]
        if skipped:  # seed-dependent, but seed=2 picks replica 3 eventually
            assert committed_after_skip

    def test_crash_beyond_f_halts_but_stays_safe(self):
        sim = build_sim(n=4, seed=2)
        sim.crash(2)
        sim.crash(3)
        sim.run(until=3.0)
        alive = sim.nodes[:2]
        # 2 of 4 replicas cannot reach the n-f quorum: no progress, no harm.
        assert all(node.current_round <= 1 for node in alive)
        check_prefix_consistency([node.ledger for node in alive])


class TestRetrievalIntegration:
    def test_no_retrieval_needed_in_synchrony(self):
        sim = build_sim()
        sim.run(until=2.0)
        assert all(node.retrieval.requests_sent == 0 for node in sim.nodes)

    def test_retrieval_disabled_still_safe_in_synchrony(self):
        protocol = ProtocolConfig(batch_size=10, retrieval_enabled=False)
        sim = build_sim(protocol=protocol)
        sim.run(until=2.0)
        check_prefix_consistency([node.ledger for node in sim.nodes])
        assert all(len(node.ledger) > 0 for node in sim.nodes)
