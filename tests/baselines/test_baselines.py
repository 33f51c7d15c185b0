"""Tests for the DAG-Rider / Tusk / Bullshark baselines.

Each baseline must (a) make progress and commit, (b) keep all replicas'
ledgers prefix-consistent, (c) exhibit its Table I wave shape, and
(d) survive crash-f.  Bullshark additionally has the leader-wait path.
"""

import pytest

from repro.baselines.bullshark import BullsharkNode
from repro.baselines.dagrider import DagRiderNode
from repro.baselines.tusk import TuskNode
from repro.config import ProtocolConfig, SystemConfig
from repro.crypto.keys import TrustedDealer
from repro.dag.ledger import check_prefix_consistency
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.simulator import Simulation

ALL = [DagRiderNode, TuskNode, BullsharkNode]


def build_sim(node_cls, n=4, latency=None, seed=1, adversary=None):
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=10)
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


@pytest.mark.parametrize("node_cls", ALL)
class TestCommonBehaviour:
    def test_progress_and_safety(self, node_cls):
        sim = build_sim(node_cls)
        sim.run(until=4.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        assert all(len(n.ledger) > 10 for n in sim.nodes)

    def test_jittered_network(self, node_cls):
        sim = build_sim(node_cls, latency=UniformLatency(0.01, 0.1), seed=3)
        sim.run(until=5.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        assert all(len(n.ledger) > 0 for n in sim.nodes)

    def test_crash_f_liveness(self, node_cls):
        sim = build_sim(node_cls, seed=2)
        sim.crash(3)
        sim.run(until=6.0)
        alive = sim.nodes[:3]
        check_prefix_consistency([n.ledger for n in alive])
        assert all(len(n.ledger) > 5 for n in alive)

    def test_deterministic(self, node_cls):
        a = build_sim(node_cls, seed=4)
        a.run(until=2.0)
        b = build_sim(node_cls, seed=4)
        b.run(until=2.0)
        assert a.nodes[0].ledger.digest_sequence() == b.nodes[0].ledger.digest_sequence()


class TestWaveShapes:
    def test_dagrider_four_round_waves(self):
        sim = build_sim(DagRiderNode)
        node = sim.nodes[0]
        assert node.WAVE_LENGTH == 4 and not node.WAVE_OVERLAP
        assert node.SUPPORT_DEPTH == 3
        assert node.commit.support_threshold == 3  # 2f+1

    def test_tusk_three_round_waves(self):
        sim = build_sim(TuskNode)
        node = sim.nodes[0]
        assert node.WAVE_LENGTH == 3 and node.SUPPORT_DEPTH == 1
        assert node.commit.support_threshold == 2  # f+1

    def test_bullshark_two_round_units(self):
        sim = build_sim(BullsharkNode)
        node = sim.nodes[0]
        assert node.WAVE_LENGTH == 2 and node.SUPPORT_DEPTH == 1
        assert node.commit.support_threshold == 3  # 2f+1

    def test_rbc_rounds_slower_than_cbc(self):
        """3 steps per round: at 0.05s latency, ~6-7 rounds/s."""
        sim = build_sim(TuskNode)
        sim.run(until=3.0)
        assert 15 <= sim.nodes[0].current_round <= 22


class TestBullsharkSpecifics:
    def test_leaders_predefined_and_shared(self):
        a = build_sim(BullsharkNode, seed=5)
        a.run(until=2.0)
        b = build_sim(BullsharkNode, seed=5)
        b.run(until=2.0)
        assert a.nodes[0].revealed_leaders == b.nodes[0].revealed_leaders
        assert a.nodes[0].revealed_leaders == a.nodes[1].revealed_leaders

    def test_no_coin_messages(self):
        from repro.broadcast.messages import BlockVal

        system = SystemConfig(n=4, crypto="hmac", seed=1)
        protocol = ProtocolConfig(batch_size=10)
        chains = TrustedDealer(system).deal()
        seen = []

        class Spy(BullsharkNode):
            def on_message(self, src, msg):
                if isinstance(msg, BlockVal):
                    seen.append(msg.block.coin_share)
                super().on_message(src, msg)

        sim = Simulation(
            [lambda net, i=i: Spy(net, system, protocol, chains[i]) for i in range(4)],
            latency_model=FixedLatency(0.05),
            seed=1,
        )
        sim.run(until=2.0)
        assert seen and set(seen) == {None}  # no block carries a share

    def test_leader_wait_timer_on_missing_leader(self):
        """With the perpetual leader crashed, replicas burn the timeout
        each wave but still advance (the pessimistic path)."""
        sim = build_sim(BullsharkNode, seed=2)
        victim = sim.nodes[0].predefined_leader(1)
        sim.crash(victim)
        sim.run(until=6.0)
        alive = [n for i, n in enumerate(sim.nodes) if i != victim]
        assert all(n.current_round >= 3 for n in alive)
        check_prefix_consistency([n.ledger for n in alive])

    def test_commits_every_two_rounds_in_synchrony(self):
        sim = build_sim(BullsharkNode)
        sim.run(until=4.0)
        node = sim.nodes[0]
        committed = node.commit.committed_leader_waves
        # Nearly every 2-round wave commits when the network is friendly.
        assert len(committed) >= node.current_round // 2 - 3


class TestBullsharkStallRecovery:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_lost_proposals_are_rebroadcast_after_a_partition(self, seed):
        """Stall recovery is not coin business: a protocol with predefined
        leaders must still re-send a proposal the network lost.  On lossy
        links a three-way partition drops enough round-11..13 traffic that
        every replica waits on a block nobody will send again; without the
        re-broadcast the run stops there for good (seeds 1-5: round 11-13
        before the fix, 52-60 after)."""
        from repro.config import ExperimentConfig
        from repro.harness.runner import run_experiment

        result = run_experiment(
            ExperimentConfig(
                system=SystemConfig(n=7, crypto="hmac", seed=seed),
                protocol=ProtocolConfig(batch_size=50),
                protocol_name="bullshark",
                latency_model="topology:clusters=3,loss=0.05",
                adversary_name="schedule:partition@2+3:group=0|1|2",
                duration=14.0,
                seed=seed,
                check_level="prefix",
            )
        )
        assert result.rounds_reached >= 40
