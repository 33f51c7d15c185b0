"""Tests for the adversary package: crash, targeted delay, scheduling —
each fault driven the one way the package drives it, as a schedule spec."""

from repro.adversary.schedule import ATTACKS, FaultSchedule
from repro.baselines.bullshark import BullsharkNode
from repro.broadcast.messages import BlockEcho, BlockVal
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.crypto.keys import TrustedDealer
from repro.dag.block import genesis_block, make_block
from repro.dag.ledger import check_prefix_consistency
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulation

from ..conftest import DelayMatching


def faults(spec, seed=0):
    """The message-level driver of a schedule spec."""
    return FaultSchedule.from_spec(spec).adversary(seed)


def build_sim(node_cls, n=4, seed=1, adversary=None):
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=10)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    return Simulation(
        [
            (lambda net, i=i: node_cls(net, system, protocol, chains[i]))
            for i in range(n)
        ],
        latency_model=FixedLatency(0.05),
        adversary=adversary,
        seed=seed,
    ), system


class TestCrashAdversary:
    def test_crash_f_helper(self):
        spec = ATTACKS["crash"](SystemConfig(n=7))
        assert FaultSchedule.from_spec(spec).faulty_replicas() == (5, 6)

    def test_attach_crashes_victims(self):
        sim, _ = build_sim(LightDag1Node, adversary=faults("crash@0+0:victims=3"))
        assert 3 in sim.crashed

    def test_delayed_crash_scheduled(self):
        """A crash at t>0 silences the replica from then on, not before."""
        sim, _ = build_sim(LightDag1Node, adversary=faults("crash@1+0:victims=3"))
        assert 3 not in sim.crashed
        sim.run(until=0.9)
        proposed_before = sim.nodes[3].current_round
        assert proposed_before > 1
        sim.run(until=3.0)
        assert 3 in sim.crashed
        assert sim.nodes[3].current_round <= proposed_before + 1
        assert sim.nodes[0].current_round > proposed_before + 5

    def test_system_survives_crash_f(self):
        sim, _ = build_sim(LightDag1Node, adversary=faults("crash@0+0:victims=3"))
        sim.run(until=4.0)
        alive = sim.nodes[:3]
        check_prefix_consistency([n.ledger for n in alive])
        assert all(len(n.ledger) > 5 for n in alive)

    def test_throughput_lower_than_favorable(self):
        clean, _ = build_sim(LightDag1Node, seed=2)
        clean.run(until=4.0)
        attacked, _ = build_sim(
            LightDag1Node, seed=2, adversary=faults("crash@0+0:victims=3")
        )
        attacked.run(until=4.0)
        assert len(attacked.nodes[0].ledger) < len(clean.nodes[0].ledger)


class TestTargetedDelay:
    def test_predicate_gates_delay(self):
        adv = DelayMatching(lambda s, d, m: isinstance(m, BlockVal), delay=2.0)
        block = make_block(1, 0, [genesis_block(a).digest for a in range(4)])
        assert adv.on_send(0, 1, BlockVal(block), 0.0) == 2.0
        assert adv.on_send(0, 1, BlockEcho(1, 0, block.digest), 0.0) == 0.0
        assert adv.delayed_count == 1

    def test_bullshark_leader_delay_targets_leader_vals_only(self):
        adv = faults("leader-delay@0+inf:delay=1")
        # The leader schedule is the attached cluster's own, public one.
        sim, _ = build_sim(BullsharkNode, n=4, seed=1, adversary=adv)
        leader = sim.nodes[0].predefined_leader(1)
        parents = [genesis_block(a).digest for a in range(4)]
        leader_block = make_block(1, leader, parents)
        other_block = make_block(1, (leader + 1) % 4, parents)
        even_round_block = make_block(2, leader, parents)
        assert adv.on_send(leader, 2, BlockVal(leader_block), 0.0) == 1.0
        assert adv.on_send(0, 2, BlockVal(other_block), 0.0) == 0.0
        assert adv.on_send(leader, 2, BlockVal(even_round_block), 0.0) == 0.0
        echo = BlockEcho(1, leader, leader_block.digest)
        assert adv.on_send(leader, 2, echo, 0.0) == 0.0

    def test_bullshark_suffers_under_leader_delay(self):
        clean, system = build_sim(BullsharkNode, seed=2)
        clean.run(until=6.0)
        attacked, _ = build_sim(
            BullsharkNode, seed=2, adversary=faults(ATTACKS["leader-delay"](system))
        )
        attacked.run(until=6.0)
        check_prefix_consistency([n.ledger for n in attacked.nodes])
        assert len(attacked.nodes[0].ledger) < len(clean.nodes[0].ledger)


class TestRandomScheduling:
    def test_delays_within_bounds(self):
        adv, twin = faults("delay@0+inf:max=0.3", 1), faults("delay@0+inf:max=0.3", 1)
        other_seed = faults("delay@0+inf:max=0.3", 2)
        block = make_block(1, 0, [genesis_block(a).digest for a in range(4)])
        drawn = [adv.on_send(0, 1, BlockVal(block), 0.0) for _ in range(100)]
        assert all(0.0 <= d <= 0.3 for d in drawn)
        # Seed-deterministic: the same seed redraws the same delays.
        assert drawn == [twin.on_send(0, 1, BlockVal(block), 0.0) for _ in range(100)]
        assert drawn != [other_seed.on_send(0, 1, BlockVal(block), 0.0) for _ in range(100)]

    def test_tail_delays(self):
        adv = faults("delay@0+inf:max=0.1,tailp=1,taild=5", 1)
        block = make_block(1, 0, [genesis_block(a).digest for a in range(4)])
        assert adv.on_send(0, 1, BlockVal(block), 0.0) >= 5.0

    def test_protocol_survives_random_scheduling(self):
        sim, _ = build_sim(
            LightDag1Node,
            seed=3,
            adversary=faults("delay@0+inf:max=0.25", 3),
        )
        sim.run(until=8.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        assert all(len(n.ledger) > 0 for n in sim.nodes)


class TestStagger:
    def test_stagger_start_waves(self):
        """§VI-A "one Byzantine replica each time": two waves apart."""
        assert ATTACKS["equivocate"](SystemConfig(n=7)) == (
            "equivocate@0+0:replicas=5,wave=1;equivocate@0+0:replicas=6,wave=3"
        )
        assert ATTACKS["equivocate"](SystemConfig(n=3)) == ""
