"""Liveness tests: progress guarantees under each fault model.

The paper's liveness arguments (Theorems 3 and 10) are probabilistic; the
executable form is "within a bounded simulated horizon, commits keep
happening and every submitted-then-referenced transaction eventually
lands".
"""

import pytest

from repro.adversary.byzantine import EquivocatingLightDag2Node
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.net.latency import UniformLatency
from repro.net.simulator import Simulation


def build(node_cls, n=4, seed=1, byzantine=None, batch=5):
    byzantine = byzantine or {}
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=batch)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()

    def factory(i):
        if i in byzantine:
            return lambda net: EquivocatingLightDag2Node(
                net, system, protocol, chains[i], start_wave=byzantine[i]
            )
        return lambda net: node_cls(net, system, protocol, chains[i])

    return Simulation(
        [factory(i) for i in range(n)],
        latency_model=UniformLatency(0.02, 0.08),
        seed=seed,
    )


class TestSteadyProgress:
    @pytest.mark.parametrize("node_cls", [LightDag1Node, LightDag2Node])
    def test_commit_rate_does_not_stall(self, node_cls):
        """Split the horizon in half: the second half must commit too."""
        sim = build(node_cls)
        sim.run(until=4.0)
        mid = len(sim.nodes[0].ledger)
        sim.run(until=8.0)
        end = len(sim.nodes[0].ledger)
        assert mid > 0
        assert end > mid * 1.5

    def test_wave_commit_probability_exceeds_third(self):
        """Theorem 3's bound, measured: the fraction of waves committed
        directly-or-indirectly is far above 1/3 in synchrony."""
        sim = build(LightDag1Node)
        sim.run(until=8.0)
        node = sim.nodes[0]
        revealed = len(node.revealed_leaders)
        committed = len(node.commit.committed_leader_waves)
        assert committed / revealed > 1 / 3

    def test_every_slot_of_settled_rounds_committed_in_synchrony(self):
        """With no faults and a synchronous network, every proposed block
        of a settled round ends up in the ledger (no unexplained drops).
        Under jitter an occasional slow block is legitimately orphaned —
        hence the fixed-latency network here."""
        from repro.net.latency import FixedLatency

        sim = build(LightDag1Node, seed=3)
        sim.latency = FixedLatency(0.05)
        sim.run(until=8.0)
        node = sim.nodes[0]
        horizon = node.wave.first_round(max(node.commit.committed_leader_waves))
        committed_slots = {(r.round, r.author) for r in node.ledger}
        for round_ in range(1, horizon):
            for author in range(4):
                assert (round_, author) in committed_slots, (round_, author)


class TestLivenessUnderFaults:
    def test_lightdag2_waves_to_commit_bounded_under_equivocation(self):
        """Theorem 10's shape: with t=1 equivocator, commits happen within
        a few waves of the attack, and exclusion restores full speed."""
        sim = build(LightDag2Node, byzantine={3: 2}, seed=7)
        sim.run(until=12.0)
        node = sim.nodes[0]
        committed = sorted(node.commit.committed_leader_waves)
        assert committed, "nothing committed at all"
        gaps = [b - a for a, b in zip(committed, committed[1:])]
        # After exclusion, commit cadence returns to normal: mostly gap-1
        # (the occasional 2-3 is ordinary leader luck, not the attack).
        tail = gaps[len(gaps) // 2:]
        assert tail and max(tail) <= 4
        assert tail.count(1) / len(tail) >= 0.5

    def test_crash_f_progress_all_protocols(self):
        for node_cls in (LightDag1Node, LightDag2Node):
            sim = build(node_cls, seed=5)
            sim.crash(3)
            sim.run(until=10.0)
            for node in sim.nodes[:3]:
                assert len(node.ledger) > 20, node_cls.__name__

    def test_lightdag2_two_equivocators_eventually_full_speed(self):
        sim = build(LightDag2Node, n=7, byzantine={5: 1, 6: 3}, seed=9)
        sim.run(until=15.0)
        honest = [sim.nodes[i] for i in range(5)]
        for node in honest:
            committed = sorted(node.commit.committed_leader_waves)
            assert len(committed) > 10
            gaps = [b - a for a, b in zip(committed, committed[1:])]
            tail = gaps[len(gaps) // 2:]
            assert max(tail) <= 4
            assert tail.count(1) / len(tail) >= 0.5


class TestTransactionLevelLiveness:
    def test_submitted_payload_commits(self):
        """A transaction handed to every replica's mempool is committed
        (the §II-A liveness property, client's-eye view)."""
        from repro.dag.block import TxBatch

        system = SystemConfig(n=4, crypto="hmac", seed=1)
        protocol = ProtocolConfig(batch_size=5)
        chains = TrustedDealer(system).deal()
        marker_committed = []

        def payload_source(now):
            return TxBatch(count=1, tx_size=128, submit_time_sum=now,
                           sample=(now,), items=(b"MARKER",))

        def on_commit(record):
            if b"MARKER" in record.block.payload.items:
                marker_committed.append(record)

        def factory(i):
            return lambda net: LightDag2Node(
                net, system, protocol, chains[i],
                payload_source=payload_source,
                on_commit=on_commit if i == 0 else None,
            )

        sim = Simulation(
            [factory(i) for i in range(4)],
            latency_model=UniformLatency(0.02, 0.08),
            seed=1,
        )
        sim.run(until=3.0)
        assert marker_committed
