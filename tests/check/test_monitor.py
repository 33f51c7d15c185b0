"""Mid-run InvariantMonitor tests: fabricated commit/deliver streams."""

import pytest

from repro.check import InvariantMonitor
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.dag.block import TxBatch, make_block
from repro.dag.ledger import CommitRecord
from repro.errors import InvariantViolation
from repro.harness.runner import run_experiment
from repro.net.latency import UniformLatency
from repro.net.simulator import Simulation
from repro.obs import EventJournal, MetricsRegistry, Observability


def record(position, block, leader_index=0, via=b"L" * 32, t=1.0):
    return CommitRecord(
        position=position, block=block, commit_time=t,
        via_leader=via, leader_index=leader_index,
    )


def block_at(round_, author, j=0):
    return make_block(round_, author, [], TxBatch(0, 64), repropose_index=j)


class TestPerNodeChecks:
    def test_dense_positions_enforced(self):
        monitor = InvariantMonitor()
        hook = monitor.wrap_commit(0)
        hook(record(0, block_at(1, 0)))
        with pytest.raises(InvariantViolation, match="ledger-dense"):
            hook(record(2, block_at(1, 1)))

    def test_leader_index_monotone(self):
        monitor = InvariantMonitor()
        hook = monitor.wrap_commit(0)
        hook(record(0, block_at(1, 0), leader_index=3))
        with pytest.raises(InvariantViolation, match="leader-index-monotone"):
            hook(record(1, block_at(1, 1), leader_index=2))

    def test_via_leader_constant_per_index(self):
        monitor = InvariantMonitor()
        hook = monitor.wrap_commit(0)
        hook(record(0, block_at(1, 0), via=b"A" * 32))
        with pytest.raises(InvariantViolation, match="via-leader-consistent"):
            hook(record(1, block_at(1, 1), via=b"B" * 32))

    def test_second_via_at_a_later_index_still_caught(self):
        """One (index, via) entry per replica: a new index replaces it,
        and a second via at that index is still refused."""
        monitor = InvariantMonitor()
        hook = monitor.wrap_commit(0)
        hook(record(0, block_at(1, 0), leader_index=0, via=b"A" * 32))
        hook(record(1, block_at(1, 1), leader_index=1, via=b"B" * 32))
        hook(record(2, block_at(1, 2), leader_index=1, via=b"B" * 32))
        with pytest.raises(InvariantViolation, match="via-leader-consistent"):
            hook(record(3, block_at(1, 3), leader_index=1, via=b"C" * 32))

    def test_leader_state_does_not_grow_with_leader_indices(self):
        monitor = InvariantMonitor()
        hook = monitor.wrap_commit(0)
        for index in range(50):
            hook(record(index, block_at(1, index), leader_index=index))
        assert monitor._last_leader == {0: (49, b"L" * 32)}

    def test_inner_callback_forwarded(self):
        seen = []
        monitor = InvariantMonitor()
        hook = monitor.wrap_commit(0, seen.append)
        rec = record(0, block_at(1, 0))
        hook(rec)
        assert seen == [rec]
        assert monitor.commits_checked == 1


class TestCrossReplicaChecks:
    def test_position_agreement(self):
        monitor = InvariantMonitor()
        monitor.wrap_commit(0)(record(0, block_at(1, 0)))
        with pytest.raises(InvariantViolation, match="position-agreement"):
            monitor.wrap_commit(1)(record(0, block_at(1, 1)))

    def test_metadata_agreement(self):
        monitor = InvariantMonitor()
        block = block_at(1, 0)
        monitor.wrap_commit(0)(record(0, block, leader_index=0))
        with pytest.raises(InvariantViolation, match="commit-metadata-agreement"):
            monitor.wrap_commit(1)(record(0, block, leader_index=1))

    def test_agreement_passes_for_identical_streams(self):
        monitor = InvariantMonitor()
        blocks = [block_at(1, i) for i in range(3)]
        for node_id in (0, 1, 2):
            hook = monitor.wrap_commit(node_id)
            for pos, block in enumerate(blocks):
                hook(record(pos, block))
        assert monitor.commits_checked == 9

    def test_violation_journaled_before_raise(self):
        obs = Observability(MetricsRegistry(), EventJournal())
        monitor = InvariantMonitor(obs=obs)
        monitor.wrap_commit(0)(record(0, block_at(1, 0)))
        with pytest.raises(InvariantViolation):
            monitor.wrap_commit(1)(record(0, block_at(1, 1)))
        events = [e for e in obs.journal if e.type == "oracle.violation"]
        assert len(events) == 1
        assert events[0].data["oracle"] == "position-agreement"


class TestLiveWiring:
    def test_full_level_monitors_a_real_run(self):
        from repro.config import ExperimentConfig

        cfg = ExperimentConfig(
            system=SystemConfig(n=4, crypto="hmac", seed=1),
            protocol=ProtocolConfig(batch_size=5),
            protocol_name="lightdag2",
            duration=3.0,
            warmup=0.5,
            cpu_fixed_us=0.0,
            cpu_per_byte_ns=0.0,
            check_level="full",
        )
        result = run_experiment(cfg)
        assert result.committed_txs > 0  # callbacks still reach the collector

    def test_deliver_hook_counts(self):
        system = SystemConfig(n=4, crypto="hmac", seed=2)
        protocol = ProtocolConfig(batch_size=5)
        chains = TrustedDealer(
            system, coin_threshold=protocol.resolve_coin_threshold(system)
        ).deal()
        monitor = InvariantMonitor()
        sim = Simulation(
            [
                (lambda net, i=i: LightDag2Node(
                    net, system, protocol, chains[i],
                    on_deliver=monitor.deliver_hook(i),
                    on_commit=monitor.wrap_commit(i),
                ))
                for i in range(4)
            ],
            latency_model=UniformLatency(0.02, 0.06),
            seed=2,
        )
        monitor.bind(sim.nodes)
        sim.run(until=3.0)
        assert monitor.deliveries_checked > 0
        assert monitor.commits_checked > 0
