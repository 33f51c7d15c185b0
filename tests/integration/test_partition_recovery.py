"""Partition and recovery: the §IV-A retrieval mechanism under fire.

An isolated replica misses whole waves of CBC/PBC traffic (no totality!).
When the partition heals, the only way back is retrieval: blocks it
receives reference ancestors it never saw, it pulls them from peers, and
its ledger catches up as a consistent prefix.
"""

import pytest

from repro.adversary.base import Adversary
from repro.adversary.schedule import FaultSchedule, parse_phase
from repro.broadcast.messages import BlockEcho
from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.core.base import STALL_AFTER
from repro.core.lightdag1 import LightDag1Node
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.dag.ledger import check_prefix_consistency
from repro.errors import ConfigError
from repro.harness import runner
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulation


def partition(spec):
    """The message-level driver of a ``partition@start+duration:group=…``."""
    return FaultSchedule.from_spec(spec).adversary()


def build_sim(node_cls, adversary, n=4, seed=1):
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=5)
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
    )


class TestPartitionAdversary:
    def test_cut_detection(self):
        from repro.broadcast.messages import RetrievalRequest

        adversary = partition("partition@0+1:group=0|1")
        msg = RetrievalRequest(())
        assert adversary.on_send(0, 2, msg, 0.5) is None
        assert adversary.on_send(3, 1, msg, 0.5) is None
        assert adversary.on_send(0, 1, msg, 0.5) == 0.0
        assert adversary.on_send(2, 3, msg, 0.5) == 0.0

    def test_window_respected(self):
        from repro.broadcast.messages import RetrievalRequest

        adversary = partition("partition@1+1:group=0")
        msg = RetrievalRequest(())
        assert adversary.on_send(0, 1, msg, 0.5) == 0.0
        assert adversary.on_send(0, 1, msg, 1.5) is None
        assert adversary.on_send(0, 1, msg, 2.5) == 0.0
        assert adversary.dropped == 1

    def test_invalid_window(self):
        """A partition that ends before it starts is refused."""
        with pytest.raises(ConfigError):
            parse_phase("partition@2+-1:group=0")


@pytest.mark.parametrize("node_cls", [LightDag1Node, LightDag2Node])
class TestIsolatedReplicaRecovery:
    def test_majority_progresses_during_isolation(self, node_cls):
        adversary = partition("partition@0.5+3.5:group=3")
        sim = build_sim(node_cls, adversary)
        sim.run(until=4.0)
        majority = sim.nodes[:3]
        assert all(len(n.ledger) > 10 for n in majority)
        # The isolated replica stalls (it cannot gather quorums alone).
        assert len(sim.nodes[3].ledger) < len(majority[0].ledger)

    def test_isolated_replica_catches_up_after_heal(self, node_cls):
        adversary = partition("partition@0.5+3.5:group=3")
        sim = build_sim(node_cls, adversary)
        sim.run(until=12.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        isolated = sim.nodes[3]
        reference = sim.nodes[0]
        # Catch-up: the straggler is within a couple of waves of the pack.
        assert len(isolated.ledger) > 0.7 * len(reference.ledger)
        assert isolated.retrieval.requests_sent > 0  # retrieval did the work

    def test_even_split_halts_everyone_safely(self, node_cls):
        """A 2-2 split leaves no side with an n-f quorum: no progress on
        either side, and no safety damage once healed."""
        adversary = partition("partition@0.2+2.8:group=0|1")
        sim = build_sim(node_cls, adversary)
        sim.run(until=3.0)
        committed_during = max(len(n.ledger) for n in sim.nodes)
        sim.run(until=8.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        assert all(len(n.ledger) > committed_during for n in sim.nodes)


class EchoCut(Adversary):
    """A cut of one CBC round's echoes between side ``{0}`` and ``{1, 2}``,
    healed at ``heal``: replica 0's echo for its own block of that round
    never crosses, nor do the echoes of ``{1, 2}`` for replica 1's block.  With
    replica 3 crashed every quorum needs all three live echoes, so replica
    0 delivers blocks 0 and 2 and replicas 1 and 2 deliver blocks 1 and 2:
    two of the three each side needs to advance.  Whatever the digests,
    the echoes still missing belong to replicas that delivered the block."""

    def __init__(self, round_, heal):
        super().__init__()
        self.round = round_
        self.heal = heal

    def on_send(self, src, dst, msg, now):
        if now >= self.heal or not isinstance(msg, BlockEcho):
            return 0.0
        if msg.round != self.round or (src == 0) == (dst == 0):
            return 0.0
        return None if msg.author == (0 if src == 0 else 1) else 0.0


@pytest.mark.parametrize("node_cls", [LightDag1Node, LightDag2Node])
def test_cut_inside_a_cbc_round_heals_within_a_few_stall_periods(node_cls):
    """After the heal the authors re-broadcast their stalled blocks (stall
    recovery).  A replica that already delivered such a block must still
    echo it again: the copies it sent during the cut were lost, and the
    other side can complete its quorum only with them."""
    round_, heal = 2, 3.0  # a CBC round of both protocols (LightDAG2: pbc/cbc/pbc)
    sim = build_sim(node_cls, EchoCut(round_, heal))
    sim.crash(3)
    sim.run(until=heal)
    live = sim.nodes[:3]
    assert all(node.current_round == round_ for node in live)  # stalled
    sim.run(until=heal + 4 * STALL_AFTER)
    for node in live:
        assert node.store.authors_in_round(round_) == {0, 1, 2}  # delivered
        assert node.current_round > round_ + 1
    check_prefix_consistency([n.ledger for n in live])


@pytest.mark.parametrize("gc_depth", [
    None,
    pytest.param(8, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2")),
])
def test_replica_cut_off_past_the_gc_horizon_catches_up(gc_depth, monkeypatch):
    """Replica 3 of 4 misses one second of rounds.  Without GC it catches
    up through retrieval; with ``gc_depth=8`` its peers have pruned what it
    missed, no retrieval can bring that back, and it stays at the round it
    was cut off in (37 of 59) until catch-up below the horizon exists."""
    sims = []

    class Recorded(runner.Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(runner, "Simulation", Recorded)
    runner.run_experiment(ExperimentConfig(
        system=SystemConfig(n=4, crypto="hmac", seed=3),
        protocol=ProtocolConfig(batch_size=50, gc_depth=gc_depth),
        protocol_name="lightdag2",
        latency_model="wan4",
        adversary_name="schedule:partition@4+1:group=3",
        check_level="prefix",
        duration=7.0,
        warmup=2.0,
        seed=3,
    ))
    (sim,) = sims
    laggard = sim.nodes[3]
    top = max(node.current_round for node in sim.nodes[:3])
    assert top > 50
    assert laggard.current_round >= top - 2
