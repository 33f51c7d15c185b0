"""Feature-combination tests: GC + faults together.

Individual features are tested in isolation; deployments turn several on
at once.  These runs exercise the interactions (pruning must coexist with
slow and crashed replicas and with the recovery machinery).
"""

import pytest

from repro.adversary.schedule import FaultSchedule
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.crypto.keys import TrustedDealer
from repro.dag.ledger import check_prefix_consistency
from repro.net.latency import UniformLatency
from repro.net.simulator import Simulation

from ..conftest import DelayMatching


def build_sim(protocol_kwargs, n=4, seed=1, adversary=None, crash=None):
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=5, **protocol_kwargs)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    sim = Simulation(
        [
            (lambda net, i=i: LightDag1Node(net, system, protocol, chains[i]))
            for i in range(n)
        ],
        latency_model=UniformLatency(0.02, 0.08),
        adversary=adversary,
        seed=seed,
    )
    if crash is not None:
        sim.crash(crash)
    return sim


class TestGcPlusWeakLinks:
    """GC where blocks get orphaned: a slow replica, a crashed one."""

    def test_combined_run_safe_and_bounded(self):
        sim = build_sim({"gc_depth": 12}, seed=3)
        sim.run(until=10.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        node = sim.nodes[0]
        assert len(node.ledger) > 50
        # Memory actually bounded.
        assert node.store.lowest_retained_round() > 1

    def test_combined_with_slow_replica(self):
        slow = DelayMatching(lambda s, d, m: s == 2, delay=0.12)
        sim = build_sim({"gc_depth": 16}, seed=4, adversary=slow)
        sim.run(until=10.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])

    def test_combined_with_crash(self):
        sim = build_sim({"gc_depth": 12}, seed=5, crash=3)
        sim.run(until=10.0)
        alive = sim.nodes[:3]
        check_prefix_consistency([n.ledger for n in alive])
        assert all(len(n.ledger) > 30 for n in alive)


class TestGcPlusRecovery:
    def test_gc_node_can_still_serve_recent_retrieval(self):
        """A pruning node keeps enough history (gc_depth + wave margin) to
        answer retrieval for anything a live replica can still need."""
        adversary = FaultSchedule.from_spec("partition@0.5+2:group=3").adversary()
        system = SystemConfig(n=4, crypto="hmac", seed=6)
        protocol = ProtocolConfig(batch_size=5, gc_depth=40)
        chains = TrustedDealer(system).deal()
        sim = Simulation(
            [
                (lambda net, i=i: LightDag1Node(net, system, protocol, chains[i]))
                for i in range(4)
            ],
            latency_model=UniformLatency(0.02, 0.06),
            adversary=adversary,
            seed=6,
        )
        sim.run(until=10.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        # The straggler caught up through retrieval served by pruning peers.
        assert len(sim.nodes[3].ledger) > 0.6 * len(sim.nodes[0].ledger)
