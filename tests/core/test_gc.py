"""Tests for DAG garbage collection (ProtocolConfig.gc_depth)."""

import pytest

from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.dag.ledger import check_prefix_consistency
from repro.dag.store import DagStore
from repro.errors import ConfigError
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.simulator import Simulation

from ..conftest import DelayMatching
from ..dag.helpers import grow_chain


def build_sim(node_cls=LightDag1Node, gc_depth=None, n=4, seed=1, latency=None):
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=5, gc_depth=gc_depth)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    return Simulation(
        [
            (lambda net, i=i: node_cls(net, system, protocol, chains[i]))
            for i in range(n)
        ],
        latency_model=latency or FixedLatency(0.05),
        seed=seed,
    )


class TestStorePrune:
    def test_prune_removes_old_rounds(self):
        store = DagStore(n=4)
        grow_chain(store, rounds=10, n=4)
        removed = store.prune_below(6)
        assert removed == 5 * 4
        assert store.lowest_retained_round() == 6
        assert store.round_author_count(5) == 0
        assert store.round_author_count(6) == 4

    def test_genesis_survives(self):
        store = DagStore(n=4)
        grow_chain(store, rounds=3, n=4)
        store.prune_below(10)
        assert store.round_author_count(0) == 4

    def test_prune_idempotent(self):
        store = DagStore(n=4)
        grow_chain(store, rounds=5, n=4)
        store.prune_below(4)
        assert store.prune_below(4) == 0

    def test_traversal_tolerates_pruned_parents(self):
        from repro.dag.traversal import ancestors_of

        store = DagStore(n=4)
        grow_chain(store, rounds=6, n=4)
        tip = store.block_in_slot(6, 0)
        store.prune_below(4)
        reachable = list(ancestors_of(tip, store))
        assert all(b.round >= 4 for b in reachable if not b.is_genesis)


class TestGcConfig:
    def test_too_small_depth_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(gc_depth=2)

    def test_none_keeps_everything(self):
        sim = build_sim(gc_depth=None)
        sim.run(until=4.0)
        node = sim.nodes[0]
        assert node.store.lowest_retained_round() == 1


class TestGcEndToEnd:
    @pytest.mark.parametrize("node_cls", [LightDag1Node, LightDag2Node])
    def test_store_bounded(self, node_cls):
        sim = build_sim(node_cls=node_cls, gc_depth=10)
        sim.run(until=8.0)
        node = sim.nodes[0]
        rounds_reached = node.current_round
        assert rounds_reached > 40
        retained = rounds_reached - node.store.lowest_retained_round()
        assert retained < 30  # bounded window, not full history
        assert len(node.store) < 30 * 5

    def test_gc_preserves_safety(self):
        sim = build_sim(gc_depth=10, latency=UniformLatency(0.02, 0.08), seed=5)
        sim.run(until=8.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        assert all(len(n.ledger) > 50 for n in sim.nodes)

    def test_gc_and_no_gc_commit_identically_in_steady_state(self):
        """With a generous depth nothing is ever actually cut — the ledgers
        must be byte-identical to a run without GC."""
        with_gc = build_sim(gc_depth=50, seed=3)
        with_gc.run(until=5.0)
        without = build_sim(gc_depth=None, seed=3)
        without.run(until=5.0)
        assert (
            with_gc.nodes[0].ledger.digest_sequence()
            == without.nodes[0].ledger.digest_sequence()
        )

    def test_gc_safety_with_laggard(self):
        """A replica whose messages crawl still agrees on the prefix — the
        deterministic commit horizon keeps commit sets identical even when
        pruning states differ."""
        from repro.net.simulator import Simulation
        from repro.crypto.keys import TrustedDealer

        system = SystemConfig(n=4, crypto="hmac", seed=2)
        protocol = ProtocolConfig(batch_size=5, gc_depth=12)
        chains = TrustedDealer(system).deal()
        slow_to_3 = DelayMatching(lambda s, d, m: d == 3, delay=0.4)
        sim = Simulation(
            [
                (lambda net, i=i: LightDag1Node(net, system, protocol, chains[i]))
                for i in range(4)
            ],
            latency_model=FixedLatency(0.05),
            adversary=slow_to_3,
            seed=2,
        )
        sim.run(until=10.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        assert len(sim.nodes[3].ledger) > 0
