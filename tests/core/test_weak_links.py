"""Tests for the weak-link fairness extension (ProtocolConfig.weak_links)."""

import pytest

from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.dag.ledger import check_prefix_consistency
from repro.errors import ConfigError
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.simulator import Simulation

from ..conftest import DelayMatching


def build_sim(weak_links, n=4, seed=1, latency=None, adversary=None,
              node_cls=LightDag1Node):
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=5, weak_links=weak_links)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    return Simulation(
        [
            (lambda net, i=i: node_cls(net, system, protocol, chains[i]))
            for i in range(n)
        ],
        latency_model=latency or UniformLatency(0.01, 0.09),
        adversary=adversary,
        seed=seed,
    )


def orphan_fraction(node, horizon):
    """Fraction of proposed slots in rounds [1, horizon) never committed."""
    committed_slots = {r.block.slot for r in node.ledger}
    total, missing = 0, 0
    for round_ in range(1, horizon):
        for author in range(node.system.n):
            if node.store.block_in_slot(round_, author) is not None:
                total += 1
                if (round_, author) not in committed_slots:
                    missing += 1
    return missing / total if total else 0.0


class TestConfigGuards:
    def test_lightdag2_rejects_weak_links(self):
        with pytest.raises(ConfigError, match="strict-store"):
            build_sim(weak_links=True, node_cls=LightDag2Node)

    def test_negative_cap_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(max_weak_refs=-1)


class TestFairness:
    def test_orphans_recovered_under_targeted_slowdown(self):
        """Slow down one replica's block dissemination so its blocks keep
        missing parent selection; weak links must pick them up anyway."""
        def slowed():
            return DelayMatching(lambda s, d, m: s == 2, delay=0.12)

        without = build_sim(weak_links=False, seed=4, adversary=slowed())
        without.run(until=8.0)
        with_links = build_sim(weak_links=True, seed=4, adversary=slowed())
        with_links.run(until=8.0)

        horizon = min(without.nodes[0].current_round,
                      with_links.nodes[0].current_round) - 6
        frac_without = orphan_fraction(without.nodes[0], horizon)
        frac_with = orphan_fraction(with_links.nodes[0], horizon)
        assert frac_without > 0.0  # the attack really orphans blocks
        assert frac_with < frac_without

    def test_safety_preserved(self):
        sim = build_sim(weak_links=True, seed=6)
        sim.run(until=8.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        assert all(len(n.ledger) > 50 for n in sim.nodes)

    def test_no_weak_refs_in_synchrony(self):
        """On a synchronous network nothing is ever orphaned, so weak links
        must add no references (no bandwidth cost when unneeded)."""
        sim = build_sim(weak_links=True, latency=FixedLatency(0.05), seed=7)
        sim.run(until=5.0)
        node = sim.nodes[0]
        for round_ in range(2, node.current_round - 2):
            block = node.store.block_in_slot(round_, 0)
            if block is None:
                continue
            for parent_digest in block.parents:
                parent = node.store.get_optional(parent_digest)
                assert parent is None or parent.round == block.round - 1

    def test_weak_parent_validation(self):
        """A block with weak refs passes validation only when allowed."""
        from repro.dag.block import genesis_block, make_block
        from repro.dag.store import DagStore
        from repro.dag.validation import validate_block_structure
        from repro.errors import InvalidBlockError

        from ..dag.helpers import grow_chain

        system = SystemConfig(n=4)
        store = DagStore(n=4)
        grow_chain(store, rounds=3, n=4)
        strong = [store.block_in_slot(3, a).digest for a in range(4)]
        weak = [store.block_in_slot(1, 0).digest]
        block = make_block(4, 0, strong + weak)
        validate_block_structure(block, store, system, allow_weak=True)
        with pytest.raises(InvalidBlockError):
            validate_block_structure(block, store, system, allow_weak=False)
        with pytest.raises(InvalidBlockError, match="weak"):
            validate_block_structure(block, store, system, allow_weak=True, max_weak=0)

    def test_determinism(self):
        a = build_sim(weak_links=True, seed=9)
        a.run(until=4.0)
        b = build_sim(weak_links=True, seed=9)
        b.run(until=4.0)
        assert a.nodes[0].ledger.digest_sequence() == b.nodes[0].ledger.digest_sequence()
