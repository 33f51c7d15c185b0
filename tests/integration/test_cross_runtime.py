"""Cross-runtime equivalence: the same protocol code on both runtimes.

The sans-I/O layering's promise is that a Node behaves identically under
the discrete-event simulator and the TCP socket transport, with or
without injected propagation delay.  Wall-clock runtimes aren't deterministic, so "identical"
means: same safety invariants, same protocol structure (wave shapes,
commit rules), and payload integrity end to end.
"""

import asyncio

import pytest

from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.dag.block import TxBatch
from repro.dag.ledger import check_prefix_consistency
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulation
from repro.net.tcp import TcpCluster

SYSTEM = SystemConfig(n=4, crypto="hmac", seed=5)
PROTOCOL = ProtocolConfig(batch_size=8)


def factories():
    chains = TrustedDealer(
        SYSTEM, coin_threshold=PROTOCOL.resolve_coin_threshold(SYSTEM)
    ).deal()

    def payload_source(now):
        return TxBatch(count=8, tx_size=128, submit_time_sum=8 * now, sample=(now,))

    def factory(i):
        return lambda net: LightDag2Node(
            net, SYSTEM, PROTOCOL, chains[i], payload_source=payload_source
        )

    return [factory(i) for i in range(SYSTEM.n)]


def run_simulator():
    sim = Simulation(factories(), latency_model=FixedLatency(0.01), seed=5)
    sim.run(until=2.0)
    return sim.nodes


def run_tcp(latency_model=None):
    cluster = TcpCluster(factories(), latency_model=latency_model, seed=5)
    asyncio.run(cluster.run(2.0))
    return cluster.nodes


RUNTIMES = {
    "simulator": run_simulator,
    "tcp": run_tcp,
    "tcp-delayed": lambda: run_tcp(FixedLatency(0.01)),
}


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
class TestEveryRuntime:
    def test_progress_and_safety(self, runtime):
        nodes = RUNTIMES[runtime]()
        check_prefix_consistency([n.ledger for n in nodes])
        assert all(len(n.ledger) > 0 for n in nodes), runtime

    def test_wave_structure_identical(self, runtime):
        nodes = RUNTIMES[runtime]()
        node = nodes[0]
        # Same protocol constants regardless of transport.
        assert node.WAVE_LENGTH == 3
        assert node.commit.support_threshold == SYSTEM.quorum
        # Committed leaders occupy first-round slots.
        for w in node.commit.committed_leader_waves:
            leader = node.leader_block_of(w)
            assert leader is not None
            assert node.wave.first_round(w) == leader.round

    def test_payload_counts_preserved(self, runtime):
        nodes = RUNTIMES[runtime]()
        counts = {r.count for r in nodes[0].ledger if r.count}
        assert counts == {8}, runtime


def test_coin_sequence_identical_across_runtimes():
    """Leader election depends only on (seed, wave): every runtime must
    reveal the same leader sequence for the waves it reaches."""
    leaders = {}
    for name, run in RUNTIMES.items():
        nodes = run()
        node = nodes[0]
        leaders[name] = {
            w: node.revealed_leaders[w] for w in sorted(node.revealed_leaders)[:5]
        }
    reference = leaders.pop("simulator")
    for name, observed in leaders.items():
        common = set(reference) & set(observed)
        assert common, f"{name} revealed no common waves"
        for w in common:
            assert observed[w] == reference[w], (name, w)
