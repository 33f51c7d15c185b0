"""Property-based safety tests: the executable Theorems 2 and 6.

Hypothesis drives the protocols through randomized asynchronous schedules,
crash subsets, and Byzantine equivocation; after every run the honest
ledgers must agree on their common prefix.  Any counterexample here is a
consensus bug, full stop.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary.byzantine import EquivocatingLightDag2Node
from repro.adversary.schedule import FaultSchedule
from repro.baselines.bullshark import BullsharkNode
from repro.baselines.dagrider import DagRiderNode
from repro.baselines.tusk import TuskNode
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.dag.ledger import check_prefix_consistency
from repro.net.latency import UniformLatency
from repro.net.simulator import Simulation

PROTOCOLS = [LightDag1Node, LightDag2Node, DagRiderNode, TuskNode, BullsharkNode]

COMMON_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_protocol(
    node_cls,
    seed,
    n=4,
    crashes=(),
    byzantine=None,
    max_extra_delay=0.15,
    duration=6.0,
):
    byzantine = byzantine or {}
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=5)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()

    def factory(i):
        if i in byzantine:
            return lambda net: EquivocatingLightDag2Node(
                net, system, protocol, chains[i], start_wave=byzantine[i]
            )
        return lambda net: node_cls(net, system, protocol, chains[i])

    sim = Simulation(
        [factory(i) for i in range(n)],
        latency_model=UniformLatency(0.01, 0.06),
        adversary=FaultSchedule.from_spec(
            f"delay@0+inf:max={max_extra_delay}"
        ).adversary(seed),
        seed=seed,
    )
    for victim in crashes:
        sim.crash(victim)
    sim.run(until=duration)
    honest = [
        node
        for i, node in enumerate(sim.nodes)
        if i not in crashes and i not in byzantine
    ]
    return sim, honest


@pytest.mark.parametrize("node_cls", PROTOCOLS)
@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_safety_under_random_schedules(node_cls, seed):
    """Theorem 2/6 under adversarial-but-finite message delays."""
    _, honest = run_protocol(node_cls, seed)
    check_prefix_consistency([node.ledger for node in honest])
    assert all(len(node.ledger) > 0 for node in honest)


@pytest.mark.parametrize("node_cls", [LightDag1Node, LightDag2Node, TuskNode])
@settings(**COMMON_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    victim=st.integers(min_value=0, max_value=3),
)
def test_safety_under_crash_and_jitter(node_cls, seed, victim):
    """Crash any single replica (f=1) under random scheduling."""
    _, honest = run_protocol(node_cls, seed, crashes=(victim,), duration=8.0)
    check_prefix_consistency([node.ledger for node in honest])


@settings(**COMMON_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    start_wave=st.integers(min_value=1, max_value=4),
)
def test_lightdag2_safety_under_equivocation(seed, start_wave):
    """Theorem 6 with an active equivocator and adversarial scheduling."""
    _, honest = run_protocol(
        LightDag2Node,
        seed,
        byzantine={3: start_wave},
        duration=8.0,
    )
    check_prefix_consistency([node.ledger for node in honest])
    assert all(len(node.ledger) > 0 for node in honest)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    start_wave=st.integers(min_value=1, max_value=3),
    victim=st.integers(min_value=0, max_value=5),
)
def test_lightdag2_crash_plus_equivocation(seed, start_wave, victim):
    """n=7 tolerates f=2: one crash and one equivocator simultaneously."""
    crash = victim if victim != 6 else 5
    _, honest = run_protocol(
        LightDag2Node,
        seed,
        n=7,
        crashes=(crash,),
        byzantine={6: start_wave},
        duration=8.0,
    )
    check_prefix_consistency([node.ledger for node in honest])


@pytest.mark.parametrize("node_cls", [LightDag1Node, LightDag2Node])
@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_commit_metadata_agreement_under_tail_delays(node_cls, seed):
    """Stronger than prefix agreement: replicas must also agree on *how*
    each block committed (leader index and anchoring leader), even when a
    heavy-tailed scheduler forces some of them to commit via Algorithm 1's
    cascade instead of the direct path."""
    from repro.check import audit_cross_replica

    system = SystemConfig(n=4, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=5)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    sim = Simulation(
        [
            (lambda net, i=i: node_cls(net, system, protocol, chains[i]))
            for i in range(4)
        ],
        latency_model=UniformLatency(0.01, 0.06),
        adversary=FaultSchedule.from_spec(
            "delay@0+inf:max=0.2,tailp=0.15,taild=1"
        ).adversary(seed),
        seed=seed,
    )
    sim.run(until=8.0)
    labels = [f"replica {i}" for i in range(4)]
    assert audit_cross_replica(sim.nodes, labels) == []
    assert any(len(node.ledger) > 0 for node in sim.nodes)


@pytest.mark.parametrize("node_cls", PROTOCOLS)
def test_commit_records_monotone_time(node_cls):
    """Commit times never decrease along the ledger (sanity of Algorithm 1's
    batching: positions are assigned in commit order)."""
    _, honest = run_protocol(node_cls, seed=77)
    for node in honest:
        times = [record.commit_time for record in node.ledger]
        assert times == sorted(times)


@pytest.mark.parametrize("node_cls", PROTOCOLS)
def test_committed_blocks_unique(node_cls):
    _, honest = run_protocol(node_cls, seed=78)
    for node in honest:
        digests = node.ledger.digest_sequence()
        assert len(digests) == len(set(digests))
