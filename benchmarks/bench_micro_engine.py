"""Micro-benchmarks: simulator event throughput and protocol hot paths.

The profiling-first rule (optimization guide): know where the simulated
seconds go.  These benches time (a) the raw event loop, (b) one full
protocol round trip per protocol, normalizing by processed events —
the number that bounds how big a Fig. 13 sweep can get.
"""

import pytest

from repro.config import ProtocolConfig, SystemConfig
from repro.crypto.keys import TrustedDealer
from repro.harness.runner import PROTOCOL_REGISTRY
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulation


def build_sim(protocol_name, n=7, batch=100, seed=1):
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=batch)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    node_cls = PROTOCOL_REGISTRY[protocol_name]

    def factory(i):
        return lambda net: node_cls(net, system=system, protocol=protocol,
                                    keychain=chains[i])

    return Simulation(
        [factory(i) for i in range(n)],
        latency_model=FixedLatency(0.05),
        bandwidth_bps=100_000_000,
        seed=seed,
    )


@pytest.mark.parametrize("protocol", ["lightdag1", "lightdag2", "tusk"])
def test_protocol_simulated_second(benchmark, protocol):
    """Wall-clock cost of simulating one protocol-second at n=7."""

    def run_one_second():
        sim = build_sim(protocol)
        sim.run(until=1.0)
        return sim.stats.events_processed

    events = benchmark(run_one_second)
    assert events > 100


def test_event_loop_overhead(benchmark):
    """Pure event-queue throughput with trivial handlers."""
    from dataclasses import dataclass

    from repro.net.interfaces import Message, Node

    @dataclass(frozen=True)
    class Tick(Message):
        def wire_size(self) -> int:
            return 16

    class Bouncer(Node):
        count = 0

        def on_message(self, src, msg):
            self.count += 1
            if self.count < 2000:
                self.net.send((self.node_id + 1) % self.net.n, msg)

    def run():
        sim = Simulation(
            [lambda net: Bouncer(net) for _ in range(4)],
            latency_model=FixedLatency(0.001),
            bandwidth_bps=None,
        )
        sim.start()
        sim.nodes[0].net.send(1, Tick())
        sim.run()
        return sim.stats.events_processed

    events = benchmark(run)
    assert events >= 2000


def test_broadcast_fanout(benchmark):
    """The broadcast fast path: each delivery triggers a full n−1 fan-out.

    This is the shape of real protocol traffic (every block/vote/echo is a
    broadcast), and the case the batched ``_enqueue_broadcast`` path exists
    for: one crashed check and one stats update per broadcast instead of
    per copy.
    """
    from dataclasses import dataclass

    from repro.net.interfaces import Message, Node

    @dataclass(frozen=True)
    class Wave(Message):
        def wire_size(self) -> int:
            return 64

    class Echoer(Node):
        count = 0

        def on_message(self, src, msg):
            self.count += 1
            if self.count < 400:
                self.net.broadcast(msg)

    def run():
        sim = Simulation(
            [lambda net: Echoer(net) for _ in range(10)],
            latency_model=FixedLatency(0.001),
            bandwidth_bps=100_000_000,
        )
        sim.start()
        sim.nodes[0].net.broadcast(Wave())
        sim.run()
        return sim.stats.events_processed

    events = benchmark(run)
    assert events >= 400 * 9


# ------------------------------------------------------------------ storm

def test_fanout_storm_n64(benchmark):
    """A broadcast storm at fan-out 63: every node re-broadcasts each
    delivery until it has originated 120 broadcasts of its own.  This is
    the O(n²) echo-class delivery shape that dominates large-n sweeps,
    isolated from protocol logic (~n * rounds * n events).  BENCH_PR10.json
    holds the historical numbers for this body; the pinned end-to-end
    equivalent is ``sim_scale_n64`` in ``benchmarks/suite``."""
    from dataclasses import dataclass

    from repro.net.interfaces import Message, Node
    from repro.net.latency import WanLatency

    @dataclass(frozen=True)
    class Wave(Message):
        def wire_size(self) -> int:
            return 256

    class Echoer(Node):
        count = 0

        def on_message(self, src, msg):
            self.count += 1
            if self.count < 120:
                self.net.broadcast(msg)

    def run():
        sim = Simulation(
            [lambda net: Echoer(net) for _ in range(64)],
            latency_model=WanLatency(jitter_frac=0.1),
            bandwidth_bps=100_000_000,
            seed=9,
        )
        sim.start()
        sim.nodes[0].net.broadcast(Wave())
        sim.run(until=30.0)
        return sim.stats.events_processed

    events = benchmark(run)
    assert events > 64 * 63 * 100  # the storm really ran rounds deep
