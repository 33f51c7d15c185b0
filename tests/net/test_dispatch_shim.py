"""``Simulation._dispatch`` must be the run loop, one event at a time.

The explorer (:mod:`repro.check.explorer`) single-steps events through
``Simulation._dispatch`` instead of calling ``run()``; it builds its worlds
with ``cpu=None`` and obs off, so the shim's CPU-queue, crash-suppression
and obs branches are reachable there but executed by none of its tests.
Here both drive the same seeded world — CPU model on, one replica crashing
mid-run, metrics + journal + tracer on — and everything observable must
come out equal.
"""

from dataclasses import dataclass

from repro.net.interfaces import Message, Node
from repro.net.latency import WanLatency
from repro.net.simulator import CpuCost, Simulation
from repro.obs import EventJournal, MetricsRegistry, Observability, Tracer

N = 6
HORIZON = 2.0


@dataclass(frozen=True)
class Gossip(Message):
    origin: int
    round: int

    def wire_size(self) -> int:
        return 900


@dataclass(frozen=True)
class Ack(Message):
    round: int

    def wire_size(self) -> int:
        return 60


class Chatter(Node):
    """Broadcasts every 50 ms and acks each Gossip with a unicast — so both
    send paths, timers, loopbacks and a CPU backlog are all in play."""

    def __init__(self, net):
        super().__init__(net)
        self.received = []

    def on_start(self):
        self.net.set_timer(0.0, "tick", 0)

    def on_message(self, src, msg):
        self.received.append((self.net.now(), src, msg))
        if isinstance(msg, Gossip) and src != self.net.node_id:
            self.net.send(src, Ack(msg.round))

    def on_timer(self, tag, data=None):
        self.net.broadcast(Gossip(self.net.node_id, data))
        self.net.set_timer(0.05, "tick", data + 1)


def build():
    journal = EventJournal()
    obs = Observability(MetricsRegistry(), journal, Tracer(journal))
    sim = Simulation(
        [Chatter for _ in range(N)],
        latency_model=WanLatency(),
        bandwidth_bps=20_000_000,
        # 4 ms per message against 5 arrivals per 50 ms tick plus acks:
        # receivers run a standing CPU backlog.
        cpu=CpuCost(fixed_s=4e-3, per_byte_s=0.0),
        seed=7,
        obs=obs,
    )
    sim.crash(4, at=0.7)
    return sim


def single_step(sim, until):
    """What ``run(until=...)`` does, through the shim."""
    sim.start()
    queue = sim._queue
    while (ev := queue.pop(until)) is not None:
        when, _, kind, a, b, c = ev
        sim.now = when
        sim._dispatch(kind, (a, b, c))
        sim.stats.events_processed += 1
    if queue:  # stopped at the horizon, not because the world went quiet
        sim.now = until
    sim.stats.final_time = sim.now
    sim._obs_flush()


def observed(sim):
    stats = sim.stats
    return {
        "received": [node.received for node in sim.nodes],
        "stats": (
            stats.events_processed, stats.messages_sent,
            stats.messages_delivered, stats.messages_dropped,
            stats.bytes_sent, stats.final_time, list(stats.per_node_bytes),
        ),
        "rng": sim.rng.getstate(),
        "queue": sorted(sim._queue),
        "crashed": sim.crashed,
        "cpu_free": list(sim._cpu_free),
        "metrics": sim.obs.metrics.snapshot(),
        "journal": list(sim.obs.journal),
    }


def test_single_stepping_through_dispatch_equals_run():
    ran = build()
    ran.run(until=HORIZON)
    stepped = build()
    single_step(stepped, HORIZON)
    want, got = observed(ran), observed(stepped)
    assert got == want

    # ...and the scenario really reached the branches it exists for.
    journal = want["journal"]
    assert any(ev.type == "trace.cpu_wait" for ev in journal)
    cpu_wait = ran.obs.metrics.histogram("net.cpu_queue_wait_seconds")
    assert cpu_wait.summary()["count"] > 0
    assert want["crashed"] == frozenset({4})
    heard = [when for when, _, _ in ran.nodes[4].received]
    assert heard and max(heard) < 0.7  # alive first, then deaf
