"""The simulator's one fan-out pass must be one behaviour for every model.

``Simulation._fan_out`` inlines a factored latency model's base-delay row
and calls ``latency.delay()`` per copy for any other model, with or
without an adversary, for a broadcast and for a unicast alike.  The choice
is the code's, not the caller's, so the reference here is test-local:
:class:`PerCopy` hides the model's factored structure and thereby forces
the per-copy call.

The contract is **bit-identity**: same deliveries, same times, same RNG
trajectory, same stats.  These tests drive a 40-replica broadcast storm
(and a unicast storm answering it) both ways and diff everything.
"""

from dataclasses import dataclass

import pytest

from repro.adversary.schedule import FaultSchedule
from repro.errors import SimulationError
from repro.net.interfaces import Message, Node
from repro.net.latency import (
    LatencyModel,
    TopologyLatency,
    UniformLatency,
    WanLatency,
)
from repro.net.eventqueue import BUCKETS_PER_SECOND
from repro.net.simulator import Simulation

N_STORM = 40
ROUNDS = 4


@dataclass(frozen=True)
class Gossip(Message):
    origin: int
    round: int
    size: int = 700

    def wire_size(self) -> int:
        return self.size


class Storm(Node):
    """Broadcasts one message per round for ROUNDS rounds, records all."""

    def __init__(self, net):
        super().__init__(net)
        self.received = []

    def on_start(self):
        self.net.broadcast(Gossip(origin=self.net.node_id, round=0))
        self.net.set_timer(0.25, "next", 1)

    def on_message(self, src, msg):
        self.received.append((self.net.now(), src, msg.origin, msg.round))

    def on_timer(self, tag, data=None):
        if data < ROUNDS:
            self.net.broadcast(Gossip(origin=self.net.node_id, round=data))
            self.net.set_timer(0.25, "next", data + 1)


@dataclass(frozen=True)
class Ack(Message):
    origin: int
    round: int

    def wire_size(self) -> int:
        return 90


class Answering(Storm):
    """A storm whose every gossip is answered by unicast to its origin
    (a replica's own gossip included: a local delivery)."""

    def __init__(self, net):
        super().__init__(net)
        self.acks = []

    def on_message(self, src, msg):
        if msg.__class__ is Ack:
            self.acks.append((self.net.now(), src, msg.round))
            return
        super().on_message(src, msg)
        self.net.send(msg.origin, Ack(origin=self.net.node_id, round=msg.round))


class PerCopy(LatencyModel):
    """The oracle: same delays as ``inner``, but not a FactoredLatency."""

    def __init__(self, inner):
        self.inner = inner

    def delay(self, src, dst, rng):
        return self.inner.delay(src, dst, rng)


def run_storm(
    latency, bandwidth=None, n=N_STORM, stops=(3.0,), crash_at=None,
    adversary=None, node=Storm,
):
    sim = Simulation(
        [node for _ in range(n)],
        latency_model=latency,
        bandwidth_bps=bandwidth,
        adversary=adversary,
        seed=11,
    )
    if crash_at is not None:
        sim.crash(3, at=crash_at)
    for until in stops:
        if callable(until):
            sim.run(stop_when=until)
        else:
            sim.run(until=until)
    return sim


def trace(sim):
    """Everything that must not depend on the loop taken, in one blob."""
    return {
        "received": [node.received for node in sim.nodes],
        "acks": [getattr(node, "acks", None) for node in sim.nodes],
        "rng": sim.rng.getstate(),
        "now": sim.now,
        "events": sim.stats.events_processed,
        "sent": sim.stats.messages_sent,
        "delivered": sim.stats.messages_delivered,
        "bytes": sim.stats.bytes_sent,
        "per_node_bytes": list(sim.stats.per_node_bytes),
        "crashed": sim.crashed,
        "pending": sim.pending_events,
        "queue": sorted(sim._queue),
    }


def topology():
    return TopologyLatency(clusters=8, jitter_frac=0.1)


class TestFlatRowMatchesPerCopy:
    @pytest.mark.parametrize(
        "make_latency, kwargs",
        [
            (WanLatency, {}),
            (topology, {}),
            (WanLatency, {"bandwidth": 50_000_000}),
            (WanLatency, {"n": 8}),  # the n<=16 regime most tests run in
        ],
        ids=["wan", "topology", "bandwidth", "n8"],
    )
    def test_bit_identical(self, make_latency, kwargs):
        flat = run_storm(make_latency(), **kwargs)
        per_copy = run_storm(PerCopy(make_latency()), **kwargs)
        assert flat._flat_rows and per_copy._flat_rows is None
        assert trace(flat) == trace(per_copy)
        # Sanity: every broadcast reached the full mesh (self included).
        n = kwargs.get("n", N_STORM)
        assert flat.stats.messages_delivered == n * ROUNDS * n

    def test_split_run_resumes_exactly(self):
        """run(until=...) stops with wire copies in flight (WAN links take
        0.045s+); a second run() picks them up where the first stopped."""
        split = run_storm(WanLatency(), stops=(0.04, 3.0))
        assert trace(split) == trace(run_storm(WanLatency()))

    def test_lossy_model_forces_per_copy_sampling(self):
        """Loss is a ``loss`` phase of the fault schedule, decided per copy
        by its adversary; propagation still comes from the base-delay
        row — and drops actually happen."""
        schedule = FaultSchedule.from_spec("loss@0+inf:p=0.3,clusters=4")
        sim = run_storm(topology(), adversary=schedule.adversary(seed=11))
        assert sim._flat_rows
        assert sim.stats.messages_dropped == sim.adversary.dropped > 0
        # Conservation: every wire copy is delivered or dropped; the
        # N * ROUNDS self-deliveries are never wire copies.
        assert (
            sim.stats.messages_delivered + sim.stats.messages_dropped
            == sim.stats.messages_sent + N_STORM * ROUNDS
        )


#: Adversary schedules the row must serve exactly as ``latency.delay`` does.
SCHEDULES = {
    "loss": "loss@0+inf:p=0.3,clusters=4",
    "delay-tail": "delay@0+inf:max=0.2,tailp=0.1,taild=1.5",
    "partition-loss": "partition@0.3+0.4:group=0|1|2|3|4;loss@0+inf:p=0.1",
}


def scheduled(name):
    return FaultSchedule.from_spec(SCHEDULES[name]).adversary(seed=11)


class TestRowUnderAnAdversary:
    """An adversary's verdict comes before the NIC and the propagation
    draw; the row path keeps both RNG trajectories of the per-copy path."""

    @pytest.mark.parametrize("bandwidth", [None, 50_000_000], ids=["nobw", "bw"])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_bit_identical(self, schedule, bandwidth):
        row = run_storm(topology(), bandwidth, adversary=scheduled(schedule))
        per_copy = run_storm(
            PerCopy(topology()), bandwidth, adversary=scheduled(schedule)
        )
        assert row._flat_rows and per_copy._flat_rows is None
        assert trace(row) == trace(per_copy)
        assert row.adversary.rng.getstate() == per_copy.adversary.rng.getstate()
        if schedule != "delay-tail":
            assert row.stats.messages_dropped > 0


class TestUnicastStorm:
    """``send`` takes the same pass over ``(dst,)``: every gossip is
    answered to its origin, and replica 3 crashes mid-storm."""

    @pytest.mark.parametrize("schedule", [None, "partition-loss"])
    def test_bit_identical(self, schedule):
        def run(latency):
            return run_storm(
                latency, 50_000_000, crash_at=0.3007, node=Answering,
                adversary=schedule and scheduled(schedule),
            )

        row, per_copy = run(topology()), run(PerCopy(topology()))
        assert row._flat_rows and per_copy._flat_rows is None
        assert trace(row) == trace(per_copy)
        acks = row.nodes[0].acks
        assert {src for _, src, _ in acks} > {0, 3}  # own gossip answered too
        # Replica 3 answers until it crashes, then hears nothing.
        assert max(when for when, src, _ in acks if src == 3) <= 0.3007 + 0.2
        assert max(when for when, *_ in row.nodes[3].received) <= 0.3007
        assert not row.nodes[3].acks or max(
            when for when, *_ in row.nodes[3].acks
        ) <= 0.3007
        if schedule:
            assert row.stats.messages_dropped == row.adversary.dropped > 0


def stopped_mid_bucket(sim):
    """The next event is in the same queue bucket as the clock."""
    head = sim._queue.peek()
    return int(head[0] * BUCKETS_PER_SECOND) == int(sim.now * BUCKETS_PER_SECOND)


class TestStopsInsideABucket:
    """Stopping and resuming must not depend on where the event queue's
    bucket boundaries fall: every way of reaching MID leaves the same
    world, in-flight copies included."""

    #: Round-2 copies are in flight (sent at 0.5, 0.045 s+ on the wire).
    MID = 0.5607

    def whole(self, **kwargs):
        sim = run_storm(WanLatency(), stops=(self.MID,), **kwargs)
        assert sim.pending_events > 500 and stopped_mid_bucket(sim)
        return sim

    def test_until_inside_a_bucket(self):
        first = run_storm(WanLatency(), stops=(0.3307,))
        assert stopped_mid_bucket(first)
        split = run_storm(WanLatency(), stops=(0.0507, 0.3307, self.MID))
        assert trace(split) == trace(self.whole())

    def test_stop_when_inside_a_bucket(self):
        def after_777(sim):
            return sim.stats.events_processed >= 777

        first = run_storm(WanLatency(), stops=(after_777,))
        assert first.stats.events_processed == 777 and stopped_mid_bucket(first)
        split = run_storm(WanLatency(), stops=(after_777, self.MID))
        assert trace(split) == trace(self.whole())

    def test_scheduled_crash(self):
        whole = self.whole(crash_at=0.3007)
        split = run_storm(
            WanLatency(), stops=(0.3007, 0.31, self.MID), crash_at=0.3007
        )
        assert trace(split) == trace(whole)
        assert whole.crashed == frozenset({3})
        heard = [when for when, *_ in whole.nodes[3].received]
        assert heard and max(heard) <= 0.3007  # alive first, then deaf


class TestPerNodeBandwidth:
    """Every replica's egress NIC runs at the one configured rate."""

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(SimulationError, match="positive"):
            Simulation(
                [Storm, Storm],
                latency_model=UniformLatency(),
                bandwidth_bps=0.0,
            )
