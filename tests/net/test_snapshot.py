"""SimulatorSnapshot: copy-on-branch state capture must be bit-exact.

The explorer's soundness rests on one property: after snapshot → run a
divergent branch → restore, continuing the run is *bit-identical* to an
execution that never branched.  Any state the snapshot misses (RNG
position, sequence counters, memo caches, dict iteration order leaking
into delivery order) shows up here as a probe mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.explorer import (
    ExploreConfig,
    _candidates,
    _execute,
    build_world,
    state_fingerprint,
)
from repro.errors import SimulationError
from repro.net.eventqueue import BUCKETS_PER_SECOND
from repro.net.interfaces import Message, Node
from repro.net.latency import UniformLatency
from repro.net.simulator import Simulation


@dataclass(frozen=True)
class Tick(Message):
    seq: int

    def wire_size(self) -> int:
        return 64


class Chatter(Node):
    """Broadcasts on a repeating timer; logs every arrival with its time.

    Keeps the event queue and the latency RNG busy forever, so any state
    the snapshot failed to capture diverges the continuation quickly.
    """

    def __init__(self, net):
        super().__init__(net)
        self.sent = 0
        self.received = []

    def on_start(self):
        self.net.set_timer(0.01 * (self.net.node_id + 1), "tick")

    def on_message(self, src, msg):
        self.received.append((self.net.now(), src, msg.seq))

    def on_timer(self, tag, data=None):
        self.net.broadcast(Tick(seq=self.sent), include_self=False)
        self.sent += 1
        self.net.set_timer(0.05, "tick")


def make_timed_sim(seed=7, n=4):
    factories = [Chatter for _ in range(n)]
    return Simulation(
        factories, latency_model=UniformLatency(0.01, 0.09), seed=seed
    )


def timed_probe(sim):
    return (
        sim.now,
        sim._seq,
        sim.rng.getstate(),
        [node.sent for node in sim.nodes],
        [node.received for node in sim.nodes],
        sorted(repr(ev) for ev in sim._queue),
    )


class TestTimedSnapshot:
    def test_restore_rewinds_rng_and_queue_exactly(self):
        control = make_timed_sim()
        control.start()
        control.run(until=0.6)

        sim = make_timed_sim()
        sim.start()
        sim.run(until=0.2)
        snap = sim.snapshot()
        sim.run(until=0.45)  # divergent branch: consumes RNG, mutates all
        branched = timed_probe(sim)
        snap.restore()
        sim.run(until=0.6)

        assert timed_probe(sim) == timed_probe(control)
        assert branched != timed_probe(sim)

    def test_snapshot_taken_inside_a_queue_bucket(self):
        """The event queue is captured mid-drain: part of the clock's own
        bucket already popped, the rest (and every later bucket) pending."""
        control = make_timed_sim(n=16)
        control.run(until=0.3)

        sim = make_timed_sim(n=16)
        sim.run(stop_when=lambda s: s.stats.events_processed >= 700)
        bucket = int(sim.now * BUCKETS_PER_SECOND)
        assert int(sim._queue.peek()[0] * BUCKETS_PER_SECOND) == bucket
        snap = sim.snapshot()
        sim.run(until=0.25)
        snap.restore()
        assert sim.stats.events_processed == 700
        sim.run(until=0.3)

        assert timed_probe(sim) == timed_probe(control)

    def test_unpicklable_state_is_an_error_naming_its_type(self):
        sim = make_timed_sim()
        sim.run(until=0.1)
        sim.nodes[0].pending = (i for i in range(3))
        with pytest.raises(SimulationError, match="generator"):
            sim.snapshot()

    def test_restore_is_repeatable(self):
        sim = make_timed_sim()
        sim.start()
        sim.run(until=0.2)
        snap = sim.snapshot()
        probes = []
        for _ in range(3):
            snap.restore()
            sim.run(until=0.4)
            probes.append(timed_probe(sim))
        assert probes[0] == probes[1] == probes[2]


# --------------------------------------------------- protocol-world property

CFG = ExploreConfig(protocol="lightdag1", n=4, max_rounds=2, max_inflight=0)


def walk(world, picks):
    """Apply picks (mod the candidate count) and return the choices taken."""
    taken = []
    for pick in picks:
        actions = _candidates(world.sim, CFG)
        if not actions:
            break
        choice = pick % len(actions)
        taken.append(choice)
        _execute(world.sim, actions[choice][1])
    return taken


def replay(world, choices):
    for choice in choices:
        actions = _candidates(world.sim, CFG)
        assert choice < len(actions), "replay ran off the candidate list"
        _execute(world.sim, actions[choice][1])


def protocol_probe(world):
    sim = world.sim
    monitor = world.cluster.monitor
    return (
        state_fingerprint(sim),
        sim._seq,
        [node.next_round for node in sim.nodes],
        [node.ledger.digest_sequence() for node in sim.nodes],
        sorted(repr(ev) for ev in sim._queue),
        monitor.commits_checked,
        monitor.deliveries_checked,
        sorted(monitor._next_position.items()),
        sorted(monitor._positions.items()),
    )


picks = st.lists(st.integers(min_value=0, max_value=11), max_size=10)


class TestProtocolSnapshotProperty:
    @settings(max_examples=20, deadline=None)
    @given(prefix=picks, branch=picks, suffix=picks)
    def test_branch_restore_replay_matches_straight_line(
        self, prefix, branch, suffix
    ):
        world = build_world(CFG, None)
        taken_prefix = walk(world, prefix)
        snap = world.snapshot()
        walk(world, branch)
        snap.restore()
        taken_suffix = walk(world, suffix)

        straight = build_world(CFG, None)
        replay(straight, taken_prefix + taken_suffix)

        assert protocol_probe(world) == protocol_probe(straight)
