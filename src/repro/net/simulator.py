"""Deterministic discrete-event network simulator.

The simulator executes a set of :class:`~repro.net.interfaces.Node` state
machines over a modeled network and is the engine behind every benchmark
figure.  Design points:

* **Determinism** — one seeded ``random.Random`` drives all latency draws;
  the event queue breaks time ties by a monotone sequence number; node
  handlers run to completion.  Same seed → bit-identical run.
* **Bandwidth model** — each replica has a shared egress NIC of
  ``bandwidth_bps``; messages serialize through it FIFO
  (``egress_free[src]`` tracks when the NIC drains) and then propagate
  according to the latency model.  This is what produces the saturation
  plateaus of Fig. 12/14 and the throughput convergence of Fig. 13a.
* **Adversary hooks** — an :class:`~repro.adversary.base.Adversary` may
  delay or drop any message and crash replicas; nothing else drops one
  (link loss is the fault schedule's ``loss`` phase).  Byzantine *behaviour*
  (equivocation and the like) is expressed as alternative Node
  implementations, matching the paper's threat model where the adversary
  controls up to ``f`` replicas and the message schedule.

There is one engine: one time-bucketed queue of event records
(:mod:`repro.net.eventqueue`; it pops in a single heap's order) with three
kinds (deliver, timer, CPU-queued process) and no mode to select.  The hot
loop is kept allocation-light on purpose (the profiling-first guide: the
event loop dominates; everything else is protocol logic):

* **Flat event records** — one 6-tuple ``(when, seq, kind, a, b, c)`` per
  event instead of a nested payload tuple; ``seq`` is a plain int bumped
  inline (no ``itertools.count`` indirection), and comparisons never get
  past ``(when, seq)`` because ``seq`` is unique.
* **One fan-out pass** — :meth:`Simulation._fan_out` pushes a message's
  copies to an ascending destination sequence in one pass (``range(n)``
  for a broadcast, ``(dst,)`` for a unicast): crash check, the
  adversary's per-copy verdict, FIFO NIC serialization, then propagation
  from a per-source base-delay row when the latency model is factored
  (``latency.delay`` per copy otherwise), with stats and egress-wait
  staging hoisted out of the loop.
* **Hoisted run loop** — :meth:`Simulation.run` binds the queue, node
  table, crash set, and the CPU/obs mode flags to locals once, and
  accumulates ``events_processed``/``messages_delivered`` in local ints
  that are flushed to :class:`SimulationStats` at observation points
  (``stop_when`` probes, budget exhaustion, loop exit) rather than per
  event.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..errors import SimulationError
from ..obs import NULL_OBS, Observability
from .eventqueue import BUCKETS_PER_SECOND, EventQueue
from .interfaces import Message, NetworkAPI, Node, NodeFactory
from .latency import FactoredLatency, FixedLatency, LatencyModel
from .snapshot import SimulatorSnapshot

if TYPE_CHECKING:
    from ..adversary.base import Adversary

_DELIVER = 0
_TIMER = 1
_PROCESS = 2


@dataclass(frozen=True)
class CpuCost:
    """Per-node message-processing cost model.

    Real deployments saturate replica CPUs on per-message work (signature
    verification, deserialization, hashing) long before links fill — this
    is what makes throughput *decline* as the replica set grows (Fig. 13a):
    every node processes Θ(n²) echo-class messages per round.  Messages
    arriving at a node serialize through a single CPU queue with cost
    ``fixed_s + per_byte_s × size``.

    Defaults approximate a prototype-grade stack: ~250 µs per message
    (ed25519-class verify, deserialization, handling, GC pressure) and
    20 ns/byte (~50 MB/s effective decode+hash+copy).
    """

    fixed_s: float = 250e-6
    per_byte_s: float = 20e-9

    def cost(self, size: int) -> float:
        return self.fixed_s + size * self.per_byte_s


class SimulationStats:
    """Counters accumulated over a run.

    A slotted plain class, not a dataclass: the send path bumps three of
    these counters per send or fan-out, and slotted attribute stores are
    the cheapest instance mutation CPython offers.  ``per_node_bytes`` is a
    list indexed by sender id, sized to the replica set at construction.
    """

    __slots__ = (
        "events_processed", "messages_sent", "messages_delivered",
        "messages_dropped", "bytes_sent", "final_time", "per_node_bytes",
    )

    def __init__(self, replicas: int) -> None:
        self.events_processed = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.final_time = 0.0
        self.per_node_bytes = [0] * replicas

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationStats(events_processed={self.events_processed}, "
            f"messages_sent={self.messages_sent}, "
            f"messages_delivered={self.messages_delivered}, "
            f"messages_dropped={self.messages_dropped}, "
            f"bytes_sent={self.bytes_sent}, final_time={self.final_time})"
        )


class _SimNetworkAPI(NetworkAPI):
    """Per-node facade over the simulator."""

    __slots__ = ("_sim", "_node_id")

    def __init__(self, sim: "Simulation", node_id: int) -> None:
        self._sim = sim
        self._node_id = node_id

    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def n(self) -> int:
        return len(self._sim.nodes)

    def now(self) -> float:
        return self._sim.now

    def send(self, dst: int, msg: Message) -> None:
        """One wire copy: stage its per-type obs counts (one op), then
        :meth:`Simulation._fan_out` over ``(dst,)``."""
        sim = self._sim
        src = self._node_id
        size = 0
        if dst != src and src not in sim._crashed:
            size = msg.wire_size()
            if sim._obs_on:
                counts = sim._obs_msg_counts.get(msg.__class__)
                if counts is None:
                    counts = sim._obs_counts(msg.__class__)
                counts[0] += 1
                counts[1] += size
        sim._fan_out(src, (dst,), msg, size)

    def broadcast(self, msg: Message, include_self: bool = True) -> None:
        """Fan-out with one obs staging op and one wire_size for the batch.

        Self-delivery is never a wire copy, hence ``n - 1`` staged copies
        regardless of ``include_self`` — matching ``SimulationStats``,
        which only records non-self sends.  The copies go through
        :meth:`Simulation._fan_out` over ``range(n)``.
        """
        sim = self._sim
        src = self._node_id
        n = len(sim.nodes)
        size = msg.wire_size()
        if sim._obs_on and n > 1 and src not in sim._crashed:
            counts = sim._obs_msg_counts.get(msg.__class__)
            if counts is None:
                counts = sim._obs_counts(msg.__class__)
            counts[0] += n - 1
            counts[1] += (n - 1) * size
        sim._fan_out(src, range(n), msg, size, include_self)

    def set_timer(self, delay: float, tag: str, data: Any = None) -> None:
        self._sim._enqueue_timer(self._node_id, delay, tag, data)


class Simulation:
    """Builds and runs a replica set over the modeled network.

    Parameters
    ----------
    factories:
        One node factory per replica; ``factories[i]`` receives the
        :class:`NetworkAPI` for replica ``i``.  Byzantine replicas are
        simply factories producing malicious Node subclasses.
    latency_model:
        Propagation model (defaults to 50 ms fixed).
    bandwidth_bps:
        Shared egress NIC capacity per replica; ``None`` disables the
        serialization model entirely (pure propagation — used by the
        step-count experiments).
    adversary:
        Optional message-schedule adversary (see :mod:`repro.adversary`).
    seed:
        Seed for all latency jitter and adversary randomness.
    obs:
        Optional :class:`~repro.obs.Observability`.  When given, the
        simulator records per-message-type send/deliver/drop counts and
        bytes, egress-NIC and CPU-queue wait histograms, and attributes
        adversary interference (delay/drop) in both the registry and the
        journal.  Defaults to the shared no-op instance, which costs the
        hot loop a single branch.
    """

    def __init__(
        self,
        factories: Sequence[NodeFactory],
        latency_model: LatencyModel | None = None,
        bandwidth_bps: float | None = None,
        adversary: Optional["Adversary"] = None,
        cpu: CpuCost | None = None,
        seed: int = 0,
        obs: Observability | None = None,
    ) -> None:
        self.latency = latency_model or FixedLatency()
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise SimulationError("bandwidth must be positive")
        self._bw = None if bandwidth_bps is None else float(bandwidth_bps)
        self.adversary = adversary
        self.cpu = cpu
        self.rng = random.Random(f"sim:{seed}")
        self.now = 0.0
        flat_ok = isinstance(self.latency, FactoredLatency)
        #: src -> per-destination base-delay row (lazily built) for
        #: ``_fan_out``'s inlined propagation; None when the model is not
        #: factored.  A pure function of the pinned latency model, so
        #: snapshot/restore may capture it freely.
        self._flat_rows: Optional[dict] = {} if flat_ok else None
        self._flat_jitter = float(self.latency.jitter_frac) if flat_ok else 0.0
        self.stats = SimulationStats(len(factories))
        self.obs = obs if obs is not None else NULL_OBS
        self._obs_on = self.obs.enabled
        #: message-type name -> (sent, bytes, delivered, dropped) counters;
        #: resolved once per type so the hot loop never re-hashes labels.
        self._obs_msg: dict = {}
        #: hot-loop staging as plain ints, keyed by message *class*
        #: (pointer hash beats string hash): [sent, bytes, suppressed,
        #: dropped].  Delivered is *derived* at flush by conservation —
        #: see ``_obs_flush`` — so the per-delivery path stays clean.
        self._obs_msg_counts: dict = {}
        #: per-class queue backlog at the previous flush (the conservation
        #: checkpoint, so repeated ``run()`` calls stay exact).
        self._obs_inflight_prev: dict = {}
        #: raw queue-wait samples, bulk-folded into the histograms at flush
        #: (list.append is ~4x cheaper than a per-event observe); the
        #: common NIC-idle case (wait 0) stays a plain int, and a fan-out's
        #: egress waits are one (first, step, count) arithmetic progression.
        self._obs_egress_waits: list = []
        self._obs_egress_runs: list = []
        self._obs_egress_zero = 0
        self._obs_cpu_waits: list = []
        metrics = self.obs.metrics
        self._h_egress_wait = metrics.histogram("net.egress_wait_seconds")
        self._h_cpu_wait = metrics.histogram("net.cpu_queue_wait_seconds")
        self._h_adv_delay = metrics.histogram("net.adversary_delay_seconds")
        #: flat event records ``(when, seq, kind, a, b, c)``; deliveries
        #: carry (src, dst, msg), timers (node_id, tag, data).  ``seq`` is
        #: unique, so comparisons never reach the payload slots.
        self._queue = EventQueue()
        self._seq = 0
        self._egress_free = [0.0] * len(factories)
        self._cpu_free = [0.0] * len(factories)
        self._crashed: set[int] = set()
        self.nodes: list[Node] = []
        for i, factory in enumerate(factories):
            self.nodes.append(factory(_SimNetworkAPI(self, i)))
        if self.adversary is not None:
            self.adversary.attach(self)
        self._started = False

    # -- event scheduling ----------------------------------------------------

    def _obs_msg_counters(self, tname: str) -> tuple:
        """(sent, bytes, delivered, dropped) counters for one message type."""
        counters = self._obs_msg.get(tname)
        if counters is None:
            metrics = self.obs.metrics
            counters = self._obs_msg[tname] = (
                metrics.counter("net.messages_sent", type=tname),
                metrics.counter("net.bytes_sent", type=tname),
                metrics.counter("net.messages_delivered", type=tname),
                metrics.counter("net.messages_dropped", type=tname),
            )
        return counters

    def _obs_counts(self, msg_cls: type) -> list:
        """The staged [sent, bytes, suppressed, dropped] ints for one type."""
        counts = self._obs_msg_counts.get(msg_cls)
        if counts is None:
            counts = self._obs_msg_counts[msg_cls] = [0, 0, 0, 0]
        return counts

    def _obs_flush(self) -> None:
        """Fold staged per-type counts and wait samples into the registry
        (idempotent — staging is zeroed / checkpointed as it drains).

        Delivered counts are *derived*, not staged: every non-self wire
        copy was either dropped by the adversary, suppressed at a crashed
        receiver, is still sitting in the event queue, or reached a node.
        Counting the first three (all cold paths) plus one queue scan per
        flush keeps the per-delivery hot path free of bookkeeping.  When
        nothing was ever staged (obs enabled but no wire traffic yet) the
        queue scan and the fold are skipped entirely.
        """
        if self._obs_msg_counts or self._obs_inflight_prev:
            inflight: dict = {}
            for ev in self._queue:
                if ev[2] != _TIMER and ev[3] != ev[4]:
                    # a delivery/process record (src, dst, msg)
                    cls = ev[5].__class__
                    inflight[cls] = inflight.get(cls, 0) + 1
            for msg_cls in {
                *self._obs_msg_counts, *inflight, *self._obs_inflight_prev
            }:
                counts = self._obs_counts(msg_cls)
                backlog = inflight.get(msg_cls, 0)
                delivered = (
                    counts[0] - counts[2] - counts[3]
                    - backlog + self._obs_inflight_prev.get(msg_cls, 0)
                )
                sent_c, bytes_c, delivered_c, dropped_c = self._obs_msg_counters(
                    msg_cls.__name__
                )
                if counts[0]:
                    sent_c.inc(counts[0])
                if counts[1]:
                    bytes_c.inc(counts[1])
                if delivered:
                    delivered_c.inc(delivered)
                if counts[3]:
                    dropped_c.inc(counts[3])
                counts[0] = counts[1] = counts[2] = counts[3] = 0
                self._obs_inflight_prev[msg_cls] = backlog
        if self._obs_egress_runs:
            # Each wait is rebuilt in closed form (first + step*k), which
            # can differ from the NIC's iterative sum in the last ulp —
            # telemetry only, never fed back into the schedule.  One flat
            # comprehension: a run is a few copies at small n, so a list
            # per run would cost more than its waits.
            self._obs_egress_waits.extend([
                first + step * k
                for first, step, count in self._obs_egress_runs
                for k in range(count)
            ])
            self._obs_egress_runs.clear()
        self._h_egress_wait.observe_bulk(self._obs_egress_waits)
        self._obs_egress_waits.clear()
        if self._obs_egress_zero:
            self._h_egress_wait.observe_zeros(self._obs_egress_zero)
            self._obs_egress_zero = 0
        self._h_cpu_wait.observe_bulk(self._obs_cpu_waits)
        self._obs_cpu_waits.clear()

    def _push(self, when: float, kind: int, a: Any, b: Any, c: Any) -> None:
        """Queue one event under the next sequence number."""
        seq = self._seq
        self._seq = seq + 1
        self._queue.push((when, seq, kind, a, b, c))

    def _fan_out(
        self, src: int, dsts: Sequence[int], msg: Message, size: int,
        include_self: bool = True,
    ) -> None:
        """Push one message's copies to ``dsts`` (ascending) in one pass:
        ``range(n)`` for a broadcast, ``(dst,)`` for a unicast.

        Per copy, in this order: the adversary's verdict (drop, or an extra
        delay), FIFO serialization through ``src``'s egress NIC, then
        propagation.  A :class:`~repro.net.latency.FactoredLatency` model
        is inlined against a per-source base-delay row — one uniform draw
        and three float ops per copy, bit-identical to ``latency.delay``
        draw for draw, because CPython's ``Random.uniform(a, b)`` is
        ``a + (b - a) * random()``, the exact expression below
        (``tests/net/test_engine.py`` diffs the two); any other model is
        asked per copy.  A self-copy is a local delivery at ``now``: no
        wire copy, no NIC, no adversary.
        """
        if src in self._crashed:
            return
        queue = self._queue
        push = queue.push
        # The queue module's inlined case: append to a later bucket that exists.
        later_get = queue.later.get
        appended = 0
        seq = self._seq
        now = self.now
        adversary = self.adversary
        bw = self._bw
        rng = self.rng
        obs_on = self._obs_on
        rows = self._flat_rows
        if rows is not None:
            row = rows.get(src)
            if row is None:
                row = rows[src] = self.latency.base_row(src, len(self.nodes))
            jfrac = self._flat_jitter
            neg = -jfrac
            width = jfrac - neg
            random = rng.random
        else:
            row = None
            latency_delay = self.latency.delay
        if bw is not None:
            ser = size * 8.0 / bw
            free = self._egress_free[src]
        else:
            ser = 0.0
            free = now
        free0 = free
        extra = 0.0
        dropped = 0
        for dst in dsts:
            if dst == src:
                if include_self:
                    push((now, seq, _DELIVER, src, dst, msg))
                    seq += 1
                continue
            if adversary is not None:
                extra = adversary.on_send(src, dst, msg, now)
                if extra is None:
                    self._adversary_dropped(src, dst, msg)
                    dropped += 1
                    continue
                if extra > 0.0 and obs_on:
                    self._adversary_delayed(src, dst, msg, extra)
            if bw is not None:
                start = free if free > now else now
                finish = free = start + ser
            else:
                finish = now
            # ``+ extra`` comes last, as in ``finish + latency.delay() +
            # extra``; without an adversary it adds 0.0, which moves no bit.
            if row is None:
                arrival = finish + latency_delay(src, dst, rng) + extra
            else:
                base = row[dst]
                if base != 0.0 and jfrac != 0.0:
                    arrival = finish + base * (1.0 + (neg + width * random())) + extra
                else:
                    arrival = finish + base + extra
            bucket = later_get(int(arrival * BUCKETS_PER_SECOND))
            if bucket is not None:
                bucket.append((arrival, seq, _DELIVER, src, dst, msg))
                appended += 1
            else:
                push((arrival, seq, _DELIVER, src, dst, msg))
            seq += 1
        self._seq = seq
        queue.later_count += appended
        copies = len(dsts) - (src in dsts)
        if not copies:
            return
        stats = self.stats
        stats.messages_sent += copies
        stats.bytes_sent += copies * size
        stats.per_node_bytes[src] += copies * size
        if bw is None:
            return
        self._egress_free[src] = free
        wired = copies - dropped
        if obs_on and wired:
            # Egress waits staged as one arithmetic progression per call
            # (a lone wait as a plain float): the NIC drains FIFO, so the
            # k-th copy on the wire starts at max(free0, now) + k*ser.  One
            # op here, expanded at flush (``_obs_flush``) — the per-copy
            # staging branch stays off the hot loop, which the <5 %
            # engine-loop budget in bench_micro_obs needs at small n.
            wait0 = free0 - now
            if wait0 > 0.0:
                if wired == 1:
                    self._obs_egress_waits.append(wait0)
                else:
                    self._obs_egress_runs.append((wait0, ser, wired))
            elif ser > 0.0:
                self._obs_egress_zero += 1
                if wired > 1:
                    self._obs_egress_runs.append((ser, ser, wired - 1))
            else:
                self._obs_egress_zero += wired

    def _adversary_dropped(self, src: int, dst: int, msg: Message) -> None:
        """Count (and, with obs on, attribute) one copy the adversary drops."""
        self.stats.messages_dropped += 1
        if self._obs_on:
            self._obs_counts(msg.__class__)[3] += 1
            self.obs.journal.emit(
                self.now, "adversary.drop", src, dst=dst, msg=type(msg).__name__
            )

    def _adversary_delayed(self, src: int, dst: int, msg: Message, delay: float) -> None:
        """Attribute one copy's extra adversary delay (obs on only)."""
        self._h_adv_delay.observe(delay)
        self.obs.journal.emit(
            self.now, "adversary.delay", src,
            dst=dst, msg=type(msg).__name__, delay_s=delay,
        )

    def _enqueue_timer(self, node_id: int, delay: float, tag: str, data: Any) -> None:
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        self._push(self.now + delay, _TIMER, node_id, tag, data)

    def call_at(self, at: float, fn: Callable[["Simulation"], None]) -> None:
        """Schedule ``fn(self)`` at absolute simulated time ``at``.

        The hook external drivers (client populations, workload injectors)
        use to act at exact simulated instants without owning a replica:
        the callback runs inside the event loop, interleaved deterministically
        with deliveries and timers, and may submit work, read state, or
        schedule further callbacks.  Callbacks survive crashes (they belong
        to the harness, not to any node).
        """
        if at < self.now:
            raise SimulationError(
                f"callback scheduled in the past ({at} < now={self.now})"
            )
        self._push(at, _TIMER, -1, "__call__", fn)

    # -- fault injection -----------------------------------------------------

    def crash(self, node_id: int, at: float | None = None) -> None:
        """Crash a replica now or at a future time.

        A crashed replica stops sending, receiving, and firing timers; its
        state is left intact (crash-stop, not crash-recovery).
        """
        if at is None or at <= self.now:
            self._crashed.add(node_id)
        else:
            self._push(at, _TIMER, node_id, "__crash__", None)

    @property
    def crashed(self) -> frozenset:
        return frozenset(self._crashed)

    # -- run loop --------------------------------------------------------------

    def start(self) -> None:
        """Invoke every node's ``on_start`` (idempotent)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes:
            if node.node_id not in self._crashed:
                node.on_start()

    def run(
        self,
        until: float | None = None,
        max_events: int = 50_000_000,
        stop_when: Callable[["Simulation"], bool] | None = None,
    ) -> SimulationStats:
        """Process events until the queue drains, time passes ``until``,
        the event budget is hit, or ``stop_when(sim)`` returns True.

        ``stop_when`` is evaluated after each event — use it for
        "run until every replica committed k blocks" style experiments,
        or, always true, to run exactly the head event (the explorer's
        single step).
        ``events_processed``/``messages_delivered`` are accumulated in
        loop locals and flushed to :attr:`stats` before every
        ``stop_when`` probe, on budget exhaustion, and at loop exit —
        the counters are exact at every point foreign code can observe
        them.
        """
        self.start()
        queue = self._queue
        pop = queue.pop
        crashed = self._crashed
        stats = self.stats
        cpu = self.cpu
        cpu_cost = cpu.cost if cpu is not None else None
        cpu_free = self._cpu_free
        cpu_waits = self._obs_cpu_waits
        obs_on = self._obs_on
        # Journal emit (None when the journal is off): an enabled journal
        # implies obs_on, so the emit below hides inside the staged-obs
        # branch and the journal-off run loop pays nothing beyond it.
        emit = self.obs.journal.emit if self.obs.journal.enabled else None
        limit = until if until is not None else math.inf
        deliver, process = _DELIVER, _PROCESS
        # Handlers prebound once per run(): one attribute hop per event
        # instead of two.  Crash-stop goes through ``crashed``, never
        # through the node table, so the bindings stay valid all run.
        on_message = [node.on_message for node in self.nodes]
        on_timer = [node.on_timer for node in self.nodes]
        processed = 0
        flushed = 0
        delivered = 0
        while True:
            head = pop(limit)
            if head is None:
                if queue:  # beyond the horizon: the event stays queued
                    self.now = until
                break
            self.now = when = head[0]
            kind = head[2]
            if kind == deliver:
                dst = head[4]
                src = head[3]
                if dst in crashed:
                    if obs_on and src != dst:
                        self._obs_counts(head[5].__class__)[2] += 1
                elif cpu_cost is not None and src != dst:
                    msg = head[5]
                    cost = cpu_cost(msg.wire_size())
                    free = cpu_free[dst]
                    if free <= when:
                        # CPU idle: hand over now; this message's cost
                        # delays whatever arrives next.
                        cpu_free[dst] = when + cost
                        delivered += 1
                        on_message[dst](src, msg)
                    else:
                        # CPU busy: requeue behind the backlog.
                        if obs_on:
                            cpu_waits.append(free - when)
                            if emit is not None:
                                emit(
                                    when, "trace.cpu_wait", dst,
                                    wait=free - when,
                                    msg=msg.__class__.__name__,
                                )
                        ready = free + cost
                        cpu_free[dst] = ready
                        seq = self._seq
                        self._seq = seq + 1
                        queue.push((ready, seq, process, src, dst, msg))
                else:
                    delivered += 1
                    on_message[dst](src, head[5])
            elif kind == process:
                dst = head[4]
                if dst in crashed:
                    if obs_on and head[3] != dst:
                        self._obs_counts(head[5].__class__)[2] += 1
                else:
                    delivered += 1
                    on_message[dst](head[3], head[5])
            else:  # timer
                node_id = head[3]
                tag = head[4]
                if tag == "__crash__":
                    crashed.add(node_id)
                elif node_id < 0:
                    # Harness callback (call_at): no owning replica.
                    head[5](self)
                elif node_id not in crashed:
                    on_timer[node_id](tag, head[5])
            processed += 1
            if processed >= max_events:
                stats.events_processed += processed - flushed
                stats.messages_delivered += delivered
                raise SimulationError(
                    f"event budget {max_events} exhausted at t={self.now:.3f}s "
                    f"({len(queue)} events pending) — runaway protocol?"
                )
            if stop_when is not None:
                stats.events_processed += processed - flushed
                flushed = processed
                stats.messages_delivered += delivered
                delivered = 0
                if stop_when(self):
                    break
        stats.events_processed += processed - flushed
        stats.messages_delivered += delivered
        stats.final_time = self.now
        if obs_on:
            self._obs_flush()
        return stats

    @property
    def pending_events(self) -> int:
        """Undelivered events in the queue."""
        return len(self._queue)

    def snapshot(self, extra_roots: Sequence[object] = ()) -> "SimulatorSnapshot":
        """Capture a restorable snapshot of the whole world (see
        :class:`SimulatorSnapshot`).  ``extra_roots`` adds harness-side
        stateful objects (invariant monitor, metrics collector, mempools)
        whose state must travel with the simulation."""
        return SimulatorSnapshot(self, extra_roots=extra_roots)
