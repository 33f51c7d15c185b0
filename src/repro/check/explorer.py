"""Exhaustive small-model schedule exploration (bounded model checking).

The fuzzer (:mod:`repro.check.fuzzer`) *samples* adversarial delivery
schedules; this module *enumerates* them.  For a small configuration —
n=4 replicas, a handful of rounds — every interleaving of message
deliveries is explored by depth-first search over scheduling decisions,
with the full :class:`repro.check.InvariantMonitor` armed at every step
and :func:`repro.check.deep_audit` run at every leaf.  That is the same
Correctness obligation the paper states over *all* orderings (LightDAG
§V) and the TLA+ ``DAGConsensus`` spec model-checks, but re-using the
repository's Python oracles and protocol code directly, so there is no
spec/implementation gap.

The model
---------
The explorer runs the production simulator in a degenerate regime that
makes scheduling the *only* source of branching:

* ``FixedLatency(0)``, no bandwidth model, no CPU model, no adversary —
  the simulator's RNG is never consumed and simulated time stays at 0.
* A replica's messages to *itself* are delivered immediately (a local
  loopback is not schedulable by a network adversary).
* Every remote delivery, and every zero-delay local timer (the round
  ADVANCE tick), is a *scheduling decision*: the explorer picks one,
  executes it, and recurses over the rest.
* Timers strictly in the future (the stall check at 0.5 s, retrieval
  retry backoff) never fire: the horizon is bounded by rounds, not time.
* Every event — a decision or a loopback — is processed by the production
  run loop: the chosen record is re-queued at the head and
  :meth:`Simulation.run` stops after exactly that one event.  The explorer
  owns no copy of the loop's delivery, CPU-queue or crash logic.

State identity and pruning
--------------------------
Each explored state is fingerprinted canonically (sorted dict/set
encodings; the in-flight queue as a *multiset* of message contents,
ignoring arrival sequence numbers) and revisits are pruned.  Objects
declare environment/telemetry attributes via ``FINGERPRINT_SKIP`` (see
``BaseDagNode``); notably the retrieval jitter RNG is excluded — its
draws only shape retry timers beyond the horizon, so two interleavings
reaching the same protocol state may legitimately differ there.

Partial-order reduction
-----------------------
Two scheduling decisions targeting *different* replicas commute: a
handler mutates only its own replica (plus append-only sends and the
order-insensitive monitor/collector hooks).  Sleep sets exploit this:
after exploring action ``a`` from a state, sibling subtrees need not
re-explore orderings that merely swap ``a`` with an independent action.
Combined with state caching the standard way — a revisit is pruned only
when the recorded sleep set is a subset of the current one; otherwise
the state is re-explored and the record intersected.

Violations and replay
---------------------
Any :class:`~repro.errors.ReproError` raised by the oracles (or the
engine) is recorded with the decision path that reached it.  Paths are
shrunk greedily (single-decision deletion to a fixed point, memoized)
and emitted in the fault-schedule grammar as an ``order`` phase, e.g.
``order@0+0:path=3|1|0`` — replayable bit-identically via
``repro explore --schedule``.
"""

from __future__ import annotations

import hashlib
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..adversary.base import Adversary
from ..adversary.schedule import FaultPhase, FaultSchedule
from ..config import ProtocolConfig, SystemConfig
from ..crypto.backend import CryptoBackend
from ..crypto.keys import KeyChain
from ..crypto.memo import VerifiedMemo
from ..dag.block import Block, TxBatch
from ..dag.rounds import WaveStructure
from ..errors import ConfigError, ReproError
from ..harness.cluster import Assembly, assemble
from ..harness.runner import PROTOCOL_REGISTRY, node_class
from ..net.interfaces import Message, NetworkAPI
from ..net.latency import FixedLatency, LatencyModel
from ..net.simulator import _DELIVER, Simulation
from ..net.snapshot import SimulatorSnapshot
from ..obs import Observability
from ..obs.journal import EventJournal
from ..obs.registry import _SharedSink
from ..workload.metrics import MetricsCollector
from ..workload.txgen import Mempool
from .mutants import MUTANT_REGISTRY

#: Message classes ordered for canonical action keys.  The tag both names
#: the kind and fixes the sort position within one destination's pending
#: set; unknown message types sort last by class name.
_KIND_TAGS = {
    "BlockVal": "1v",
    "BlockEcho": "2e",
    "BlockReady": "3r",
    "RetrievalRequest": "4q",
    "RetrievalResponse": "5p",
}

#: Object types that are environment or telemetry, never protocol state;
#: the canonical fingerprint skips them wherever they appear.
_SKIP_TYPES = (
    Observability,
    _SharedSink,
    EventJournal,
    NetworkAPI,
    LatencyModel,
    Adversary,
    CryptoBackend,
    KeyChain,
    VerifiedMemo,  # one per key deal, reachable from every replica's coin
    SystemConfig,
    ProtocolConfig,
    WaveStructure,
    random.Random,
)

_SKIPPED = ("~",)


# ------------------------------------------------------------- configuration


@dataclass(frozen=True)
class ExploreConfig:
    """Bounds and switches for one exploration.

    ``max_rounds`` is the protocol horizon: round-advance ticks for a
    replica that has proposed its round-``max_rounds`` block stop being
    schedulable, so the message space is finite and a state with nothing
    left to schedule is a leaf.  ``max_inflight`` (0 = unbounded) caps how
    many pending decisions are *considered* per state, in canonical order
    — a delivery-window bound that trades schedule coverage for
    tractability, computed from canonical state only so it composes
    soundly with revisit pruning.

    ``por=False`` turns sleep sets off; it is the unreduced reference the
    POR soundness test compares against.
    """

    protocol: str = "lightdag1"
    n: int = 4
    max_rounds: int = 3
    seed: int = 0
    max_inflight: int = 0
    por: bool = True
    max_states: int = 1_000_000
    time_box_s: Optional[float] = None
    stop_on_violation: bool = True

    def replay_command(self, schedule: str) -> str:
        """The CLI invocation that replays ``schedule`` under this config."""
        parts = [
            "python -m repro explore",
            f"--protocol {self.protocol}",
            f"-n {self.n}",
            f"--rounds {self.max_rounds}",
            f"--seed {self.seed}",
        ]
        if self.max_inflight:
            parts.append(f"--max-inflight {self.max_inflight}")
        parts.append(f"--schedule '{schedule}'")
        return " ".join(parts)


@dataclass
class Violation:
    """One oracle/engine failure found during exploration."""

    path: Tuple[int, ...]
    error: str
    at_leaf: bool = False
    schedule: str = ""
    command: str = ""

    @property
    def oracle(self) -> str:
        """Best-effort oracle tag parsed out of the failure message."""
        # InvariantMonitor formats "[t=..s] replica i: <oracle>: detail".
        parts = self.error.split(": ")
        return parts[2] if len(parts) > 3 and "replica" in parts[1] else parts[0]


def _violation(
    path: Tuple[int, ...], exc: ReproError, at_leaf: bool = False
) -> Violation:
    return Violation(
        path=path, error=f"{type(exc).__name__}: {exc}", at_leaf=at_leaf
    )


@dataclass
class ExploreReport:
    """Outcome of one exploration."""

    config: Optional[ExploreConfig] = None
    states_explored: int = 0
    #: States with a canonical fingerprint not seen before.
    distinct_states: int = 0
    states_pruned: int = 0
    sleep_skips: int = 0
    transitions: int = 0
    leaves: int = 0
    max_depth_seen: int = 0
    violations: List[Violation] = field(default_factory=list)
    elapsed: float = 0.0
    complete: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations


# ------------------------------------------------------------ world building


@dataclass
class World:
    """One explorable universe: the simulator plus its harness satellites."""

    sim: Simulation
    cluster: Assembly
    collector: MetricsCollector
    mempools: List[Mempool]

    def snapshot(self) -> SimulatorSnapshot:
        # The monitor is part of the snapshot by construction: its
        # first-writer-wins position bookkeeping must rewind with the
        # branch it was recorded on, or a violation found on one branch
        # would falsely re-fire against a sibling (and vice versa).
        return self.sim.snapshot(
            extra_roots=[self.cluster.monitor, self.collector, *self.mempools]
        )


def default_registry() -> Dict[str, type]:
    """Protocols the explorer can search: production registry plus the
    deliberately broken mutants (the whole point is finding their bugs)."""
    merged: Dict[str, type] = dict(PROTOCOL_REGISTRY)
    merged.update(MUTANT_REGISTRY)
    return merged


def build_world(
    cfg: ExploreConfig, registry: Optional[Dict[str, type]] = None
) -> World:
    """Construct the zero-latency world and bring it to its first
    scheduling decision (start hooks run, local loopbacks drained)."""
    node_cls = node_class(cfg.protocol, registry or default_registry())
    system = SystemConfig(n=cfg.n, crypto="hmac", seed=cfg.seed)
    protocol = ProtocolConfig(batch_size=4)
    collector = MetricsCollector(warmup=0.0, measure_until=None)
    mempools = [Mempool.from_config(protocol) for _ in range(cfg.n)]
    cluster = assemble(
        system,
        protocol,
        node_cls,
        payload_source=lambda i: mempools[i].take,
        on_commit=collector.callback_for,
        check_level="full",
    )
    sim = Simulation(
        cluster.factories,
        latency_model=FixedLatency(0.0),
        bandwidth_bps=None,
        adversary=None,
        cpu=None,
        seed=cfg.seed,
    )
    cluster.bind(sim.nodes)
    sim.start()
    world = World(sim=sim, cluster=cluster, collector=collector, mempools=mempools)
    _quiesce(sim)
    return world


# --------------------------------------------------- canonical action naming


def _value_key(value) -> tuple:
    """Canonical encoding of a message field value."""
    if isinstance(value, Block):
        return ("B", value.digest)
    if isinstance(value, TxBatch):
        return ("X", value.count, value.tx_size, repr(value.submit_time_sum))
    if isinstance(value, (tuple, list)):
        return ("T",) + tuple(_value_key(v) for v in value)
    if isinstance(value, float):
        return ("f", repr(value))
    if isinstance(value, (type(None), bool, int, str, bytes)):
        return ("p", value)
    if hasattr(value, "digest"):
        return ("g", _value_key(value.digest))
    return ("o", type(value).__name__, repr(value))


def _msg_key(msg: Message) -> tuple:
    """Canonical content identity of a message, independent of the
    enqueue sequence number — identical in-flight duplicates collapse."""
    cls = type(msg).__name__
    tag = _KIND_TAGS.get(cls, "9" + cls)
    fields = getattr(msg, "__dict__", {})
    body = tuple(
        (name, _value_key(value))
        for name, value in sorted(fields.items())
        if name != "_wire_size" and not callable(value)
    )
    return (tag, body)


def _action_key(ev: tuple) -> tuple:
    """Canonical identity of one scheduling decision.

    ``key[1]`` is always the target replica — the independence relation
    for partial-order reduction compares exactly that slot.
    """
    when, seq, kind, a, b, c = ev
    if kind == _DELIVER:
        return ("d", b, _msg_key(c), a)
    # Zero-delay local timer (round ADVANCE).
    return ("t", a, str(b), _value_key(c))


def _independent(key_a: tuple, key_b: tuple) -> bool:
    """Two decisions commute iff they act on different replicas: a
    handler mutates only its own replica plus append-only message sends
    (a multiset under canonical hashing) and the order-insensitive
    monitor/collector hooks."""
    return key_a[1] != key_b[1]


# ------------------------------------------------------------ stepping model


def _scan_queue(sim: Simulation):
    """Split the event queue into (urgent local, schedulable) events.

    Local loopbacks (src == dst deliveries) are urgent — not schedulable
    by a network adversary.  Anything strictly in the future (retry
    backoff, the stall check) is outside the zero-time horizon and ignored.
    """
    urgent = []
    actionable = []
    now = sim.now
    for ev in sim._queue:
        if ev[0] > now:
            continue
        if ev[2] == _DELIVER and ev[3] == ev[4]:
            urgent.append(ev)
        else:
            actionable.append(ev)
    return urgent, actionable


def _one_event(sim: Simulation) -> bool:
    return True


def _step(sim: Simulation, ev: tuple) -> None:
    """Process exactly ``ev`` through :meth:`Simulation.run`.

    The record is re-queued at the head: the same ``when`` (never later
    than any pending event) and sequence number -1, below every live one
    (the simulator numbers events from 0).  ``sim._seq`` is untouched, so
    the events the handler sends are numbered as if ``ev`` had been
    popped in its own turn.
    """
    queue = sim._queue
    queue.remove(ev)
    queue.push((ev[0], -1) + ev[2:])
    sim.run(stop_when=_one_event)


def _quiesce(sim: Simulation) -> None:
    """Drain urgent local deliveries (in deterministic enqueue order)."""
    while True:
        urgent, _ = _scan_queue(sim)
        if not urgent:
            return
        _step(sim, min(urgent, key=lambda e: (e[0], e[1])))


def _execute(sim: Simulation, ev: tuple) -> None:
    """One scheduling decision: run the event, then drain loopbacks."""
    _step(sim, ev)
    _quiesce(sim)


def _candidates(sim: Simulation, cfg: ExploreConfig):
    """The schedulable decisions of the current state, canonically
    ordered and deduplicated by content.  Returns [(key, event)].

    The round horizon is enforced here: a replica's ADVANCE tick is only
    schedulable while ``next_round <= max_rounds``, so no replica ever
    *proposes* past the bound — but every message already in flight
    remains deliverable, which is what lets end-of-horizon commits (coin
    shares ride the final round's proposals) still be explored.
    """
    _, actionable = _scan_queue(sim)
    by_key: Dict[tuple, tuple] = {}
    for ev in actionable:
        if ev[2] != _DELIVER and sim.nodes[ev[3]].next_round > cfg.max_rounds:
            continue
        key = _action_key(ev)
        prior = by_key.get(key)
        # Identical duplicates: keep the earliest for determinism.
        if prior is None or (ev[0], ev[1]) < (prior[0], prior[1]):
            by_key[key] = ev
    ordered = sorted(by_key.items(), key=lambda item: item[0])
    if cfg.max_inflight and len(ordered) > cfg.max_inflight:
        ordered = ordered[: cfg.max_inflight]
    return ordered


def _leaf_checks(world: World) -> None:
    """Terminal-state oracles: cross-replica prefix agreement plus the
    full structural audit (the post-run half of ``check_level="full"``)."""
    world.cluster.check(world.sim.nodes, now=world.sim.now)


# ------------------------------------------------------- canonical state hash


# Per-class dispatch kinds, cached so the ``isinstance`` chains (several
# of the skip classes are ABCs with slow ``__instancecheck__``) run once
# per concrete type rather than once per visited object.
_KIND_CACHE: Dict[type, str] = {}


def _classify(cls: type) -> str:
    if issubclass(cls, (bool, int, str, bytes)):
        return "p"
    if issubclass(cls, float):
        return "f"
    if issubclass(cls, Block):
        return "B"
    if issubclass(cls, Message):
        return "M"
    if issubclass(cls, _SKIP_TYPES):
        return "x"
    if issubclass(cls, tuple):
        return "t"
    if issubclass(cls, list):
        return "T"
    if issubclass(cls, (set, frozenset)):
        return "S"
    if issubclass(cls, dict):
        return "D"
    if issubclass(cls, array):
        return "A"
    return "O"


class _Canonicalizer:
    """Encodes arbitrary protocol-object graphs into nested tuples of
    primitives, with sorted dict/set orderings and alias-stable back
    references, so ``repr`` of the result is identical across processes
    and hash seeds."""

    def __init__(self) -> None:
        self._memo: Dict[int, int] = {}

    def canon(self, obj) -> tuple:
        if obj is None:
            return ("p", None)
        cls = obj.__class__
        kind = _KIND_CACHE.get(cls)
        if kind is None:
            kind = _KIND_CACHE[cls] = _classify(cls)
        if kind == "p":
            return ("p", obj)
        if kind == "f":
            return ("f", repr(obj))
        if kind == "B":
            return ("B", obj.digest)
        if kind == "M":
            return ("M", _msg_key(obj))
        if kind == "x":
            return _SKIPPED
        if kind == "O" and callable(obj):
            return _SKIPPED
        if kind == "t":
            # A tuple is a value: which holders share one object (a memoized
            # ``Block.slot``, a pickled copy of it after a restore) is not
            # state, so it gets no back reference.  Anything mutable inside
            # it still does.
            return ("T",) + tuple(self.canon(v) for v in obj)
        ref = self._memo.get(id(obj))
        if ref is not None:
            return ("R", ref)
        self._memo[id(obj)] = len(self._memo)
        if kind == "T":
            return ("T",) + tuple(self.canon(v) for v in obj)
        if kind == "S":
            return ("S",) + tuple(sorted(repr(self.canon(v)) for v in obj))
        if kind == "D":
            pairs = [(repr(self.canon(k)), self.canon(v)) for k, v in obj.items()]
            return ("D",) + tuple(sorted(pairs, key=lambda kv: kv[0]))
        if kind == "A":
            # An array has no __dict__ or __slots__: encode it by value, or
            # every array would read as the same empty object.
            return ("A", obj.typecode, tuple(obj))
        return self._canon_object(obj)

    def _canon_object(self, obj) -> tuple:
        cls = type(obj)
        skip = getattr(cls, "FINGERPRINT_SKIP", frozenset())
        state = getattr(obj, "__dict__", None)
        if state is None:
            names: List[str] = []
            for klass in cls.__mro__:
                names.extend(getattr(klass, "__slots__", ()))
            state = {
                name: getattr(obj, name)
                for name in names
                if hasattr(obj, name)
            }
        body = tuple(
            (name, self.canon(value))
            for name, value in sorted(state.items())
            if name not in skip and not callable(value)
        )
        return ("O", cls.__name__, body)


def _node_digest(node) -> str:
    """Canonical encoding of one replica's state graph.  Each replica is
    canonicalized with its own back-reference namespace, so a digest
    stays valid as long as that replica is untouched — the basis for the
    DFS's incremental fingerprinting (a transition only mutates its
    target replica)."""
    return repr(_Canonicalizer().canon(node))


def _combine_fingerprint(sim: Simulation, digests: Sequence[str]) -> bytes:
    urgent, actionable = _scan_queue(sim)
    queue = tuple(sorted(repr(_action_key(ev)) for ev in urgent + actionable))
    crashed = tuple(sorted(sim._crashed))
    blob = repr((tuple(digests), queue, crashed)).encode()
    return hashlib.sha256(blob).digest()


def state_fingerprint(sim: Simulation) -> bytes:
    """Canonical digest of the protocol-relevant world state: every
    replica's state graph, the in-flight queue as a content multiset
    (enqueue sequence numbers excluded — they never affect behaviour
    under the explorer's stepping model), and the crash set.  Future
    timers are excluded: they cannot fire within the horizon."""
    return _combine_fingerprint(
        sim, [_node_digest(node) for node in sim.nodes]
    )


# ----------------------------------------------------------------- DFS core


class _Frame:
    __slots__ = (
        "snap",
        "actions",
        "idx",
        "executed",
        "sleep",
        "done",
        "path",
        "digests",
    )

    def __init__(self, snap, actions, sleep, path, digests):
        self.snap = snap
        self.actions = actions
        self.idx = 0
        self.executed = 0
        self.sleep = sleep
        self.done: List[tuple] = []
        self.path = path
        self.digests = digests


def _search(
    world: World,
    cfg: ExploreConfig,
    report: ExploreReport,
    deadline: Optional[float],
    progress: Optional[Callable[[ExploreReport], None]],
) -> None:
    """DFS from the world's initial state, accumulating into ``report``.

    The world is left in an arbitrary explored state on return.
    """
    sim = world.sim
    visited: Dict[bytes, FrozenSet[tuple]] = {}
    frames: List[_Frame] = []

    def stop_requested() -> bool:
        if deadline is not None and time.monotonic() >= deadline:
            return True
        if report.states_explored >= cfg.max_states:
            return True
        return bool(cfg.stop_on_violation and report.violations)

    def enter_state(
        sleep: FrozenSet[tuple], path: Tuple[int, ...], digests: List[str]
    ) -> None:
        report.states_explored += 1
        report.max_depth_seen = max(report.max_depth_seen, len(path))
        if progress is not None and report.states_explored % 1000 == 0:
            progress(report)
        fp = _combine_fingerprint(sim, digests)
        recorded = visited.get(fp)
        if recorded is not None and recorded <= sleep:
            report.states_pruned += 1
            return
        if recorded is None:
            report.distinct_states += 1
        actions = _candidates(sim, cfg)
        if not actions:
            report.leaves += 1
            # A leaf has nothing left to schedule, so any revisit may
            # prune regardless of its sleep set (empty-set record).
            visited[fp] = frozenset()
            try:
                _leaf_checks(world)
            except ReproError as exc:
                report.violations.append(_violation(path, exc, at_leaf=True))
            return
        visited[fp] = sleep if recorded is None else (recorded & sleep)
        snap = world.snapshot() if len(actions) > 1 else None
        frames.append(_Frame(snap, actions, sleep, path, digests))

    enter_state(frozenset(), (), [_node_digest(node) for node in sim.nodes])
    while frames:
        if stop_requested():
            report.complete = False
            break
        frame = frames[-1]
        if frame.idx >= len(frame.actions):
            frames.pop()
            continue
        choice = frame.idx
        key, ev = frame.actions[choice]
        frame.idx += 1
        if cfg.por and key in frame.sleep:
            report.sleep_skips += 1
            continue
        if frame.executed > 0:
            frame.snap.restore()
        frame.executed += 1
        report.transitions += 1
        try:
            _execute(sim, ev)
        except ReproError as exc:
            report.violations.append(_violation(frame.path + (choice,), exc))
            frame.done.append(key)
            continue
        if cfg.por:
            child_sleep = frozenset(
                other
                for other in frame.sleep.union(frame.done)
                if _independent(other, key)
            )
        else:
            child_sleep = frozenset()
        frame.done.append(key)
        # A transition only mutates its target replica (key[1]) —
        # everything else flows through the network queue, which is
        # hashed separately — so only that digest is recomputed.
        child_digests = list(frame.digests)
        child_digests[key[1]] = _node_digest(sim.nodes[key[1]])
        enter_state(child_sleep, frame.path + (choice,), child_digests)


# ------------------------------------------------------------------- replay


def replay_path(
    world: World, cfg: ExploreConfig, path: Sequence[int]
) -> Optional[Violation]:
    """Execute a decision path from the world's initial state.

    Returns the violation it reproduces (during the path, or in the leaf
    checks if the end state is terminal), or ``None`` — meaning the path
    no longer fails (relevant while shrinking) or ran off the state's
    candidate list (an invalid/stale path).
    """
    sim = world.sim
    taken: List[int] = []
    for choice in path:
        actions = _candidates(sim, cfg)
        if not actions:
            break
        if choice >= len(actions):
            return None
        taken.append(choice)
        _, ev = actions[choice]
        try:
            _execute(sim, ev)
        except ReproError as exc:
            return _violation(tuple(taken), exc)
    if not _candidates(sim, cfg):
        try:
            _leaf_checks(world)
        except ReproError as exc:
            return _violation(tuple(taken), exc, at_leaf=True)
    return None


def _fails(
    cfg: ExploreConfig,
    registry: Optional[Dict[str, type]],
    path: Tuple[int, ...],
) -> bool:
    return replay_path(build_world(cfg, registry), cfg, path) is not None


def shrink_path(
    cfg: ExploreConfig,
    registry: Optional[Dict[str, type]],
    path: Tuple[int, ...],
    budget_s: float = 30.0,
) -> Tuple[int, ...]:
    """Greedy single-decision deletion to a fixed point.

    Each candidate replays deterministically from a fresh world; tried
    candidates are memoized by value so the fixed-point loop never
    re-executes a rejected candidate (the same discipline the fuzzer's
    schedule shrinker uses).
    """
    deadline = time.monotonic() + budget_s
    current = tuple(path)
    tried: Dict[Tuple[int, ...], bool] = {current: True}
    improved = True
    while improved and time.monotonic() < deadline:
        improved = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            verdict = tried.get(candidate)
            if verdict is None:
                verdict = _fails(cfg, registry, candidate)
                tried[candidate] = verdict
                if time.monotonic() >= deadline:
                    break
            if verdict:
                current, improved = candidate, True
                break
    return current


# --------------------------------------------------------- schedule grammar


def path_to_schedule(path: Sequence[int]) -> str:
    """Encode a decision path as an ``order`` fault-schedule phase."""
    params = (("path", tuple(int(v) for v in path)),) if path else ()
    phase = FaultPhase(kind="order", start=0.0, duration=0.0, params=params)
    return FaultSchedule((phase,)).to_spec()


def schedule_to_path(spec: str) -> Tuple[int, ...]:
    """Decode an ``order`` schedule back into a decision path."""
    schedule = FaultSchedule.from_spec(spec)
    orders = [p for p in schedule.phases if p.kind == "order"]
    if len(orders) != 1 or len(schedule.phases) != 1:
        raise ConfigError(
            "explorer replay expects exactly one 'order' phase, got "
            f"{spec!r}"
        )
    raw = orders[0].param("path", ())
    if isinstance(raw, int):
        raw = (raw,)
    path = tuple(int(v) for v in raw)
    if any(v < 0 for v in path):
        raise ConfigError(f"negative decision index in {spec!r}")
    return path


def _finalize_violations(
    cfg: ExploreConfig,
    registry: Optional[Dict[str, type]],
    report: ExploreReport,
    shrink_budget_s: float = 30.0,
) -> None:
    """Shrink every recorded violation and attach its replay artifacts."""
    for violation in report.violations:
        minimal = shrink_path(
            cfg, registry, violation.path, budget_s=shrink_budget_s
        )
        if minimal != violation.path and _fails(cfg, registry, minimal):
            violation.path = minimal
        violation.schedule = path_to_schedule(violation.path)
        violation.command = cfg.replay_command(violation.schedule)


# ------------------------------------------------------------- entry points


def explore(
    cfg: ExploreConfig,
    registry: Optional[Dict[str, type]] = None,
    progress: Optional[Callable[[ExploreReport], None]] = None,
    shrink_budget_s: float = 30.0,
) -> ExploreReport:
    """Exhaustively explore one configuration within its bounds."""
    started = time.monotonic()
    deadline = (
        started + cfg.time_box_s if cfg.time_box_s is not None else None
    )
    report = ExploreReport(config=cfg)
    _search(build_world(cfg, registry), cfg, report, deadline, progress)
    _finalize_violations(cfg, registry, report, shrink_budget_s)
    report.elapsed = time.monotonic() - started
    return report


def replay_schedule(
    cfg: ExploreConfig,
    spec: str,
    registry: Optional[Dict[str, type]] = None,
) -> Optional[Violation]:
    """Replay an ``order`` schedule emitted by a previous exploration."""
    path = schedule_to_path(spec)
    world = build_world(cfg, registry)
    violation = replay_path(world, cfg, path)
    if violation is not None:
        violation.schedule = path_to_schedule(violation.path)
        violation.command = cfg.replay_command(violation.schedule)
    return violation


__all__ = [
    "ExploreConfig",
    "ExploreReport",
    "Violation",
    "World",
    "build_world",
    "default_registry",
    "explore",
    "path_to_schedule",
    "replay_path",
    "replay_schedule",
    "schedule_to_path",
    "shrink_path",
    "state_fingerprint",
]
