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
* Timers strictly in the future (coin-sync at 0.5 s, retrieval retry
  backoff) never fire: the horizon is bounded by rounds, not time.

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
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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
from ..obs.trace import NullTracer, Tracer
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
    "CoinShareMsg": "6c",
    "CoinShareRequest": "7w",
}

#: Object types that are environment or telemetry, never protocol state;
#: the canonical fingerprint skips them wherever they appear.
_SKIP_TYPES = (
    Observability,
    _SharedSink,
    EventJournal,
    Tracer,
    NullTracer,
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

    ``reverse`` flips the DFS child order (the tree and its leaves are
    identical; only the visit order changes).  Canonical order explores
    near-synchronous schedules first; reverse order starves the
    canonically-first pending delivery as long as possible, which is the
    shape of most safety-violating schedules — use it for bug hunts,
    default order for enumeration.
    """

    protocol: str = "lightdag1"
    n: int = 4
    max_rounds: int = 3
    seed: int = 0
    max_inflight: int = 0
    por: bool = True
    state_hash: bool = True
    max_states: int = 1_000_000
    max_depth: int = 0
    time_box_s: Optional[float] = None
    stop_on_violation: bool = True
    gc_depth: Optional[int] = None
    reverse: bool = False

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
        if self.reverse:
            parts.append("--reverse")
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


@dataclass
class ExploreReport:
    """Outcome of one exploration (or one shard of it)."""

    config: Optional[ExploreConfig] = None
    states_explored: int = 0
    states_pruned: int = 0
    sleep_skips: int = 0
    transitions: int = 0
    leaves: int = 0
    max_depth_seen: int = 0
    violations: List[Violation] = field(default_factory=list)
    elapsed: float = 0.0
    complete: bool = True
    #: Canonical fingerprints of every distinct state expanded; sharded
    #: runs union these, so ``distinct_states`` is stable across --jobs.
    fingerprints: Set[bytes] = field(default_factory=set)

    @property
    def distinct_states(self) -> int:
        return len(self.fingerprints)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "ExploreReport") -> None:
        self.states_explored += other.states_explored
        self.states_pruned += other.states_pruned
        self.sleep_skips += other.sleep_skips
        self.transitions += other.transitions
        self.leaves += other.leaves
        self.max_depth_seen = max(self.max_depth_seen, other.max_depth_seen)
        self.violations.extend(other.violations)
        self.complete = self.complete and other.complete
        self.fingerprints |= other.fingerprints


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
    """Protocols the explorer can hunt: production registry plus the
    deliberately broken mutants (the whole point is finding their bugs)."""
    merged: Dict[str, type] = dict(PROTOCOL_REGISTRY)
    merged.update(MUTANT_REGISTRY)
    return merged


def build_world(
    cfg: ExploreConfig,
    registry: Optional[Dict[str, type]] = None,
    obs: Optional[Observability] = None,
) -> World:
    """Construct the zero-latency world and bring it to its first
    scheduling decision (start hooks run, local loopbacks drained)."""
    node_cls = node_class(cfg.protocol, registry or default_registry())
    system = SystemConfig(n=cfg.n, crypto="hmac", seed=cfg.seed)
    protocol = ProtocolConfig(batch_size=4, gc_depth=cfg.gc_depth)
    collector = MetricsCollector(warmup=0.0, measure_until=None)
    mempools = [Mempool.from_config(protocol, rate=0.0) for _ in range(cfg.n)]
    cluster = assemble(
        system,
        protocol,
        node_cls,
        payload_source=lambda i: mempools[i].take,
        on_commit=collector.callback_for,
        check_level="full",
        obs=obs,
    )
    sim = Simulation(
        cluster.factories,
        latency_model=FixedLatency(0.0),
        bandwidth_bps=None,
        adversary=None,
        cpu=None,
        seed=cfg.seed,
        obs=obs,
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
    backoff, coin-sync) is outside the zero-time horizon and ignored.
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


def _dispatch(sim: Simulation, ev: tuple) -> None:
    sim._queue.remove(ev)
    sim._dispatch(ev[2], (ev[3], ev[4], ev[5]))


def _quiesce(sim: Simulation) -> None:
    """Drain urgent local deliveries (in deterministic enqueue order)."""
    while True:
        urgent, _ = _scan_queue(sim)
        if not urgent:
            return
        ev = min(urgent, key=lambda e: (e[0], e[1]))
        _dispatch(sim, ev)


def _execute(sim: Simulation, ev: tuple) -> None:
    """One scheduling decision: dispatch the event, then drain loopbacks."""
    _dispatch(sim, ev)
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
    if cfg.reverse:
        ordered.reverse()
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


def _explore_serial(
    world: World,
    cfg: ExploreConfig,
    report: ExploreReport,
    base_path: Tuple[int, ...] = (),
    base_sleep: FrozenSet[tuple] = frozenset(),
    visited: Optional[Dict[bytes, FrozenSet[tuple]]] = None,
    deadline: Optional[float] = None,
    progress: Optional[Callable[[ExploreReport], None]] = None,
) -> None:
    """DFS from the world's *current* state, accumulating into ``report``.

    The world is left in an arbitrary explored state on return; callers
    needing the original state must snapshot before calling.
    """
    sim = world.sim
    if visited is None:
        visited = {}
    frames: List[_Frame] = []

    def stop_requested() -> bool:
        if deadline is not None and time.monotonic() >= deadline:
            return True
        if report.states_explored >= cfg.max_states:
            return True
        return bool(cfg.stop_on_violation and report.violations)

    def enter_state(
        sleep: FrozenSet[tuple],
        path: Tuple[int, ...],
        digests: Optional[List[str]],
    ) -> None:
        report.states_explored += 1
        report.max_depth_seen = max(report.max_depth_seen, len(path))
        if progress is not None and report.states_explored % 1000 == 0:
            progress(report)
        fp = recorded = None
        if cfg.state_hash:
            fp = _combine_fingerprint(sim, digests)
            recorded = visited.get(fp)
            if recorded is not None and recorded <= sleep:
                report.states_pruned += 1
                return
        depth_capped = cfg.max_depth and len(path) >= cfg.max_depth
        actions = _candidates(sim, cfg)
        if not actions or depth_capped:
            report.leaves += 1
            if fp is not None:
                report.fingerprints.add(fp)
                # A leaf has nothing left to schedule, so any revisit may
                # prune regardless of its sleep set (empty-set record) —
                # except under a depth cap, where the same state can be
                # a leaf on one path and interior on a longer one.
                if not cfg.max_depth:
                    visited[fp] = frozenset()
            try:
                _leaf_checks(world)
            except ReproError as exc:
                report.violations.append(
                    Violation(
                        path=path,
                        error=f"{type(exc).__name__}: {exc}",
                        at_leaf=True,
                    )
                )
            return
        if fp is not None:
            visited[fp] = sleep if recorded is None else (recorded & sleep)
            report.fingerprints.add(fp)
        snap = world.snapshot() if len(actions) > 1 else None
        frames.append(_Frame(snap, actions, sleep, path, digests))

    enter_state(
        base_sleep,
        base_path,
        [_node_digest(node) for node in sim.nodes] if cfg.state_hash else None,
    )
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
            report.violations.append(
                Violation(
                    path=frame.path + (choice,),
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
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
        if cfg.state_hash:
            # A transition only mutates its target replica (key[1]) —
            # everything else flows through the network queue, which is
            # hashed separately — so only that digest is recomputed.
            child_digests = list(frame.digests)
            child_digests[key[1]] = _node_digest(sim.nodes[key[1]])
        else:
            child_digests = None
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
            return Violation(
                path=tuple(taken), error=f"{type(exc).__name__}: {exc}"
            )
    if not _candidates(sim, cfg):
        try:
            _leaf_checks(world)
        except ReproError as exc:
            return Violation(
                path=tuple(taken),
                error=f"{type(exc).__name__}: {exc}",
                at_leaf=True,
            )
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
    jobs: int = 1,
    obs: Optional[Observability] = None,
    progress: Optional[Callable[[ExploreReport], None]] = None,
    shrink_budget_s: float = 30.0,
) -> ExploreReport:
    """Exhaustively explore one configuration within its bounds.

    ``jobs > 1`` shards the DFS frontier over the process pool
    (:func:`repro.harness.parallel.parallel_map`): the parent enumerates
    choice-prefix subtrees breadth-first, workers exhaust them
    independently, and fingerprint sets are unioned so
    ``distinct_states`` is identical at any job count.
    """
    started = time.monotonic()
    deadline = (
        started + cfg.time_box_s if cfg.time_box_s is not None else None
    )
    if jobs and jobs > 1:
        report = _explore_sharded(cfg, registry, jobs, deadline, progress)
    else:
        report = ExploreReport(config=cfg)
        world = build_world(cfg, registry, obs=obs)
        _explore_serial(
            world, cfg, report, deadline=deadline, progress=progress
        )
        _emit_obs(obs, report)
    _finalize_violations(cfg, registry, report, shrink_budget_s)
    report.elapsed = time.monotonic() - started
    return report


def _emit_obs(obs: Optional[Observability], report: ExploreReport) -> None:
    if obs is None or not obs.enabled:
        return
    metrics = obs.metrics
    metrics.counter("explore.states_explored").inc(report.states_explored)
    metrics.counter("explore.states_pruned").inc(report.states_pruned)
    metrics.counter("explore.transitions").inc(report.transitions)
    metrics.counter("explore.leaves").inc(report.leaves)
    metrics.counter("explore.violations").inc(len(report.violations))
    obs.journal.emit(
        0.0,
        "explore.summary",
        states=report.states_explored,
        pruned=report.states_pruned,
        leaves=report.leaves,
        violations=len(report.violations),
    )


# ------------------------------------------------------------------ sharding


def _explore_worker(item, registry: Optional[Dict[str, type]]):
    """Shared-nothing shard unit: exhaust one choice-prefix subtree.

    Runs in a worker process; everything in and out must pickle.  The
    prefix replays deterministically (canonical candidate order is
    hash-seed independent), so the shard explores exactly the subtree
    the parent assigned it.
    """
    cfg, prefix, sleep_items, budget_s = item
    deadline = time.monotonic() + budget_s if budget_s is not None else None
    report = ExploreReport(config=cfg)
    world = build_world(cfg, registry)
    violation = replay_path(world, cfg, list(prefix))
    if violation is not None:
        # The prefix itself fails before reaching the subtree root —
        # possible when stop_on_violation is off and a violating edge
        # was expanded anyway.  Record and stop; nothing left to explore.
        report.violations.append(violation)
        return report
    _explore_serial(
        world,
        cfg,
        report,
        base_path=tuple(prefix),
        base_sleep=frozenset(sleep_items),
        deadline=deadline,
    )
    return report


def _explore_sharded(
    cfg: ExploreConfig,
    registry: Optional[Dict[str, type]],
    jobs: int,
    deadline: Optional[float],
    progress: Optional[Callable[[ExploreReport], None]],
) -> ExploreReport:
    from ..harness.parallel import NOT_RUN, parallel_map

    report = ExploreReport(config=cfg)
    target = max(jobs * 4, jobs + 1)
    frontier: List[Tuple[Tuple[int, ...], FrozenSet[tuple]]] = [
        ((), frozenset())
    ]
    # Breadth-first prefix expansion in the parent.  No revisit pruning
    # here — subtree partitioning must stay exact — but sleep sets are
    # threaded through so shards skip exactly what a serial run would.
    while frontier and len(frontier) < target:
        frontier.sort(key=lambda item: (len(item[0]), item[0]))
        path, sleep = frontier.pop(0)
        world = build_world(cfg, registry)
        violation = replay_path(world, cfg, list(path))
        if violation is not None:
            report.violations.append(violation)
            if cfg.stop_on_violation:
                report.complete = False
                return report
            continue
        sim = world.sim
        actions = _candidates(sim, cfg)
        if not actions or (cfg.max_depth and len(path) >= cfg.max_depth):
            # Terminal prefix: account for it here, like a serial leaf.
            report.states_explored += 1
            report.leaves += 1
            if cfg.state_hash:
                report.fingerprints.add(state_fingerprint(sim))
            try:
                _leaf_checks(world)
            except ReproError as exc:
                report.violations.append(
                    Violation(
                        path=path,
                        error=f"{type(exc).__name__}: {exc}",
                        at_leaf=True,
                    )
                )
            continue
        report.states_explored += 1
        if cfg.state_hash:
            report.fingerprints.add(state_fingerprint(sim))
        done: List[tuple] = []
        for choice, (key, _ev) in enumerate(actions):
            if cfg.por and key in sleep:
                report.sleep_skips += 1
                continue
            if cfg.por:
                child_sleep = frozenset(
                    other
                    for other in sleep.union(done)
                    if _independent(other, key)
                )
            else:
                child_sleep = frozenset()
            done.append(key)
            report.transitions += 1
            frontier.append((path + (choice,), child_sleep))
    time_box = None
    if deadline is not None:
        time_box = max(0.0, deadline - time.monotonic())
    items = [
        (cfg, path, tuple(sleep), time_box) for path, sleep in sorted(
            frontier, key=lambda item: (len(item[0]), item[0])
        )
    ]
    results, timed_out = parallel_map(
        _explore_worker, items, jobs, registry=registry, time_box=time_box
    )
    for result in results:
        if result is NOT_RUN:
            report.complete = False
            continue
        report.merge(result)
    if timed_out:
        report.complete = False
    if progress is not None:
        progress(report)
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


# ------------------------------------------------------ schedule-grammar hunt


@dataclass(frozen=True)
class HuntConfig:
    """Bounds for an exhaustive sweep of a discretized fault-schedule
    grid — bounded model checking over the *timed* small model.

    Pure delivery reordering (the order-DFS's adversary) provably cannot
    break LightDAG1's commit rule at n=4: the strict store forces a
    block's full ancestry into a replica's store before the block itself,
    and every insert re-runs the commit recheck, so wave ``w``'s support
    evidence is always processed before any wave ``w+1`` commit — waves
    settle in order whenever the evidence exists locally.  The
    registry-excluded commit-rule mutants therefore only diverge under
    *message loss*: a partition window deprives one replica of a leader's
    support evidence while the others commit on it, and the skip freezes
    when the victim settles the next wave.  This mode enumerates every
    cell of a small partition grid — isolated replica x window start x
    window length x seed — under the full oracle set, in the PR 4
    ``--schedule`` grammar, so each violation is replayable verbatim via
    ``repro fuzz --schedule``.
    """

    protocol: str = "lightdag1"
    n: int = 4
    seeds: Tuple[int, ...] = (0, 1, 7, 92)
    duration: float = 8.0
    #: Replicas to isolate, one per cell; None = every replica in turn.
    groups: Optional[Tuple[int, ...]] = None
    starts: Tuple[float, ...] = (1.0, 2.0, 3.0)
    lengths: Tuple[float, ...] = (1.5, 3.0)
    stop_on_violation: bool = True
    time_box_s: Optional[float] = None


@dataclass
class HuntViolation:
    """One grid cell that failed an oracle, with its shrunk replay."""

    protocol: str
    seed: int
    schedule: str
    error: str
    command: str


@dataclass
class HuntReport:
    """Outcome of one grammar-grid hunt."""

    config: Optional[HuntConfig] = None
    cells_explored: int = 0
    cells_pruned: int = 0
    violations: List[HuntViolation] = field(default_factory=list)
    elapsed: float = 0.0
    complete: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations


def hunt_grid(cfg: HuntConfig) -> Tuple[list, int]:
    """The deduplicated cell list (as fuzz cases) and the pruned count.

    Cells are canonicalized through the schedule grammar parser before
    deduplication, so two parameterizations that normalize to the same
    schedule count as one cell (the grid analogue of state-hash pruning).
    """
    from .fuzzer import FuzzCase

    groups = cfg.groups if cfg.groups is not None else tuple(range(cfg.n))
    cases, seen, pruned = [], set(), 0
    for seed in cfg.seeds:
        for group in groups:
            for start in cfg.starts:
                for length in cfg.lengths:
                    spec = FaultSchedule.from_spec(
                        f"partition@{start}+{length}:group={group}"
                    ).to_spec()
                    key = (seed, spec)
                    if key in seen:
                        pruned += 1
                        continue
                    seen.add(key)
                    cases.append(
                        FuzzCase(
                            protocol=cfg.protocol,
                            seed=seed,
                            n=cfg.n,
                            duration=cfg.duration,
                            schedule=spec,
                        )
                    )
    return cases, pruned


def _hunt_worker(case, registry: Optional[Dict[str, type]]):
    """Shard unit for ``--jobs``: one timed run under full oracles."""
    from .fuzzer import run_case

    return run_case(case, registry=registry)


def hunt(
    cfg: HuntConfig,
    registry: Optional[Dict[str, type]] = None,
    jobs: int = 1,
    obs: Optional[Observability] = None,
    progress: Optional[Callable[[HuntReport], None]] = None,
    shrink_budget_s: float = 30.0,
) -> HuntReport:
    """Exhaustively sweep the schedule grid; shrink and report failures.

    Every violation is minimized with the fuzzer's memoized shrinker and
    emitted with the exact ``repro fuzz --schedule`` replay command.
    """
    from .fuzzer import run_case, shrink

    if registry is None:
        registry = default_registry()
    started = time.monotonic()
    deadline = (
        started + cfg.time_box_s if cfg.time_box_s is not None else None
    )
    cases, pruned = hunt_grid(cfg)
    report = HuntReport(config=cfg, cells_pruned=pruned)
    failures = []
    if jobs and jobs > 1:
        from ..harness.parallel import NOT_RUN, parallel_map

        time_box = None
        if deadline is not None:
            time_box = max(0.0, deadline - time.monotonic())
        results, timed_out = parallel_map(
            _hunt_worker, cases, jobs, registry=registry, time_box=time_box
        )
        for case, error in zip(cases, results):
            if error is NOT_RUN:
                report.complete = False
                continue
            report.cells_explored += 1
            if error is not None:
                failures.append((case, error))
        if timed_out:
            report.complete = False
    else:
        for case in cases:
            if deadline is not None and time.monotonic() >= deadline:
                report.complete = False
                break
            error = run_case(case, registry=registry)
            report.cells_explored += 1
            if progress is not None and report.cells_explored % 10 == 0:
                progress(report)
            if error is not None:
                failures.append((case, error))
                if cfg.stop_on_violation:
                    report.complete = False
                    break
    for case, error in failures:
        minimal, _attempts = shrink(
            case, registry=registry, budget_s=shrink_budget_s
        )
        report.violations.append(
            HuntViolation(
                protocol=minimal.protocol,
                seed=minimal.seed,
                schedule=minimal.schedule,
                error=error,
                command=minimal.command(),
            )
        )
    report.elapsed = time.monotonic() - started
    if obs is not None and obs.enabled:
        metrics = obs.metrics
        metrics.counter("explore.hunt_cells").inc(report.cells_explored)
        metrics.counter("explore.hunt_violations").inc(len(report.violations))
    if progress is not None:
        progress(report)
    return report


__all__ = [
    "ExploreConfig",
    "ExploreReport",
    "HuntConfig",
    "HuntReport",
    "HuntViolation",
    "Violation",
    "World",
    "build_world",
    "default_registry",
    "explore",
    "hunt",
    "hunt_grid",
    "path_to_schedule",
    "replay_path",
    "replay_schedule",
    "schedule_to_path",
    "shrink_path",
    "state_fingerprint",
]
