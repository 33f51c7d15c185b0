"""Composable, timed fault schedules: the one way a run is attacked.

Every fault this repository can inject — the §VI-A named attacks, the
fuzzer's cases, a benchmark's scenario — is a :class:`FaultSchedule`: an
ordered list of :class:`FaultPhase` entries such as a crash at t=2, a
partition from t=3 to t=5, heavy random delays throughout.
:class:`ScheduleAdversary` drives the message-level phases (delays
accumulate, any drop wins), while node-level phases (``withhold``,
``equivocate``) translate into Byzantine node-class overrides.  The named
attacks are entries of :data:`ATTACKS`, each a function from the system to
a spec in the grammar below: ``--adversary crash`` and its ``schedule:``
spelling are the same run.

Schedules round-trip through a compact text grammar so a failing fuzz case
is reproducible from its command line alone::

    spec   := phase (';' phase)*
    phase  := kind '@' start '+' duration [':' key '=' value {',' ...}]
    value  := number | int '|' int '|' ...        (replica lists)

Examples::

    delay@0+6:max=0.25,tailp=0.1,taild=1.5
    partition@1.5+2:group=0|3
    crash@2+0:victims=3
    withhold@0+0:replicas=3,mode=garbage
    equivocate@0+0:replicas=3,wave=2
    leader-delay@0+inf:delay=1
    loss@0+inf:p=0.01,clusters=4

``loss`` drops each copy with probability ``p``; with ``clusters=K`` only
copies whose endpoints differ mod ``K`` (the ``topology`` latency model's
clusters).  It is the only link loss: a latency model never drops, and a
``topology`` spec's ``loss=`` spells this phase
(:func:`repro.net.latency.loss_phase_spec`).

``crash``/``withhold``/``equivocate`` are point events (duration 0): a
crash-stop never heals, and the behavioural overrides exist for the whole
run.  The total set of crashed/withholding/equivocating replicas must stay
within the ``f`` budget — :meth:`FaultSchedule.validate` enforces it.  A
duration of ``inf`` is a window that never closes: the whole run.

``leader-delay`` is §VI-A's attack on Bullshark ("can be targeted by
delaying blocks from leaders to disrupt the optimistic path"): its leaders
are *predefined*, so the adversary knows which VALs to sit on — why that
hurts is told in :mod:`repro.baselines.bullshark` ("Leader wait").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..broadcast.messages import BlockVal
from ..config import SystemConfig
from ..crypto.hashing import hash_to_int
from ..errors import ConfigError
from ..net.interfaces import Message
from .base import Adversary
from .byzantine import EquivocatingLightDag2Node
from .withhold import withholding_node_class

#: Phase kinds the message-level driver interprets per send.
MESSAGE_KINDS = ("delay", "partition", "loss", "leader-delay")
#: Phase kinds applied once at attach time (crash-stop is permanent).
POINT_KINDS = ("crash",)
#: Phase kinds that become Byzantine node-class overrides.
NODE_KINDS = ("withhold", "equivocate")
#: Phase kinds only the model-checking explorer interprets: an ``order``
#: phase carries a delivery-decision path (``order@0+0:path=3|1|0``) that
#: ``repro explore --schedule`` replays exactly.  Timed runs reject it —
#: a decision index is meaningless against a latency-driven event queue.
EXPLORER_KINDS = ("order",)

ALL_KINDS = MESSAGE_KINDS + POINT_KINDS + NODE_KINDS + EXPLORER_KINDS


@dataclass(frozen=True)
class FaultPhase:
    """One timed fault: what, when, for how long, with which parameters."""

    kind: str
    start: float = 0.0
    duration: float = 0.0
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; choose from {ALL_KINDS}"
            )
        # Written so that nan fails both tests: a phase that starts at nan
        # or lasts nan is never active, which is never what a spec meant.
        if not 0 <= self.start < math.inf or not self.duration >= 0:
            raise ConfigError(
                "a fault phase needs a finite start >= 0 and a duration in "
                f"[0, inf], got {self.to_spec()!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def replicas(self) -> Tuple[int, ...]:
        """The replica list parameter of this phase (faulty members)."""
        key = "victims" if self.kind == "crash" else "replicas"
        value = self.param(key if self.kind != "partition" else "group", ())
        if isinstance(value, int):
            return (value,)
        return tuple(value)

    def to_spec(self) -> str:
        head = f"{self.kind}@{_fmt(self.start)}+{_fmt(self.duration)}"
        if not self.params:
            return head
        parts = []
        for key, value in self.params:
            if isinstance(value, (tuple, list)):
                rendered = "|".join(str(v) for v in value)
            elif isinstance(value, float):
                rendered = _fmt(value)
            else:
                rendered = str(value)
            parts.append(f"{key}={rendered}")
        return head + ":" + ",".join(parts)


def _fmt(x: float) -> str:
    """Compact, round-trippable float rendering (2 → "2", inf → "inf")."""
    if not math.isfinite(x):
        return repr(x)
    if x == int(x):
        return str(int(x))
    return repr(round(x, 6))


def _parse_value(raw: str):
    if "|" in raw:
        return tuple(int(part) for part in raw.split("|"))
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw  # bare string (e.g. mode=garbage)


def parse_phase(text: str) -> FaultPhase:
    text = text.strip()
    head, _, tail = text.partition(":")
    try:
        kind, _, window = head.partition("@")
        start_s, _, dur_s = window.partition("+")
        start, duration = float(start_s), float(dur_s)
    except ValueError:
        raise ConfigError(
            f"malformed fault phase {text!r} (expected kind@start+duration"
            f"[:k=v,...])"
        )
    params: List[Tuple[str, object]] = []
    if tail:
        for pair in tail.split(","):
            key, eq, raw = pair.partition("=")
            if not eq:
                raise ConfigError(f"malformed parameter {pair!r} in {text!r}")
            params.append((key.strip(), _parse_value(raw.strip())))
    return FaultPhase(kind=kind, start=start, duration=duration,
                      params=tuple(params))


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, serializable composition of fault phases."""

    phases: Tuple[FaultPhase, ...] = ()

    @classmethod
    def from_spec(cls, spec: str) -> "FaultSchedule":
        spec = spec.strip()
        if not spec:
            return cls(())
        return cls(tuple(parse_phase(part) for part in spec.split(";") if part.strip()))

    def to_spec(self) -> str:
        return ";".join(phase.to_spec() for phase in self.phases)

    def faulty_replicas(self) -> Tuple[int, ...]:
        """All replicas the schedule crashes or corrupts (counts against f)."""
        out = set()
        for phase in self.phases:
            if phase.kind in POINT_KINDS + NODE_KINDS:
                out.update(phase.replicas())
        return tuple(sorted(out))

    def validate(self, system: SystemConfig, protocol_name: str) -> None:
        """Reject schedules the threat model does not allow."""
        for phase in self.phases:
            if phase.kind in EXPLORER_KINDS:
                raise ConfigError(
                    f"schedule phase {phase.kind!r} is an explorer replay "
                    "artifact; replay it with "
                    "`python -m repro explore --schedule ...`, not a timed run"
                )
        faulty = self.faulty_replicas()
        if len(faulty) > system.f:
            raise ConfigError(
                f"schedule corrupts {len(faulty)} replicas {faulty} but "
                f"n={system.n} tolerates only f={system.f}"
            )
        for replica in faulty:
            if not 0 <= replica < system.n:
                raise ConfigError(
                    f"schedule names replica {replica} outside 0..{system.n - 1}"
                )
        for phase in self.phases:
            if phase.kind == "partition":
                group = phase.replicas()
                if not group or not all(0 <= r < system.n for r in group):
                    raise ConfigError(
                        f"partition group {group} invalid for n={system.n}"
                    )
            if phase.kind == "loss":
                p, clusters = phase.param("p"), phase.param("clusters", 1)
                if not (isinstance(p, (int, float)) and 0 <= p < 1
                        and type(clusters) is int and clusters >= 1):
                    raise ConfigError(
                        "a loss phase needs p in [0, 1) and an integer "
                        f"clusters >= 1, got {phase.to_spec()!r}"
                    )
            if phase.kind == "equivocate" and protocol_name != "lightdag2":
                raise ConfigError(
                    "the equivocation fault targets lightdag2 only "
                    f"(got {protocol_name!r})"
                )

    # -- materialization -----------------------------------------------------

    def adversary(self, seed: int = 0) -> Optional["ScheduleAdversary"]:
        """The message-level driver, or None when no phase needs one."""
        relevant = [
            p for p in self.phases if p.kind in MESSAGE_KINDS + POINT_KINDS
        ]
        if not relevant:
            return None
        return ScheduleAdversary(self.phases, seed=seed)

    def node_overrides(
        self, node_cls: Type, system: SystemConfig
    ) -> Dict[int, Callable]:
        """Byzantine node-class overrides for ``withhold``/``equivocate``
        phases, in the harness's replica-index → factory form."""
        overrides: Dict[int, Callable] = {}
        for phase in self.phases:
            if phase.kind == "withhold":
                build = withholding_node_class(
                    node_cls, mode=phase.param("mode", "ignore")
                )
            elif phase.kind == "equivocate":
                build = partial(
                    EquivocatingLightDag2Node,
                    start_wave=int(phase.param("wave", 1)),
                )
            else:
                continue
            overrides.update(dict.fromkeys(phase.replicas(), build))
        return overrides


class ScheduleAdversary(Adversary):
    """Drive a :class:`FaultSchedule`'s message-level phases.

    Per send: any active ``partition`` phase whose cut the message crosses
    drops it, then each active ``loss`` phase whose clusters it crosses
    drops it with its probability; a copy that survives gets the delays of
    every active ``delay`` phase, and an active ``leader-delay`` phase adds
    its delay to a predefined leader's VAL.
    ``crash`` phases are applied once at attach time (crash-stop).
    """

    def __init__(self, phases: Sequence[FaultPhase], seed: int = 0) -> None:
        super().__init__(seed)
        self.schedule = FaultSchedule(tuple(phases))
        # Each message-level phase resolved once into plain floats, so a
        # send scans tuples instead of calling ``active``/``param``.
        self._delays = [
            (
                p.start, p.end, float(p.param("max", 0.2)),
                float(p.param("tailp", 0.0)), float(p.param("taild", 1.0)),
            )
            for p in phases if p.kind == "delay"
        ]
        self._leader_delays = [
            (p.start, p.end, float(p.param("delay", 1.0)))
            for p in phases if p.kind == "leader-delay"
        ]
        self._crash_phases = [p for p in phases if p.kind == "crash"]
        self._partitions = [
            (p.start, p.end, frozenset(p.replicas()))
            for p in phases if p.kind == "partition"
        ]
        # No ``clusters``: every replica its own cluster (i % inf == i).
        self._losses = [
            (p.start, p.end, float(p.param("p")), p.param("clusters", math.inf))
            for p in phases if p.kind == "loss"
        ]
        self.dropped = 0

    def attach(self, sim) -> None:
        super().attach(sim)
        for phase in self._crash_phases:
            for victim in phase.replicas():
                sim.crash(victim, at=phase.start if phase.start > 0 else None)

    def _is_leader_val(self, msg: Message) -> bool:
        """Whether ``msg`` carries a predefined leader's leader-round block:
        mirrors ``BullsharkNode.predefined_leader`` — the schedule is public —
        over the attached cluster's own configuration.  Only VALs count
        (delaying echoes/readies of an already-spread block buys nothing)."""
        if not isinstance(msg, BlockVal):
            return False
        block = msg.block
        if block.round < 1 or block.round % 2 == 0:
            return False  # leader rounds are the odd (wave-first) rounds
        system = self.sim.nodes[0].system
        wave = (block.round - 1) // 2 + 1
        leader = hash_to_int("bullshark-leader", system.seed, wave) % system.n
        return block.author == leader

    def on_send(self, src: int, dst: int, msg: Message, now: float) -> Optional[float]:
        for start, end, group in self._partitions:
            if start <= now < end and (src in group) != (dst in group):
                self.dropped += 1
                return None
        for start, end, p, clusters in self._losses:
            if (start <= now < end and src % clusters != dst % clusters
                    and self.rng.random() < p):
                self.dropped += 1
                return None
        total = 0.0
        for start, end, max_delay, tail_p, tail_delay in self._delays:
            if not start <= now < end:
                continue
            total += self.rng.uniform(0.0, max_delay)
            if tail_p and self.rng.random() < tail_p:
                total += tail_delay
        if self._leader_delays and self._is_leader_val(msg):
            for start, end, delay in self._leader_delays:
                if start <= now < end:
                    total += delay
        return total


# ------------------------------------------------------------- named attacks


def _on_last_f(system: SystemConfig, head: str, tail: str = "") -> str:
    """``head`` + the ``f`` highest replica indices (the ones every named
    attack corrupts) + ``tail``; the empty schedule when ``f`` is 0."""
    faulty = "|".join(map(str, range(system.n - system.f, system.n)))
    return f"{head}{faulty}{tail}" if faulty else ""


#: Adversary name → the fault schedule it stands for, as a function of the
#: system.  §VI-A names the strongest attack per protocol
#: (``harness.cluster.WORST_ATTACK``); the rest are generic stress settings.
ATTACKS: Dict[str, Callable[[SystemConfig], str]] = {
    "none": lambda s: "",
    # §VI-A vs Tusk/LightDAG1: f crashed replicas cut the blocks proposed per
    # round and leave the coin naming an empty leader slot f/n of the time.
    "crash": lambda s: _on_last_f(s, "crash@0+0:victims="),
    "leader-delay": lambda s: "leader-delay@0+inf:delay=1",
    # §VI-A vs LightDAG2: "one Byzantine replica each time" — replica k
    # opens its attack two waves after replica k-1.
    "equivocate": lambda s: ";".join(
        f"equivocate@0+0:replicas={replica},wave={1 + 2 * k}"
        for k, replica in enumerate(range(s.n - s.f, s.n))
    ),
    # Unstructured: every message waits an independent uniform extra delay.
    "random-sched": lambda s: "delay@0+inf:max=0.2",
    "withhold": lambda s: _on_last_f(s, "withhold@0+0:replicas="),
    "withhold-garbage": lambda s: _on_last_f(
        s, "withhold@0+0:replicas=", ",mode=garbage"
    ),
}


# ---------------------------------------------------------------- generator


def random_schedule(
    seed: int,
    system: SystemConfig,
    protocol_name: str,
    duration: float,
) -> FaultSchedule:
    """Seed-deterministic schedule generator for the fuzzer.

    A pure function of its arguments: the same (seed, system, protocol,
    duration) always yields the same schedule, so ``repro fuzz --seed``
    reproduces a failing run exactly.  Faulty-replica assignments come off
    the top indices and never exceed ``f``; partitions always heal before
    the run ends so post-heal convergence is exercised, not skipped.
    """
    import random as _random

    rng = _random.Random(f"fault-schedule:{seed}:{system.n}:{protocol_name}")
    kinds = ["delay", "partition", "crash", "withhold"]
    if protocol_name == "lightdag2":
        kinds.append("equivocate")
    budget = list(range(system.n - 1, system.n - 1 - system.f, -1))
    phases: List[FaultPhase] = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(kinds)
        if kind == "delay":
            start = rng.uniform(0.0, duration * 0.4)
            dur = rng.uniform(duration * 0.2, duration - start)
            phases.append(FaultPhase(
                "delay", round(start, 3), round(dur, 3),
                params=(
                    ("max", round(rng.uniform(0.05, 0.35), 3)),
                    ("tailp", round(rng.choice([0.0, 0.05, 0.15]), 3)),
                    ("taild", round(rng.uniform(0.5, 1.5), 3)),
                ),
            ))
        elif kind == "partition":
            # Cut at most a minority; heal with at least 25% of the run left.
            size = rng.randint(1, max(1, system.n // 2))
            group = tuple(sorted(rng.sample(range(system.n), size)))
            start = rng.uniform(0.0, duration * 0.4)
            end = rng.uniform(start + 0.5, duration * 0.75)
            phases.append(FaultPhase(
                "partition", round(start, 3), round(end - start, 3),
                params=(("group", group),),
            ))
        elif kind in ("crash", "withhold", "equivocate"):
            if not budget:
                continue  # fault budget spent: skip this phase
            count = rng.randint(1, len(budget))
            chosen = tuple(budget[:count])
            del budget[:count]
            if kind == "crash":
                at = rng.choice([0.0, round(rng.uniform(0.5, duration * 0.5), 3)])
                phases.append(FaultPhase(
                    "crash", at, 0.0, params=(("victims", chosen),)
                ))
            elif kind == "withhold":
                phases.append(FaultPhase(
                    "withhold", 0.0, 0.0,
                    params=(("replicas", chosen),
                            ("mode", rng.choice(["ignore", "garbage"]))),
                ))
            else:
                phases.append(FaultPhase(
                    "equivocate", 0.0, 0.0,
                    params=(("replicas", chosen), ("wave", rng.randint(1, 3))),
                ))
    schedule = FaultSchedule(tuple(phases))
    schedule.validate(system, protocol_name)
    return schedule
