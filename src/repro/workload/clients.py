"""Client populations: the end-to-end traffic plane.

The saturating :class:`~repro.workload.txgen.Mempool` measures the
*consensus* path — transactions are numbers, nobody waits for an answer.
This module adds the missing half of the paper's systems story: **clients
that submit real commands and observe real responses**, so a run reports
client-side (end-to-end) TPS and latency next to the consensus-side
numbers, the way the lightDAG benchmark harness prints its summary.

Three pieces compose a workload:

* **Arrival processes** — when do submissions happen?  Homogeneous
  Poisson (:class:`PoissonArrivals`), a two-state on/off burst process
  (:class:`BurstyArrivals`), and a sinusoidal diurnal ramp
  (:class:`DiurnalArrivals`); the time-varying ones sample by Lewis—
  Shedler thinning, so each is an exact nonhomogeneous Poisson process.
* **Operation mix** — what is submitted?  A Zipf-skewed key popularity
  distribution (:class:`ZipfKeys`, YCSB-style skew) over a SET/GET/DEL/CAS
  verb mix against the :class:`~repro.smr.kv.KvStateMachine` grammar.
* **Populations** — who submits?  :class:`ClientPopulation` drives a
  :class:`~repro.smr.replica.SmrCluster` either **open loop** (arrivals
  fire regardless of responses — offered rate is the independent
  variable, the saturation sweeps' x-axis) or **closed loop** (each
  client keeps at most ``outstanding`` commands in flight and thinks
  between operations — the "N users" model; offered rate emerges from
  the response rate).

Every command is tracked from submission to the waiter callback the SMR
replica fires at commit, yielding exact end-to-end latency samples
(p50/p99/p999) and completion throughput.  Each client stamps every
command with its session floor — the lowest nonce it still has in flight
or queued for retry — which is what lets the replicas forget settled
commands (:mod:`repro.smr.replica`).  An open-loop op that is rejected or
shed is settled at once, and one left unanswered for :data:`GIVE_UP_S` is
given up; a closed-loop one stays unsettled until its retry completes.
Closed-loop clients with one outstanding command additionally *verify*
read-your-writes against a local model of their (private) keyspace — the
regression that catches an untagged GET confusing a stored ``"NIL"`` with
a missing key.

Everything is deterministic: one seeded :class:`random.Random` drives the
whole population, and all timing flows through the simulator's
``call_at`` hook, so a (seed, spec) pair replays bit-identically.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..analysis.stats import percentile
from ..errors import ConfigError
from ..smr.machine import Command

if TYPE_CHECKING:  # smr.replica imports workload.admission: no cycle at run time
    from ..smr.replica import SmrReplica

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "make_arrivals",
    "ZipfKeys",
    "OpMix",
    "WorkloadSpec",
    "ClientStats",
    "ClientPopulation",
]


#: How long an open-loop client waits for an answer before it gives the
#: op up and settles it.  Consensus can leave a command unanswered for
#: good: the DAG orders only blocks in a committed leader's causal history,
#: and a block no later round references is never ordered.  Without a
#: horizon one such op pins its client's floor, and every replica's window
#: for that client grows with the rest of the run.  Over twice the slowest
#: answer of the overloaded 1750 tx/s rung of the pinned loadtest (1.7 s).
GIVE_UP_S = 4.0


# --------------------------------------------------------------- arrivals


class ArrivalProcess:
    """Inter-arrival sampler: ``next_gap(rng, now)`` seconds to the next
    submission.  Implementations must depend only on ``rng`` and ``now``
    (deterministic replay)."""

    def next_gap(self, rng: random.Random, now: float) -> float:
        raise NotImplementedError

    def rate_at(self, now: float) -> float:
        """Instantaneous offered rate (tx/s) — for reports."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process at ``rate`` tx/s."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ConfigError("arrival rate must be positive")
        self.rate = rate

    def next_gap(self, rng: random.Random, now: float) -> float:
        return rng.expovariate(self.rate)

    def rate_at(self, now: float) -> float:
        return self.rate


class _ThinnedArrivals(ArrivalProcess):
    """Nonhomogeneous Poisson via Lewis–Shedler thinning: sample candidate
    points at the peak rate, accept each with probability
    ``rate(t)/peak``.  Exact for any bounded rate function."""

    peak: float

    def next_gap(self, rng: random.Random, now: float) -> float:
        t = now
        while True:
            t += rng.expovariate(self.peak)
            if rng.random() * self.peak <= self.rate_at(t):
                return t - now


class BurstyArrivals(_ThinnedArrivals):
    """On/off (interrupted Poisson) bursts with a fixed duty cycle.

    The *mean* rate equals ``rate``; during the on-phase (fraction
    ``duty`` of each ``period``) traffic arrives at ``rate / duty``,
    during the off-phase not at all.  ``duty=1`` degenerates to Poisson.
    """

    def __init__(self, rate: float, period: float = 2.0, duty: float = 0.25) -> None:
        if rate <= 0:
            raise ConfigError("arrival rate must be positive")
        if not 0 < duty <= 1:
            raise ConfigError("duty must be in (0, 1]")
        if period <= 0:
            raise ConfigError("period must be positive")
        self.rate = rate
        self.period = period
        self.duty = duty
        self.peak = rate / duty

    def rate_at(self, now: float) -> float:
        phase = math.fmod(now, self.period)
        return self.peak if phase < self.duty * self.period else 0.0


class DiurnalArrivals(_ThinnedArrivals):
    """Sinusoidal ramp: ``rate(t) = rate * (1 + amplitude*sin(2πt/period))``.

    ``amplitude`` in [0, 1); the mean over a full period is ``rate``.
    A long-period ramp models the day/night swing; a short one a load
    oscillation crossing the capacity knee twice a cycle.
    """

    def __init__(self, rate: float, period: float = 20.0, amplitude: float = 0.8) -> None:
        if rate <= 0:
            raise ConfigError("arrival rate must be positive")
        if not 0 <= amplitude < 1:
            raise ConfigError("amplitude must be in [0, 1)")
        if period <= 0:
            raise ConfigError("period must be positive")
        self.rate = rate
        self.period = period
        self.amplitude = amplitude
        self.peak = rate * (1 + amplitude)

    def rate_at(self, now: float) -> float:
        return self.rate * (1 + self.amplitude * math.sin(2 * math.pi * now / self.period))


#: Arrival-process names accepted by :func:`make_arrivals` and the CLI.
ARRIVAL_KINDS = ("poisson", "bursty", "diurnal")


def make_arrivals(kind: str, rate: float, **kwargs) -> ArrivalProcess:
    """Arrival process by name: ``poisson``, ``bursty``, or ``diurnal``."""
    if kind == "poisson":
        return PoissonArrivals(rate)
    if kind == "bursty":
        return BurstyArrivals(rate, **kwargs)
    if kind == "diurnal":
        return DiurnalArrivals(rate, **kwargs)
    raise ConfigError(
        f"unknown arrival process {kind!r}; choose from {ARRIVAL_KINDS}"
    )


# --------------------------------------------------------------- key skew


class ZipfKeys:
    """Zipf-distributed key indices over ``[0, n_keys)``.

    ``P(k) ∝ 1 / (k+1)^skew`` — the YCSB-style popularity model: a few
    hot keys absorb most traffic, the tail is long.  ``skew=0`` is
    uniform.  Sampling is an O(log n) bisect over the precomputed CDF.
    """

    def __init__(self, n_keys: int, skew: float = 0.99) -> None:
        if n_keys < 1:
            raise ConfigError("n_keys must be positive")
        if skew < 0:
            raise ConfigError("skew cannot be negative")
        cdf: List[float] = []
        total = 0.0
        for k in range(n_keys):
            total += 1.0 / (k + 1) ** skew
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def sample(self, rng: random.Random) -> int:
        return bisect_left(self._cdf, rng.random() * self._total)


# --------------------------------------------------------------- op mix


class OpMix:
    """SET/GET/DEL/CAS mix over a Zipf keyspace.

    ``weights`` are relative frequencies for (SET, GET, DEL, CAS).
    ``private`` scopes keys to the issuing client (``c<id>.k<idx>``),
    making sequential read-your-writes verification sound; shared mode
    (``k<idx>``) exercises cross-client contention instead.
    """

    VERBS = ("SET", "GET", "DEL", "CAS")

    def __init__(
        self,
        keys: ZipfKeys,
        weights: Tuple[float, float, float, float] = (45.0, 45.0, 5.0, 5.0),
        value_size: int = 16,
        private: bool = True,
    ) -> None:
        if len(weights) != 4 or any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigError("weights must be 4 non-negative numbers, sum > 0")
        self.keys = keys
        self.weights = tuple(float(w) for w in weights)
        self.value_size = max(1, value_size)
        self.private = private
        cum: List[float] = []
        total = 0.0
        for w in self.weights:
            total += w
            cum.append(total)
        self._cum = cum
        self._total = total

    def key_for(self, client_id: int, rng: random.Random) -> str:
        idx = self.keys.sample(rng)
        return f"c{client_id}.k{idx}" if self.private else f"k{idx}"

    def next_verb(self, rng: random.Random) -> str:
        return self.VERBS[bisect_left(self._cum, rng.random() * self._total)]

    def value(self, rng: random.Random) -> str:
        return f"v{rng.getrandbits(32):08x}".ljust(self.value_size, "x")[: self.value_size]


# --------------------------------------------------------------- spec


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything a client population needs, picklable for sweep workers.

    ``rate`` is the *aggregate* offered load in tx/s (open loop); closed
    loop ignores it (throughput emerges from ``clients``/``outstanding``/
    ``think_s``).
    """

    clients: int = 100
    mode: str = "open"                 # "open" | "closed"
    rate: float = 500.0                # aggregate offered tx/s (open loop)
    arrival: str = "poisson"           # poisson | bursty | diurnal
    arrival_period: float = 2.0        # bursty/diurnal period (s)
    arrival_duty: float = 0.25         # bursty duty cycle
    arrival_amplitude: float = 0.8     # diurnal swing
    think_s: float = 0.0               # closed-loop think time
    outstanding: int = 1               # closed-loop in-flight per client
    keys: int = 1000
    zipf: float = 0.99
    value_size: int = 16
    mix: Tuple[float, float, float, float] = (45.0, 45.0, 5.0, 5.0)
    shared_keys: bool = False
    retry_backoff_s: float = 0.05      # closed-loop reject/shed retry wait
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigError("need at least one client")
        if self.mode not in ("open", "closed"):
            raise ConfigError(f"mode must be 'open' or 'closed', got {self.mode!r}")
        if self.mode == "open" and self.rate <= 0:
            raise ConfigError("open-loop rate must be positive")
        if self.outstanding < 1:
            raise ConfigError("outstanding must be >= 1")
        if self.think_s < 0 or self.retry_backoff_s < 0:
            raise ConfigError("think/backoff times cannot be negative")
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigError(
                f"unknown arrival process {self.arrival!r}; "
                f"choose from {ARRIVAL_KINDS}"
            )

    def arrivals(self) -> ArrivalProcess:
        if self.arrival == "bursty":
            return BurstyArrivals(
                self.rate, period=self.arrival_period, duty=self.arrival_duty
            )
        if self.arrival == "diurnal":
            return DiurnalArrivals(
                self.rate,
                period=self.arrival_period,
                amplitude=self.arrival_amplitude,
            )
        return PoissonArrivals(self.rate)


# --------------------------------------------------------------- stats


@dataclass
class ClientStats:
    """Client-observed outcomes of one run.

    ``latencies`` holds the end-to-end (submit → committed result) delay
    of every operation completing inside the measurement window, as
    unboxed doubles; the aggregate getters are exact over those samples.
    """

    warmup: float = 0.0
    measure_until: float = math.inf
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    shed: int = 0
    retries: int = 0
    verified: int = 0
    verify_failures: int = 0
    measured_completed: int = 0
    latencies: array = field(default_factory=lambda: array("d"))

    def record_submit(self) -> None:
        self.submitted += 1

    def record_completion(self, submit_time: float, result_time: float) -> None:
        self.completed += 1
        if self.warmup <= result_time <= self.measure_until:
            self.measured_completed += 1
            self.latencies.append(result_time - submit_time)

    def e2e_tps(self) -> float:
        window = self.measure_until - self.warmup
        if not math.isfinite(window) or window <= 0:
            return 0.0
        return self.measured_completed / window

    def mean_latency(self) -> float:
        if not self.latencies:
            return math.nan
        return sum(self.latencies) / len(self.latencies)

    def quantile(self, q: float) -> float:
        return percentile(sorted(self.latencies), q)

    def summary(self) -> Dict[str, float]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "retries": self.retries,
            "verified": self.verified,
            "verify_failures": self.verify_failures,
            "e2e_tps": self.e2e_tps(),
            "e2e_mean_s": self.mean_latency(),
            "e2e_p50_s": self.quantile(0.50),
            "e2e_p99_s": self.quantile(0.99),
            "e2e_p999_s": self.quantile(0.999),
        }


# --------------------------------------------------------------- population


class _ClientState:
    """Mutable per-client bookkeeping (session window, closed loop,
    verification)."""

    __slots__ = ("client_id", "name", "replica", "nonce", "expected", "inflight",
                 "unsettled")

    def __init__(self, client_id: int, replica: SmrReplica) -> None:
        self.client_id = client_id
        self.name = f"client-{client_id}"
        self.replica = replica
        self.nonce = 0
        #: local model of the private keyspace: key -> expected value
        self.expected: Dict[str, str] = {}
        self.inflight = 0
        #: nonce -> submit time of every op in flight or queued for retry,
        #: in nonce order (dict insertion order): the first key is the floor.
        #: Settling pops a nonce; one already given up is absent.
        self.unsettled: Dict[int, float] = {}

    def give_up_before(self, horizon: float) -> int:
        """Settle every op submitted before ``horizon``; returns the new
        floor.  Only called while some op was submitted at or after it."""
        unsettled = self.unsettled
        while True:
            oldest = next(iter(unsettled))
            if unsettled[oldest] >= horizon:
                return oldest
            del unsettled[oldest]


class _Op:
    """One tracked operation: payload plus what the client expects back."""

    __slots__ = ("command", "submit_time", "verb", "key", "value", "expect")

    def __init__(self, command: Command, submit_time: float, verb: str,
                 key: str, value: Optional[str], expect: Optional[bytes]) -> None:
        self.command = command
        self.submit_time = submit_time
        self.verb = verb
        self.key = key
        self.value = value
        self.expect = expect


class ClientPopulation:
    """Drives an :class:`~repro.smr.replica.SmrCluster` with ``spec``.

    Call :meth:`install` before ``cluster.run``: it seeds the simulator
    with the first client events via ``sim.call_at``; everything after
    that self-schedules.  ``stats`` accumulates as the simulation runs.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        cluster,
        duration: float,
        warmup: float = 0.0,
    ) -> None:
        self.spec = spec
        self.cluster = cluster
        self.duration = duration
        self.rng = random.Random(spec.seed)
        self.stats = ClientStats(warmup=warmup, measure_until=duration)
        n = len(cluster.replicas)
        self.clients = [
            _ClientState(c, cluster.replicas[c % n]) for c in range(spec.clients)
        ]
        # Sequential (outstanding=1) closed-loop clients over private keys
        # can check every answer against their own model.
        self.verify = (
            spec.mode == "closed" and spec.outstanding == 1 and not spec.shared_keys
        )
        self.mix = OpMix(
            ZipfKeys(spec.keys, spec.zipf),
            weights=spec.mix,
            value_size=spec.value_size,
            private=not spec.shared_keys,
        )
        self._arrivals = spec.arrivals() if spec.mode == "open" else None
        # A closed-loop client retries until it has its answer.
        self._give_up_s = GIVE_UP_S if spec.mode == "open" else math.inf
        #: ops admitted by a replica and not answered yet
        self._awaiting: Set[_Op] = set()

    # -- wiring ------------------------------------------------------------------

    def install(self) -> None:
        sim = self.cluster.sim
        if self.spec.mode == "open":
            gap = self._arrivals.next_gap(self.rng, sim.now)
            sim.call_at(sim.now + gap, self._on_arrival)
        else:
            for client in self.clients:
                for _ in range(self.spec.outstanding):
                    # Staggered starts avoid a synchronized thundering herd
                    # at t=0 (and keep the schedule seed-deterministic).
                    start = sim.now + self.rng.uniform(0.0, 0.05)
                    sim.call_at(start, self._starter(client))

    def _starter(self, client: _ClientState):
        def fire(sim) -> None:
            self._submit(client, sim)

        return fire

    def awaiting_at(self, end: float) -> Tuple[int, int]:
        """``(unanswered, in_flight)`` at time ``end``: the admitted ops
        with no answer, split by whether they were first submitted at
        least :data:`GIVE_UP_S` before ``end`` (unanswered) or later (still
        in flight).  In open loop every submitted op is completed,
        rejected, shed or one of these two."""
        horizon = end - GIVE_UP_S
        unanswered = sum(1 for op in self._awaiting if op.submit_time <= horizon)
        return unanswered, len(self._awaiting) - unanswered

    # -- open loop ---------------------------------------------------------------

    def _on_arrival(self, sim) -> None:
        if sim.now >= self.duration:
            return
        client = self.clients[self.rng.randrange(len(self.clients))]
        self._submit(client, sim, retry_on_pushback=False)
        gap = self._arrivals.next_gap(self.rng, sim.now)
        sim.call_at(sim.now + gap, self._on_arrival)

    # -- op construction ---------------------------------------------------------

    def _build_op(self, client: _ClientState, now: float) -> _Op:
        mix = self.mix
        verb = mix.next_verb(self.rng)
        key = mix.key_for(client.client_id, self.rng)
        value: Optional[str] = None
        expect: Optional[bytes] = None
        current = client.expected.get(key)
        if verb == "SET":
            value = mix.value(self.rng)
            payload = f"SET {key} {value}"
            expect = b"OK"
        elif verb == "GET":
            payload = f"GET {key}"
            expect = b"NIL" if current is None else b"VAL " + current.encode()
        elif verb == "DEL":
            payload = f"DEL {key}"
            expect = b"NIL" if current is None else b"OK"
        else:  # CAS
            expected_str = current if current is not None else "absent"
            value = mix.value(self.rng)
            payload = f"CAS {key} {expected_str} {value}"
            expect = b"FAIL" if current is None else b"OK"
        client.nonce += 1
        nonce = client.nonce
        unsettled = client.unsettled
        unsettled[nonce] = now
        floor = next(iter(unsettled))
        if unsettled[floor] < now - self._give_up_s:
            floor = client.give_up_before(now - self._give_up_s)
        command = Command.create(
            client=client.name, payload=payload.encode(), nonce=nonce, floor=floor
        )
        return _Op(command, now, verb, key, value, expect)

    def _apply_model(self, client: _ClientState, op: _Op, result: bytes) -> None:
        """Advance the client's local keyspace model after a completion."""
        if op.verb == "SET":
            client.expected[op.key] = op.value
        elif op.verb == "DEL":
            client.expected.pop(op.key, None)
        elif op.verb == "CAS" and result == b"OK":
            client.expected[op.key] = op.value

    # -- submission & completion -------------------------------------------------

    def _submit(
        self,
        client: _ClientState,
        sim,
        op: Optional[_Op] = None,
        retry_on_pushback: bool = True,
    ) -> None:
        now = sim.now
        if now >= self.duration:
            return
        if op is None:
            op = self._build_op(client, now)
            self.stats.record_submit()
        else:
            self.stats.retries += 1

        def waiter(command, result, commit_time) -> None:
            self._on_done(client, op, result, commit_time, sim)

        admitted = client.replica.submit_command(op.command, now=now, waiter=waiter)
        if admitted:
            client.inflight += 1
            self._awaiting.add(op)
            return
        self.stats.rejected += 1
        if retry_on_pushback:
            # Closed loop must not deadlock on pushback: retry the same
            # command (same id — the exactly-once path) after a backoff.
            backoff = self.spec.retry_backoff_s * (0.5 + self.rng.random())
            sim.call_at(now + backoff, lambda s: self._submit(client, s, op=op))
        else:
            client.unsettled.pop(op.command.nonce, None)

    def _on_done(self, client: _ClientState, op: _Op, result, commit_time, sim) -> None:
        client.inflight -= 1
        self._awaiting.discard(op)
        if result is None:
            # Shed by admission control before ordering.
            self.stats.shed += 1
            if self.spec.mode == "closed":
                backoff = self.spec.retry_backoff_s * (0.5 + self.rng.random())
                target = max(sim.now, op.submit_time) + backoff
                if target < self.duration:
                    sim.call_at(target, lambda s: self._submit(client, s, op=op))
            else:
                client.unsettled.pop(op.command.nonce, None)
            return
        client.unsettled.pop(op.command.nonce, None)
        when = commit_time if commit_time is not None else sim.now
        self.stats.record_completion(op.submit_time, when)
        if self.verify:
            self.stats.verified += 1
            if op.expect is not None and result != op.expect:
                self.stats.verify_failures += 1
        self._apply_model(client, op, result)
        if self.spec.mode == "closed":
            next_at = when + self.spec.think_s
            if next_at < self.duration and client.inflight < self.spec.outstanding:
                sim.call_at(max(next_at, sim.now), self._starter(client))
