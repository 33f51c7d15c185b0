"""Seed-deterministic fault-schedule fuzzing with greedy shrinking.

One fuzz *case* = (protocol, seed, n, duration, schedule, gc_depth).  The
schedule is generated deterministically from the seed and system shape
(:func:`repro.adversary.schedule.random_schedule`), the run executes with
every oracle enabled (``check_level="full"``), and any
:class:`~repro.errors.ReproError` the oracles or engine raise is a
failure.  Failures are shrunk greedily — drop phases, reduce n, halve
durations — and reported as a command line that reproduces them exactly.

Exposed on the CLI as ``python -m repro fuzz``; importable for tests.
This module imports the harness (which imports ``repro.check`` for the
oracle wiring), so it intentionally stays out of ``repro.check.__init__``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..adversary.schedule import FaultPhase, FaultSchedule, random_schedule
from ..config import ExperimentConfig, ProtocolConfig, SystemConfig
from ..errors import ConfigError, ReproError
from ..harness.parallel import NOT_RUN, parallel_map
from ..harness.runner import PROTOCOL_REGISTRY, run_experiment

#: gc_depth used on the seeds that exercise the pruning paths.
FUZZ_GC_DEPTH = 12

#: Every third seed runs with GC on — the pruning/bookkeeping interactions
#: are exactly where long-run state bugs hide.
GC_SEED_MODULUS = 3


@dataclass(frozen=True)
class FuzzCase:
    """Everything needed to reproduce one fuzz run exactly."""

    protocol: str
    seed: int
    n: int
    duration: float
    schedule: str
    gc_depth: Optional[int] = None

    def command(self) -> str:
        """The CLI invocation that replays this exact case (``repr`` of
        the duration, so the replay runs the same horizon to the bit)."""
        parts = [
            "python -m repro fuzz",
            f"--protocol {self.protocol}",
            f"--seed-start {self.seed}",
            f"-n {self.n}",
            f"--duration {self.duration!r}",
            f"--schedule '{self.schedule}'",
        ]
        if self.gc_depth is not None:
            parts.append(f"--gc-depth {self.gc_depth}")
        return " ".join(parts)


@dataclass
class FuzzFailure:
    """One failing case, with its shrunk form when shrinking ran."""

    case: FuzzCase
    error: str
    shrunk: Optional[FuzzCase] = None
    shrunk_error: Optional[str] = None
    shrink_attempts: int = 0
    #: Health-watchdog verdict from replaying :meth:`minimal` with the
    #: liveness monitor attached (see :func:`probe_health`).
    health: Optional[Dict[str, object]] = None

    def minimal(self) -> FuzzCase:
        return self.shrunk if self.shrunk is not None else self.case


@dataclass
class FuzzReport:
    """Outcome of a fuzz sweep."""

    runs: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    elapsed: float = 0.0
    timed_out: bool = False
    runs_by_protocol: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


# ------------------------------------------------------------------ one case


def build_config(case: FuzzCase) -> ExperimentConfig:
    """The experiment configuration behind a fuzz case.

    Small batches and no CPU model keep a 4-replica, ~6-second case around
    a second of wall clock; warmup is irrelevant (nothing reads the
    throughput numbers) but must stay below the duration.
    """
    return ExperimentConfig(
        system=SystemConfig(n=case.n, crypto="hmac", seed=case.seed),
        protocol=ProtocolConfig(batch_size=8, gc_depth=case.gc_depth),
        protocol_name=case.protocol,
        adversary_name=f"schedule:{case.schedule}",
        duration=case.duration,
        warmup=min(1.0, case.duration * 0.25),
        cpu_fixed_us=0.0,
        cpu_per_byte_ns=0.0,
        seed=case.seed,
        check_level="full",
    )


def run_case(
    case: FuzzCase, registry: Optional[Dict] = None, obs=None
) -> Optional[str]:
    """Execute one case under full oracles.

    Returns ``None`` on success or the failure description.  A
    :class:`~repro.errors.ConfigError` (invalid case, e.g. a shrink
    candidate whose schedule no longer fits the replica set) propagates —
    it is not a protocol failure.
    """
    cfg = build_config(case)
    try:
        run_experiment(cfg, obs=obs, registry=registry)
    except ConfigError:
        raise
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def probe_health(
    case: FuzzCase, registry: Optional[Dict] = None
) -> Dict[str, object]:
    """Replay a case with the liveness watchdog listening on the journal.

    The watchdog is installed as a journal *listener*, so it keeps its
    state even when the run dies on an oracle violation mid-flight — the
    verdict (``stalled`` / ``degraded`` / ``no-progress``) tells the
    investigator how the schedule was hurting *before* the oracle fired.
    Memory stays flat: a one-slot :class:`~repro.obs.journal.
    BoundedJournal` records counts only, and the monitor consumes events
    as they stream past.
    """
    from ..obs import BoundedJournal, HealthMonitor, Observability

    cfg = build_config(case)
    journal = BoundedJournal(max_events=1)
    watchdog = HealthMonitor(case.n)
    watchdog.install(journal)
    obs = Observability(journal=journal)
    try:
        run_experiment(cfg, obs=obs, registry=registry)
    except ReproError:
        pass  # the failure itself was already recorded; we want the vitals
    return watchdog.summary()


# ------------------------------------------------------------------ shrinking


def _scale_phase(phase: FaultPhase, factor: float) -> FaultPhase:
    return FaultPhase(
        kind=phase.kind,
        start=round(phase.start * factor, 3),
        duration=round(phase.duration * factor, 3),
        params=phase.params,
    )


def shrink(
    case: FuzzCase,
    registry: Optional[Dict] = None,
    max_attempts: int = 32,
    budget_s: float = 60.0,
    runner: Optional[Callable[..., Optional[str]]] = None,
) -> tuple:
    """Greedy minimization: returns ``(smaller_failing_case, attempts)``.

    Three moves, retried to a fixed point or budget exhaustion: drop one
    phase, reduce the replica count, halve the run (scaling the schedule
    with it).  Any failure counts — the shrinker minimizes "a schedule this
    protocol fails under", not one exact exception string.

    Candidates are memoized by the case itself (:class:`FuzzCase` is
    frozen, so equal cases hash alike): the move set can regenerate a
    candidate verbatim after an unrelated move lands — e.g. the n=4
    reduction rejected at n=6 reappears identically once n=6→5 succeeds —
    and replaying a known verdict would burn a full simulation run from
    both the attempt counter and the wall-clock budget.

    ``runner`` replaces :func:`run_case` (tests inject a recording stub).
    """
    run = run_case if runner is None else runner
    deadline = time.monotonic() + budget_s
    attempts = 0
    current = case
    # The input case is a known failure — seed the memo so no move that
    # happens to regenerate it re-runs it.
    verdicts: Dict[FuzzCase, bool] = {case: True}

    def still_fails(candidate: FuzzCase) -> bool:
        nonlocal attempts
        known = verdicts.get(candidate)
        if known is not None:
            return known
        if attempts >= max_attempts or time.monotonic() >= deadline:
            return False
        attempts += 1
        try:
            failed = run(candidate, registry=registry) is not None
        except ConfigError:
            # candidate invalid (e.g. schedule outgrew new n)
            failed = False
        verdicts[candidate] = failed
        return failed

    improved = True
    while improved and attempts < max_attempts and time.monotonic() < deadline:
        improved = False
        schedule = FaultSchedule.from_spec(current.schedule)
        for i in range(len(schedule.phases)):
            trimmed = FaultSchedule(
                schedule.phases[:i] + schedule.phases[i + 1:]
            )
            candidate = replace(current, schedule=trimmed.to_spec())
            if still_fails(candidate):
                current, improved = candidate, True
                break
        if improved:
            continue
        for smaller in sorted({4, (current.n + 4) // 2}):
            if smaller >= current.n:
                continue
            candidate = replace(current, n=smaller)
            if still_fails(candidate):
                current, improved = candidate, True
                break
        if improved:
            continue
        if current.duration > 3.0:
            scaled = FaultSchedule(
                tuple(_scale_phase(p, 0.5) for p in schedule.phases)
            )
            candidate = replace(
                current,
                duration=round(max(2.0, current.duration * 0.5), 3),
                schedule=scaled.to_spec(),
            )
            if still_fails(candidate):
                current, improved = candidate, True
    return current, attempts


# ------------------------------------------------------------------ sweeping


def make_case(
    protocol: str, seed: int, n: int = 4, duration: float = 6.0
) -> FuzzCase:
    """The deterministic case for one (protocol, seed) cell."""
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    schedule = random_schedule(seed, system, protocol, duration)
    gc_depth = FUZZ_GC_DEPTH if seed % GC_SEED_MODULUS == 0 else None
    return FuzzCase(
        protocol=protocol,
        seed=seed,
        n=n,
        duration=duration,
        schedule=schedule.to_spec(),
        gc_depth=gc_depth,
    )


def _fuzz_worker(case: FuzzCase, registry: Optional[Dict]):
    """Shared-nothing fuzz unit: case in, verdict out (never raises).

    ``ConfigError`` means the *case generator* produced an invalid case —
    a harness bug, not a protocol failure — so it is tagged separately and
    re-raised in the parent rather than recorded as a finding.
    """
    try:
        return "fail", run_case(case, registry=registry)
    except ConfigError as exc:
        return "config_error", str(exc)


def fuzz(
    protocols: Optional[Sequence[str]] = None,
    seeds: Iterable[int] = range(10),
    n: int = 4,
    duration: float = 6.0,
    time_box: Optional[float] = None,
    registry: Optional[Dict] = None,
    shrink_failures: bool = True,
    shrink_budget_s: float = 60.0,
    log: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> FuzzReport:
    """Sweep seeds × protocols under generated schedules with full oracles.

    ``jobs`` fans the (seed, protocol) grid out over the parallel harness
    (``repro.harness.parallel``); every case is seed-deterministic, so the
    set of failures is identical at any job count.  Shrinking always runs
    serially in the parent — it is a sequential fixed-point search over
    one failing case, and failures are rare enough that parallelizing the
    sweep is where the wall-clock lives.

    ``time_box`` bounds wall-clock seconds for the *sweep* (shrinking has
    its own ``shrink_budget_s`` per failure); on expiry the report covers
    the completed runs and ``timed_out`` is set so CI jobs degrade
    gracefully instead of being killed.
    """
    if protocols is None:
        protocols = sorted(PROTOCOL_REGISTRY)
    started = time.monotonic()
    report = FuzzReport()
    cases = [
        make_case(protocol, seed, n=n, duration=duration)
        for seed in seeds
        for protocol in protocols
    ]
    verdicts, timed_out = parallel_map(
        _fuzz_worker, cases, jobs, registry=registry, time_box=time_box
    )
    report.timed_out = timed_out
    for case, verdict in zip(cases, verdicts):
        if verdict is NOT_RUN:
            continue
        kind, error = verdict
        if kind == "config_error":
            raise ConfigError(error)
        report.runs += 1
        report.runs_by_protocol[case.protocol] = (
            report.runs_by_protocol.get(case.protocol, 0) + 1
        )
        if error is None:
            continue
        failure = FuzzFailure(case=case, error=error)
        if log is not None:
            log(f"FAIL {case.protocol} seed={case.seed}: {error}")
        if shrink_failures:
            shrunk, attempts = shrink(
                case, registry=registry, budget_s=shrink_budget_s
            )
            failure.shrink_attempts = attempts
            if shrunk != case:
                failure.shrunk = shrunk
                failure.shrunk_error = run_case(shrunk, registry=registry)
            if log is not None:
                log(
                    f"  shrunk after {attempts} attempts to: "
                    f"{failure.minimal().command()}"
                )
        failure.health = probe_health(failure.minimal(), registry=registry)
        if log is not None:
            log(f"  health verdict: {failure.health['verdict']}")
        report.failures.append(failure)
    report.elapsed = time.monotonic() - started
    return report
