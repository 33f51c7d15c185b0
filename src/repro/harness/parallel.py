"""Parallel sweep execution: a process-pool harness over ``run_experiment``.

Every evaluation figure (Figs. 12–15), the §VI-B headline comparison, and
the ``repro fuzz`` oracle sweep are dozens-to-hundreds of *independent*
simulated runs; a single CPython process leaves every other core idle.
This module fans a list of :class:`~repro.config.ExperimentConfig`\\ s out
over a pool of **shared-nothing workers**: a config goes in (pickled), an
:class:`~repro.harness.runner.ExperimentResult` comes back, and nothing
else crosses the process boundary.  The generic layer
(:func:`parallel_map`) also backs ``repro explore --jobs``: the explorer
ships choice-prefix subtrees (and hunt-grid cells) to workers the same
shared-nothing way, which is why its sharded state counts are identical
at any job count.

Guarantees:

* **Deterministic ordering** — results come back in input order, whatever
  the completion order was.
* **Seed-for-seed equivalence** — a worker executes the very same
  ``run_experiment(cfg)`` call the serial path would, so ``jobs=N`` output
  is bit-identical to ``jobs=1`` for the same configs
  (``tests/harness/test_parallel.py`` pins this).
* **Failure isolation** — a run that raises is captured as a
  :class:`RunFailure` (traceback + a replay command line) without killing
  the sweep; if a worker *process* dies outright (OOM, segfault), the
  unfinished configs are re-run serially in the parent so no result is
  lost.
* **Live progress** — pass an :class:`~repro.obs.Observability` and each
  completed run is journalled (``sweep.run``) and counted
  (``sweep.runs_completed`` / ``sweep.runs_failed``); a plain callback
  hook serves CLI progress lines.
* **Aggregated telemetry** — ``collect_obs=True`` instruments every run
  inside its worker and merges the per-run metric state and journal
  counts back into the parent's registry/journal
  (:meth:`~repro.obs.MetricsRegistry.merge_state`), so ``--jobs N``
  sweeps report the same aggregate telemetry a serial instrumented loop
  would instead of dropping it.

``jobs=1`` bypasses multiprocessing entirely (same process, same thread),
which keeps ``pdb``, coverage tooling, and full per-run obs
instrumentation (live journals, tracing) working; across the pool
boundary only the compact snapshots travel.

The pool uses the ``fork`` start method when the platform offers it: forked
workers inherit the parent's module state, which lets a *registry* of
protocol-class overrides (e.g. the fuzzer's mutants, or dynamically built
subclasses) reach workers without being picklable.  Where only ``spawn``
exists the registry must be picklable (module-level classes).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..config import ExperimentConfig
from ..errors import SweepError
from ..obs import NULL_OBS, BoundedJournal, MetricsRegistry, Observability
from .runner import ExperimentResult, run_experiment

#: Sentinel for items a time-boxed map never ran (distinct from ``None``).
NOT_RUN = object()


def default_jobs() -> int:
    """CPUs available to this process (the ``--jobs`` default).

    Prefers :func:`os.process_cpu_count` (Python 3.13+, respects CPU
    affinity) and falls back to :func:`os.cpu_count`.
    """
    counter = getattr(os, "process_cpu_count", None)
    count = counter() if counter is not None else os.cpu_count()
    return count or 1


def _pool_context():
    """The multiprocessing context the sweep pool uses (fork-preferred)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# One registry per worker process.  Under ``fork`` it is inherited from the
# parent (set just before the pool is created); under ``spawn`` it arrives
# through the pool initializer (and must therefore be picklable).
_WORKER_REGISTRY: Optional[Dict] = None


def _init_worker(registry: Optional[Dict]) -> None:
    global _WORKER_REGISTRY
    _WORKER_REGISTRY = registry


def _call_worker(payload: Tuple[int, Callable, Any]) -> Tuple[int, Any]:
    """Pool trampoline: apply ``worker(item, registry)`` and tag the index.

    The worker contract is *never raise* — errors are data in the return
    value — so anything escaping here means the worker function itself is
    broken, and the traceback is worth propagating verbatim.
    """
    index, worker, item = payload
    return index, worker(item, _WORKER_REGISTRY)


def parallel_map(
    worker: Callable[[Any, Optional[Dict]], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    *,
    registry: Optional[Dict] = None,
    time_box: Optional[float] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> Tuple[List[Any], bool]:
    """Ordered ``[worker(item, registry) for item in items]`` over a pool.

    ``worker`` must be a module-level function (picklable by reference)
    that catches its own exceptions and returns a picklable value.
    ``jobs=None`` means :func:`default_jobs`; ``jobs=1`` runs in-process.
    ``time_box`` bounds wall-clock seconds; expired items are left as
    :data:`NOT_RUN` and the returned flag is True.  ``on_result`` fires in
    the parent as each result lands (completion order).

    A dead worker process (the pool's ``BrokenProcessPool``) does not lose
    work: every unfinished item is re-run serially in the parent.
    """
    items = list(items)
    total = len(items)
    results: List[Any] = [NOT_RUN] * total
    if total == 0:
        return results, False
    n_jobs = default_jobs() if jobs is None or jobs <= 0 else jobs
    n_jobs = min(n_jobs, total)
    deadline = None if time_box is None else time.monotonic() + time_box

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    if n_jobs <= 1:
        for i, item in enumerate(items):
            if expired():
                return results, True
            results[i] = worker(item, registry)
            if on_result is not None:
                on_result(i, results[i])
        return results, False

    global _WORKER_REGISTRY
    _WORKER_REGISTRY = registry  # inherited by forked workers
    timed_out = False
    try:
        executor = ProcessPoolExecutor(
            max_workers=n_jobs,
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(registry,),
        )
        try:
            pending = {
                executor.submit(_call_worker, (i, worker, item))
                for i, item in enumerate(items)
            }
            broken = None
            while pending:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    timed_out = True
                    break
                done, pending = wait(
                    pending, timeout=remaining, return_when=FIRST_COMPLETED
                )
                if not done:
                    timed_out = True
                    break
                for future in done:
                    try:
                        index, value = future.result()
                    except Exception as exc:  # worker process died
                        broken = exc
                        continue
                    results[index] = value
                    if on_result is not None:
                        on_result(index, value)
                if broken is not None:
                    break
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
    finally:
        _WORKER_REGISTRY = None

    if not timed_out:
        # Pool died mid-sweep (or results were lost with it): finish the
        # stragglers in-process so one bad run cannot eat its neighbours.
        for i, item in enumerate(items):
            if results[i] is NOT_RUN:
                if expired():
                    timed_out = True
                    break
                results[i] = worker(item, registry)
                if on_result is not None:
                    on_result(i, results[i])
    return results, timed_out


# --------------------------------------------------------------- sweep layer


@dataclass(frozen=True)
class RunFailure:
    """One failed run of a sweep, with everything needed to replay it."""

    index: int
    config: ExperimentConfig
    error_type: str
    error: str
    traceback: str

    def replay_command(self) -> str:
        """A CLI invocation reproducing this run exactly."""
        cfg = self.config
        parts = [
            "python -m repro run",
            f"--protocol {cfg.protocol_name}",
            f"-n {cfg.system.n}",
            f"--batch {cfg.protocol.batch_size}",
            f"--duration {cfg.duration!r}",
            f"--warmup {cfg.warmup!r}",
            f"--seed {cfg.seed}",
            f"--crypto {cfg.system.crypto}",
            f"--check-level {cfg.check_level}",
        ]
        if cfg.adversary_name != "none":
            parts.append(f"--adversary '{cfg.adversary_name}'")
        # The remaining `repro run` flags, where they differ from its defaults.
        if cfg.latency_model != "wan4":
            parts.append(f"--latency-model '{cfg.latency_model}'")
        if cfg.protocol.gc_depth is not None:
            parts.append(f"--gc-depth {cfg.protocol.gc_depth}")
        return " ".join(parts)

    def describe(self) -> str:
        return f"{self.error_type}: {self.error}\n  replay: {self.replay_command()}"


@dataclass
class SweepResult:
    """Outcome of :func:`run_sweep`: ordered results plus captured failures."""

    results: List[Optional[ExperimentResult]]
    failures: List[RunFailure] = field(default_factory=list)
    jobs: int = 1
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def require(self) -> List[ExperimentResult]:
        """All results, or :class:`~repro.errors.SweepError` if any failed."""
        if self.failures:
            summary = "; ".join(
                f"run {f.index} ({f.config.protocol_name}, n={f.config.system.n}, "
                f"seed={f.config.seed}): {f.error_type}: {f.error}"
                for f in self.failures[:3]
            )
            more = len(self.failures) - 3
            if more > 0:
                summary += f"; … and {more} more"
            raise SweepError(
                f"{len(self.failures)} of {len(self.results)} sweep runs "
                f"failed: {summary}",
                failures=self.failures,
            )
        return list(self.results)


def _experiment_worker(
    item: Tuple[Any, ...], registry: Optional[Dict]
) -> Tuple[Any, ...]:
    """Shared-nothing unit of sweep work: config in, result (or error) out.

    ``item`` is ``(config, check_level)`` or ``(config, check_level,
    collect_obs)``.  With ``collect_obs`` true the run is instrumented in
    the worker and a compact, picklable obs snapshot (full metric state +
    journal event counts) travels back as a third tuple element — the
    parent folds it into the sweep-level registry via
    :meth:`~repro.obs.MetricsRegistry.merge_state`, which is what makes
    ``--jobs N`` sweeps aggregate per-run telemetry instead of dropping
    it.
    """
    cfg, check_level = item[0], item[1]
    collect = bool(item[2]) if len(item) > 2 else False
    try:
        if not collect:
            return True, run_experiment(
                cfg, check_level=check_level, registry=registry
            )
        # A 1-slot ring still counts every event incrementally — per-run
        # journal *counts* cross the pool boundary, not the event bodies.
        run_obs = Observability(MetricsRegistry(), BoundedJournal(max_events=1))
        result = run_experiment(
            cfg, obs=run_obs, check_level=check_level, registry=registry
        )
        result.obs = None  # the snapshot below crosses the boundary instead
        snapshot = {
            "metrics": run_obs.metrics.dump_state(),
            "journal_counts": run_obs.journal.counts_by_type(),
            "journal_events": run_obs.journal.emitted_total,
        }
        return True, result, snapshot
    except Exception as exc:
        return False, (type(exc).__name__, str(exc), traceback.format_exc())


def run_sweep(
    configs: Sequence[ExperimentConfig],
    jobs: Optional[int] = None,
    *,
    check_level: Optional[str] = None,
    registry: Optional[Dict] = None,
    obs: Optional[Observability] = None,
    collect_obs: bool = False,
    progress: Optional[Callable[[int, int, ExperimentConfig, bool], None]] = None,
) -> SweepResult:
    """Run every config (``jobs`` at a time) and collect ordered results.

    ``check_level`` / ``registry`` are forwarded to every
    :func:`~repro.harness.runner.run_experiment` call.  ``obs`` instruments
    the *sweep* (progress journal + completion counters).  With
    ``collect_obs=True`` each worker additionally instruments its *run*
    and ships a metrics/journal snapshot back; the parent merges every
    run's metric state into ``obs.metrics`` (counters add, histograms
    fold bucket-wise — see :meth:`~repro.obs.MetricsRegistry.merge_state`)
    and journals one ``sweep.run_obs`` event per run with its journal
    event counts, so ``--jobs N`` aggregates the same telemetry a serial
    instrumented loop would.
    ``progress(done, total, config, ok)`` fires per completed run.

    Failures never kill the sweep: each is captured as a
    :class:`RunFailure` and the corresponding results slot stays ``None``.
    Call :meth:`SweepResult.require` to turn failures into a
    :class:`~repro.errors.SweepError`.
    """
    configs = list(configs)
    obs = obs if obs is not None else NULL_OBS
    n_jobs = default_jobs() if jobs is None or jobs <= 0 else jobs
    n_jobs = min(n_jobs, len(configs)) if configs else 1
    started = time.perf_counter()
    done_count = 0

    completed_c = obs.metrics.counter("sweep.runs_completed")
    failed_c = obs.metrics.counter("sweep.runs_failed")

    def note(index: int, outcome: Tuple[bool, Any]) -> None:
        nonlocal done_count
        done_count += 1
        ok = outcome[0]
        cfg = configs[index]
        if obs.enabled:
            (completed_c if ok else failed_c).inc()
            obs.journal.emit(
                time.perf_counter() - started, "sweep.run", -1,
                index=index, protocol=cfg.protocol_name, n=cfg.system.n,
                seed=cfg.seed, ok=ok, done=done_count, total=len(configs),
            )
        if progress is not None:
            progress(done_count, len(configs), cfg, ok)

    outcomes, _ = parallel_map(
        _experiment_worker,
        [(cfg, check_level, collect_obs) for cfg in configs],
        n_jobs,
        registry=registry,
        on_result=note,
    )

    results: List[Optional[ExperimentResult]] = []
    failures: List[RunFailure] = []
    merge_metrics = collect_obs and obs.metrics.enabled
    for index, outcome in enumerate(outcomes):
        ok, payload = outcome[0], outcome[1]
        if ok:
            results.append(payload)
            if len(outcome) > 2 and outcome[2] is not None:
                snapshot = outcome[2]
                if merge_metrics:
                    obs.metrics.merge_state(snapshot["metrics"])
                if obs.journal.enabled:
                    obs.journal.emit(
                        time.perf_counter() - started, "sweep.run_obs", -1,
                        index=index,
                        journal_events=snapshot["journal_events"],
                        counts=snapshot["journal_counts"],
                    )
        else:
            results.append(None)
            error_type, error, tb = payload
            failures.append(
                RunFailure(
                    index=index,
                    config=configs[index],
                    error_type=error_type,
                    error=error,
                    traceback=tb,
                )
            )
    return SweepResult(
        results=results,
        failures=failures,
        jobs=n_jobs,
        elapsed=time.perf_counter() - started,
    )
