"""Parallel sweep execution: a process-pool harness over ``run_experiment``.

Every evaluation figure (Figs. 12–15), the §VI-B headline comparison, and
the ``repro fuzz`` oracle sweep are dozens-to-hundreds of *independent*
simulated runs; a single CPython process leaves every other core idle.
This module fans a list of :class:`~repro.config.ExperimentConfig`\\ s out
over a pool of **shared-nothing workers**: a config goes in (pickled), an
:class:`~repro.harness.runner.ExperimentResult` comes back, and nothing
else crosses the process boundary.  The generic layer
(:func:`parallel_map`) also backs the ``repro fuzz`` case sweep and
``repro loadtest --sweep``, shipping fuzz cases and loadtest configs to
workers the same shared-nothing way.

Guarantees:

* **Deterministic ordering** — results come back in input order, whatever
  the completion order was.
* **Seed-for-seed equivalence** — a worker executes the very same
  ``run_experiment(cfg)`` call the serial path would, so ``jobs=N`` output
  is bit-identical to ``jobs=1`` for the same configs
  (``tests/harness/test_parallel.py`` pins this).
* **Failure isolation** — a run that raises is captured as a
  :class:`RunFailure` (traceback + a replay command line) while its
  neighbours keep running; once every config has run, :func:`run_sweep`
  raises one :class:`~repro.errors.SweepError` carrying the failures and
  every successful result.  If a worker *process* dies outright (OOM,
  segfault), the unfinished configs are re-run serially in the parent so
  no result is lost.

``jobs=1`` bypasses multiprocessing entirely (same process, same thread),
which keeps ``pdb`` and coverage tooling working.  An instrumented run
(``--trace``, ``--metrics``, ``--journal``) is a single
``run_experiment(cfg, obs=...)`` call, not a sweep.

The pool uses the ``fork`` start method when the platform offers it: forked
workers inherit the parent's module state, which lets a *registry* of
protocol-class overrides (e.g. the fuzzer's mutants, or dynamically built
subclasses) reach workers without being picklable.  Where only ``spawn``
exists the registry must be picklable (module-level classes).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import ExperimentConfig, ProtocolConfig, SystemConfig
from ..errors import SweepError
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
) -> Tuple[List[Any], bool]:
    """Ordered ``[worker(item, registry) for item in items]`` over a pool.

    ``worker`` must be a module-level function (picklable by reference)
    that catches its own exceptions and returns a picklable value.
    ``jobs=None`` means :func:`default_jobs`; ``jobs=1`` runs in-process.
    ``time_box`` bounds wall-clock seconds; expired items are left as
    :data:`NOT_RUN` and the returned flag is True.

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
    return results, timed_out


# --------------------------------------------------------------- sweep layer


def _differing_fields(actual: Any, replayed: Any, prefix: str = "") -> List[str]:
    """``name=repr`` for every (nested) dataclass field where ``actual``
    differs from ``replayed``."""
    out: List[str] = []
    for spec in dataclasses.fields(actual):
        value, other = getattr(actual, spec.name), getattr(replayed, spec.name)
        if dataclasses.is_dataclass(value):
            out += _differing_fields(value, other, f"{prefix}{spec.name}.")
        elif value != other:
            out.append(f"{prefix}{spec.name}={value!r}")
    return out


@dataclasses.dataclass(frozen=True)
class RunFailure:
    """One failed run of a sweep, with everything needed to replay it."""

    index: int
    config: ExperimentConfig
    error_type: str
    error: str
    traceback: str

    def replay_command(self) -> str:
        """A ``repro run`` invocation of this run.

        Fields ``repro run`` has no flag for follow as a shell comment
        whenever they differ from what the command would set, so the line
        never silently stands for a different run.
        """
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
        # What the command above builds (`repro.cli._make_config`).
        replayed = ExperimentConfig(
            system=SystemConfig(
                n=cfg.system.n, crypto=cfg.system.crypto, seed=cfg.seed
            ),
            protocol=ProtocolConfig(
                batch_size=cfg.protocol.batch_size, gc_depth=cfg.protocol.gc_depth
            ),
            protocol_name=cfg.protocol_name,
            adversary_name=cfg.adversary_name,
            duration=cfg.duration,
            warmup=cfg.warmup,
            seed=cfg.seed,
            check_level=cfg.check_level,
            latency_model=cfg.latency_model,
        )
        unsettable = _differing_fields(cfg, replayed)
        if unsettable:
            parts.append("# not settable by repro run: " + ", ".join(unsettable))
        return " ".join(parts)


def _experiment_worker(
    cfg: ExperimentConfig, registry: Optional[Dict]
) -> Tuple[bool, Any]:
    """Shared-nothing unit of sweep work: config in, result (or error) out."""
    try:
        return True, run_experiment(cfg)
    except Exception as exc:
        return False, (type(exc).__name__, str(exc), traceback.format_exc())


def run_sweep(
    configs: Sequence[ExperimentConfig], jobs: Optional[int] = None
) -> List[ExperimentResult]:
    """``[run_experiment(cfg) for cfg in configs]``, ``jobs`` at a time.

    A failing run never stops or loses its neighbours: every config runs,
    and only then, if any failed, :class:`~repro.errors.SweepError` is
    raised with ``failures`` (one :class:`RunFailure` each) and
    ``results`` (the successes in place, ``None`` at failed indices).
    """
    configs = list(configs)
    outcomes, _ = parallel_map(_experiment_worker, configs, jobs)
    results: List[Optional[ExperimentResult]] = []
    failures: List[RunFailure] = []
    for index, (ok, payload) in enumerate(outcomes):
        if ok:
            results.append(payload)
            continue
        results.append(None)
        failures.append(RunFailure(index, configs[index], *payload))
    if failures:
        summary = "".join(
            f"\n  run {f.index} ({f.config.protocol_name}, n={f.config.system.n}, "
            f"seed={f.config.seed}): {f.error_type}: {f.error}"
            f"\n    replay: {f.replay_command()}"
            for f in failures[:3]
        )
        if len(failures) > 3:
            summary += f"\n  … and {len(failures) - 3} more"
        raise SweepError(
            f"{len(failures)} of {len(configs)} sweep runs failed:{summary}",
            failures=failures,
            results=results,
        )
    return results
