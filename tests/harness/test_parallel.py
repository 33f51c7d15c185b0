"""The parallel sweep harness (`repro.harness.parallel`).

The two load-bearing promises:

* ``jobs=N`` is **bit-identical** to ``jobs=1`` — a simulated run is
  deterministic per seed and workers share nothing, so the only thing
  parallelism may change is wall-clock.
* one poisoned config never kills the sweep or loses its neighbours'
  results.
"""

from __future__ import annotations

import dataclasses
import functools
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _make_config, build_parser
from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.errors import SweepError
from repro.harness.parallel import (
    NOT_RUN,
    RunFailure,
    default_jobs,
    parallel_map,
    run_sweep,
)
from repro.harness.runner import run_experiment


def quick_config(seed: int = 0, n: int = 4, protocol: str = "lightdag2",
                 duration: float = 1.5) -> ExperimentConfig:
    """A sub-second run: tiny batches, no CPU model, short horizon."""
    return ExperimentConfig(
        system=SystemConfig(n=n, crypto="hmac", seed=seed),
        protocol=ProtocolConfig(batch_size=8),
        protocol_name=protocol,
        duration=duration,
        warmup=0.5,
        cpu_fixed_us=0.0,
        cpu_per_byte_ns=0.0,
        seed=seed,
    )


def poisoned_config(seed: int = 0) -> ExperimentConfig:
    """Constructs fine, fails inside the worker (unknown protocol)."""
    return dataclasses.replace(quick_config(seed), protocol_name="no-such-protocol")


class TestDefaultJobs:
    def test_positive(self):
        assert default_jobs() >= 1


class TestParallelMap:
    def test_empty(self):
        results, timed_out = parallel_map(_square, [], jobs=4)
        assert results == [] and not timed_out

    def test_ordering_preserved(self):
        results, timed_out = parallel_map(_square, list(range(20)), jobs=4)
        assert results == [i * i for i in range(20)]
        assert not timed_out

    def test_time_box_zero_runs_nothing(self):
        results, timed_out = parallel_map(_square, [1, 2, 3], jobs=1, time_box=0.0)
        assert timed_out
        assert all(r is NOT_RUN for r in results)

    def test_registry_reaches_workers(self):
        results, _ = parallel_map(
            _registry_lookup, ["x", "y"], jobs=2, registry={"x": 10, "y": 20}
        )
        assert results == [10, 20]


class TestRunSweep:
    def test_serial_equals_parallel(self):
        configs = [quick_config(seed=s) for s in range(3)]
        assert run_sweep(configs, jobs=1) == run_sweep(configs, jobs=3)

    @settings(deadline=None, max_examples=3)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=2, max_size=4, unique=True,
        ),
        protocol=st.sampled_from(["lightdag1", "lightdag2"]),
    )
    def test_equivalence_property(self, seeds, protocol):
        """jobs=4 is bit-identical to jobs=1 for arbitrary seed sets.

        Compared by repr: a seed whose tiny run commits nothing in-window
        has NaN latency, and NaN != NaN would fail dataclass equality even
        for genuinely identical results.
        """
        configs = [quick_config(seed=s, protocol=protocol) for s in seeds]
        serial = run_sweep(configs, jobs=1)
        parallel = run_sweep(configs, jobs=4)
        assert repr(serial) == repr(parallel)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_poisoned_config_does_not_lose_neighbours(self, jobs):
        configs = [quick_config(seed=1), poisoned_config(), quick_config(seed=2)]
        with pytest.raises(SweepError) as excinfo:
            run_sweep(configs, jobs=jobs)
        results = excinfo.value.results
        assert [r is not None for r in results] == [True, False, True]
        # The healthy results equal what a clean sweep produces.
        clean = run_sweep([configs[0], configs[2]], jobs=1)
        assert results[0] == clean[0]
        assert results[2] == clean[1]
        (failure,) = excinfo.value.failures
        assert failure.index == 1
        assert failure.error_type == "ConfigError"
        assert "no-such-protocol" in failure.error
        assert "Traceback" in failure.traceback

    def test_replay_command_shape(self):
        with pytest.raises(SweepError) as excinfo:
            run_sweep([poisoned_config(seed=9)], jobs=1)
        (failure,) = excinfo.value.failures
        command = failure.replay_command()
        assert command.startswith("python -m repro run ")
        assert "--protocol no-such-protocol" in command
        assert "--seed 9" in command
        assert "-n 4" in command

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(system=SystemConfig(n=4, seed=3), seed=3),
        ExperimentConfig(
            system=SystemConfig(n=7, crypto="schnorr", seed=11),
            protocol=ProtocolConfig(batch_size=50, gc_depth=8),
            protocol_name="bullshark",
            adversary_name="schedule:crash@1+0:victims=6;delay@0+2:delay=0.3",
            duration=12.25,
            warmup=0.1,
            seed=11,
            check_level="full",
            latency_model="topology:clusters=3,loss=0.01,jitter_frac=0.1",
        ),
        # Fields `repro run` has no flag for, one per config class.
        dataclasses.replace(
            quick_config(seed=6),
            system=SystemConfig(n=4, crypto="hmac", seed=5),
            protocol=ProtocolConfig(batch_size=8, tx_size=64),
            bandwidth_bps=1e6,
        ),
    ])
    def test_replay_command_round_trips(self, cfg):
        """Everything `repro run` can set survives the replay command, and
        its comment names exactly the fields that do not."""
        failure = RunFailure(index=0, config=cfg, error_type="E", error="",
                             traceback="")
        command, _, note = failure.replay_command().partition(" # ")
        argv = shlex.split(command)
        assert argv[:3] == ["python", "-m", "repro"]
        replayed = _make_config(build_parser().parse_args(argv[3:]))
        noted = {}
        if note:
            prefix = "not settable by repro run: "
            assert note.startswith(prefix)
            noted = dict(item.split("=", 1) for item in note[len(prefix):].split(", "))
        restored = replayed
        for name in noted:
            assert noted[name] == repr(_field(cfg, name))
            assert _field(replayed, name) != _field(cfg, name)
            restored = _replace_field(restored, name, _field(cfg, name))
        assert restored == cfg

    def test_require_raises_with_failures_attached(self):
        with pytest.raises(SweepError) as excinfo:
            run_sweep([quick_config(seed=1), poisoned_config()], jobs=1)
        assert len(excinfo.value.failures) == 1
        assert isinstance(excinfo.value.failures[0], RunFailure)
        assert "replay: python -m repro run" in str(excinfo.value)

    def test_require_passthrough_when_clean(self):
        cfg = quick_config(seed=1)
        assert run_sweep([cfg], jobs=1) == [run_experiment(cfg)]

    def test_empty_sweep(self):
        assert run_sweep([], jobs=4) == []


def _field(cfg, path):
    return functools.reduce(getattr, path.split("."), cfg)


def _replace_field(obj, path, value):
    head, _, rest = path.partition(".")
    if rest:
        value = _replace_field(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


# Module-level workers: the pool pickles them by reference.


def _square(x, registry):
    return x * x


def _registry_lookup(key, registry):
    return registry[key]
