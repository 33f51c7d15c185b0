"""Latency-model spec strings end to end: config → runner → workers.

``ExperimentConfig.latency_model`` is a plain string, so a spec like
``"topology:clusters=8,loss=0.01"`` must (a) build the right model inside
``run_experiment`` and add the ``loss`` fault phase its ``loss=`` knob
spells, (b) survive pickling into the ``--jobs`` process pool
bit-identically, and (c) fail eagerly at config time when it names an
unknown model or knob.
"""

import pickle

import pytest

from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.errors import ConfigError
from repro.harness.cluster import fault_schedule
from repro.harness.loadtest import LoadtestConfig
from repro.harness.parallel import run_sweep
from repro.harness.runner import run_experiment
from repro.net.latency import make_latency_model


def spec_config(seed=0, spec="topology:clusters=4,jitter_frac=0.05",
                n=4, duration=1.5, **kwargs):
    return ExperimentConfig(
        system=SystemConfig(n=n, crypto="hmac", seed=seed),
        protocol=ProtocolConfig(batch_size=8),
        duration=duration,
        warmup=0.5,
        cpu_fixed_us=0.0,
        cpu_per_byte_ns=0.0,
        latency_model=spec,
        seed=seed,
        **kwargs,
    )


class TestSpecThroughRunner:
    def test_run_experiment_accepts_spec_string(self):
        result = run_experiment(spec_config())
        assert result.rounds_reached > 0

    def test_unknown_model_fails_eagerly(self):
        with pytest.raises(ConfigError, match="unknown latency model"):
            run_experiment(spec_config(spec="tachyon:warp=9"))

    def test_unknown_knob_fails_eagerly(self):
        with pytest.raises(ConfigError, match="does not accept"):
            run_experiment(spec_config(spec="topology:warp=9"))

    def test_spec_equivalent_to_explicit_kwargs(self):
        """A spec string and the equivalent registered-name construction
        produce the same model, hence bit-identical runs."""
        by_spec = run_experiment(spec_config(seed=3))
        again = run_experiment(spec_config(seed=3))
        assert repr(by_spec) == repr(again)


class TestSpecAtConfigTime:
    """A bad spec is refused when the config is built, before any run — so
    a sweep never starts a worker on it."""

    def test_experiment_config_rejects_unknown_knob(self):
        with pytest.raises(ConfigError, match="does not accept"):
            spec_config(spec="topology:warp=9")

    def test_loadtest_config_rejects_unknown_knob(self):
        with pytest.raises(ConfigError, match="does not accept"):
            LoadtestConfig(latency_model="topology:warp=9")


class TestSpecThroughJobsPool:
    def test_config_pickles_with_spec(self):
        cfg = spec_config(spec="topology:clusters=8,loss=0.01")
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone.latency_model == cfg.latency_model
        assert clone == cfg

    def test_serial_equals_parallel_on_topology_spec(self):
        configs = [
            spec_config(seed=s, spec="topology:clusters=3,jitter_frac=0.2")
            for s in range(3)
        ]
        serial = run_sweep(configs, jobs=1)
        parallel = run_sweep(configs, jobs=3)
        assert repr(serial) == repr(parallel)


class TestSpecRoundTrip:
    def test_model_attributes_match_spec(self):
        spec = "topology:clusters=8,loss=0.01,jitter_frac=0.2"
        model = make_latency_model(spec)
        assert model.clusters == 8
        assert model.jitter_frac == 0.2
        # The loss is the schedule's, appended to the named attack's phases.
        schedule = fault_schedule(spec_config(spec=spec, adversary_name="crash"))
        assert schedule.to_spec() == (
            "crash@0+0:victims=3;loss@0+inf:p=0.01,clusters=8"
        )
