"""Tests for repro.net.latency: the propagation models and the spec grammar."""

import inspect
import random

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.net.latency import (
    FAULT_KNOBS,
    LATENCY_MODELS,
    WAN_REGION_DELAYS,
    FixedLatency,
    UniformLatency,
    WanLatency,
    make_latency_model,
)


@pytest.fixture
def rng():
    return random.Random(0)


class TestFixed:
    def test_constant(self, rng):
        model = FixedLatency(0.07)
        assert model.delay(0, 1, rng) == 0.07
        assert model.delay(3, 2, rng) == 0.07

    def test_self_send_free(self, rng):
        assert FixedLatency(0.07).delay(2, 2, rng) == 0.0

    def test_mean(self):
        assert FixedLatency(0.05).base_delay(0, 1) == 0.05

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            FixedLatency(-1)


class TestUniform:
    def test_range(self, rng):
        model = UniformLatency(0.01, 0.05)
        for _ in range(200):
            d = model.delay(0, 1, rng)
            assert 0.01 <= d <= 0.05

    def test_self_send_free(self, rng):
        assert UniformLatency(0.01, 0.05).delay(1, 1, rng) == 0.0

    def test_mean(self, rng):
        model = UniformLatency(0.02, 0.04)
        draws = [model.delay(0, 1, rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(0.03, rel=0.02)

    def test_invalid_range(self):
        with pytest.raises(ConfigError):
            UniformLatency(0.05, 0.01)
        with pytest.raises(ConfigError):
            UniformLatency(-0.1, 0.1)

    def test_deterministic_per_seed(self):
        model = UniformLatency(0.0, 1.0)
        a = [model.delay(0, 1, random.Random(9)) for _ in range(5)]
        b = [model.delay(0, 1, random.Random(9)) for _ in range(5)]
        assert a == b


class TestWan:
    def test_matrix_symmetric(self):
        for i in range(4):
            for j in range(4):
                assert WAN_REGION_DELAYS[i][j] == WAN_REGION_DELAYS[j][i]

    def test_region_placement_round_robin(self):
        model = WanLatency()
        assert model.region_of(0) == 0
        assert model.region_of(5) == 1
        assert model.region_of(11) == 3

    def test_intra_region_cheap(self, rng):
        model = WanLatency(jitter_frac=0.0)
        # replicas 0 and 4 are both region 0
        assert model.delay(0, 4, rng) == pytest.approx(0.001)

    def test_inter_region_uses_matrix(self, rng):
        model = WanLatency(jitter_frac=0.0)
        assert model.delay(0, 1, rng) == pytest.approx(WAN_REGION_DELAYS[0][1])

    def test_jitter_bounds(self, rng):
        model = WanLatency(jitter_frac=0.1)
        base = WAN_REGION_DELAYS[0][2]
        for _ in range(200):
            d = model.delay(0, 2, rng)
            assert base * 0.9 <= d <= base * 1.1

    def test_self_send_free(self, rng):
        assert WanLatency().delay(3, 3, rng) == 0.0

    def test_mean_ignores_jitter(self):
        model = WanLatency(jitter_frac=0.1)
        assert model.base_delay(0, 1) == WAN_REGION_DELAYS[0][1]

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            WanLatency(jitter_frac=1.5)


class TestFactory:
    def test_names(self):
        assert isinstance(make_latency_model("fixed"), FixedLatency)
        assert isinstance(make_latency_model("uniform"), UniformLatency)
        assert isinstance(make_latency_model("wan4"), WanLatency)
        lan = make_latency_model("lan")
        assert isinstance(lan, FixedLatency)
        assert lan.delay_s == 0.001

    def test_kwargs_forwarded(self):
        model = make_latency_model("fixed", delay_s=0.25)
        assert model.delay_s == 0.25

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_latency_model("carrier-pigeon")


#: Every knob the spec grammar accepts, per model.  A new knob is a change
#: to this table, made on purpose — as tests/cli_surface.json is for flags.
GRAMMAR = {
    "fixed": {"delay_s"},
    "uniform": {"low", "high"},
    "wan4": {"jitter_frac"},
    "topology": {"clusters", "jitter_frac", "loss"},
    "lan": {"delay_s"},
}


class TestGrammar:
    def test_accepted_knobs_are_pinned(self):
        """Seven knobs are a model's; ``topology``'s ``loss`` is a fault
        knob the model never sees (it spells a ``loss`` schedule phase)."""
        assert {
            name: set(inspect.signature(factory).parameters)
            | set(FAULT_KNOBS.get(name, ()))
            for name, factory in LATENCY_MODELS.items()
        } == GRAMMAR
        assert FAULT_KNOBS == {"topology": ("loss",)}
        assert sum(len(knobs) for knobs in GRAMMAR.values()) == 8

    @pytest.mark.parametrize("spec", [
        "topology:intra_delay=0.002",
        "topology:inter_min=0.01",
        "topology:inter_max=0.2",
        "topology:topo_seed=3",
        "topology:link_spread=0.2",
        "topology:bandwidth_spread=0.3",
        "topology:intra_loss=0.1",
        "topology:churn=3@0-100",
        "wan4:num_regions=2",
    ])
    def test_removed_knob_lists_the_accepted_ones(self, spec):
        name = spec.partition(":")[0]
        with pytest.raises(ConfigError, match="accepted knobs") as info:
            make_latency_model(spec)
        assert all(knob in str(info.value) for knob in GRAMMAR[name])


#: Specs whose values are not what their knob takes.
MALFORMED_SPECS = [
    "topology:clusters=abc",
    "uniform:low=x",
    "wan4:jitter_frac=abc",
    "fixed:delay_s=true",
    "fixed:delay_s=inf",
    "topology:loss=nan",
    "topology:clusters=2.5",
]


@pytest.mark.parametrize("spec", MALFORMED_SPECS)
def test_malformed_spec_is_a_config_error(spec, capsys):
    """Refused by the factory, naming the offending knob, and by the CLI
    with exit 2 and one error line — never a traceback or a coercion."""
    knob = spec.partition(":")[2].partition("=")[0]
    with pytest.raises(ConfigError, match=knob):
        make_latency_model(spec)
    argv = ["run", "-n", "4", "--duration", "2", "--warmup", "1",
            "--latency-model", spec]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ") and err.count("\n") == 1
