"""Tests for TopologyLatency, the model table, and latency properties.

Three concerns:

* :class:`TopologyLatency` — the scale-out model: deterministic cluster
  matrix; its spec's ``loss=`` knob is spelling for an inter-cluster
  ``loss`` fault phase, which the schedule's adversary decides.
* The factory layer — ``LATENCY_MODELS`` / ``parse_latency_spec`` /
  ``make_latency_model`` — including eager rejection of unknown knobs,
  so a typo'd spec fails at config time rather than inside a sweep worker.
* Distribution properties every model must honor (self-sends are free,
  base delays are symmetric, factored jitter stays in bounds) —
  hypothesis drives these across the parameter space.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.schedule import FaultSchedule
from repro.errors import ConfigError
from repro.net.latency import (
    INTER_CLUSTER_RANGE,
    LATENCY_MODELS,
    FactoredLatency,
    FixedLatency,
    TopologyLatency,
    UniformLatency,
    WanLatency,
    loss_phase_spec,
    make_latency_model,
    parse_latency_spec,
)


@pytest.fixture
def rng():
    return random.Random(7)


class TestTopologyMatrix:
    def test_same_seed_same_planet(self):
        a = TopologyLatency(clusters=6)
        b = TopologyLatency(clusters=6, jitter_frac=0.3)
        assert a._matrix == b._matrix

    def test_matrix_symmetric_and_in_range(self):
        model = TopologyLatency(clusters=8)
        low, high = INTER_CLUSTER_RANGE
        for a in range(8):
            for b in range(8):
                assert model._matrix[a][b] == model._matrix[b][a]
                if a != b:
                    assert low <= model._matrix[a][b] <= high

    def test_round_robin_placement(self):
        model = TopologyLatency(clusters=5)
        assert [model.cluster_of(i) for i in range(7)] == [0, 1, 2, 3, 4, 0, 1]

    def test_intra_cluster_cheap(self, rng):
        model = TopologyLatency(clusters=4, jitter_frac=0.0)
        # replicas 0 and 4 share cluster 0; 0 and 1 do not.
        assert model.delay(0, 4, rng) == 0.001
        assert model.delay(0, 1, rng) >= 0.03

    def test_validation(self):
        with pytest.raises(ConfigError):
            TopologyLatency(clusters=0)
        with pytest.raises(ConfigError):
            TopologyLatency(clusters=2.5)
        with pytest.raises(ConfigError):
            TopologyLatency(jitter_frac=1.0)
        with pytest.raises(ConfigError, match="loss probability"):
            make_latency_model("topology:loss=1.0")


def _loss_adversary(spec):
    """The adversary of the fault phase ``spec``'s ``loss=`` spells."""
    return FaultSchedule.from_spec(loss_phase_spec(spec)).adversary(seed=7)


class TestTopologyLossAndChurn:
    def test_not_lossy_by_default(self):
        assert loss_phase_spec("topology:clusters=4") == ""
        assert not hasattr(TopologyLatency(), "loss")

    def test_loss_makes_model_lossy(self):
        """``loss=`` spells a whole-run phase over the spec's clusters (the
        model's default count when the spec names none)."""
        assert loss_phase_spec("topology:loss=0.01") == (
            "loss@0+inf:p=0.01,clusters=4"
        )
        assert loss_phase_spec("topology:clusters=8,loss=0.25") == (
            "loss@0+inf:p=0.25,clusters=8"
        )

    def test_loss_rate_roughly_honored(self):
        adversary = _loss_adversary("topology:clusters=4,loss=0.5")
        drops = sum(
            adversary.on_send(0, 1, None, now=1.0) is None for _ in range(2000)
        )
        assert 850 <= drops <= 1150  # binomial(2000, .5) well within 5 sigma

    def test_intra_loss_separate_from_inter(self):
        """``loss`` is inter-cluster only: a link inside a cluster never
        drops, however lossy the links between clusters are."""
        adversary = _loss_adversary("topology:clusters=4,loss=0.5")
        # 0 -> 4 shares cluster 0: never dropped.
        assert all(
            adversary.on_send(0, 4, None, now=1.0) == 0.0 for _ in range(200)
        )


class TestSpecParsing:
    def test_bare_name(self):
        assert parse_latency_spec("wan4") == ("wan4", {})

    def test_kwargs_coerced(self):
        name, kwargs = parse_latency_spec("topology:clusters=8,loss=0.01")
        assert name == "topology"
        assert kwargs == {"clusters": 8, "loss": 0.01}
        assert type(kwargs["clusters"]) is int

    def test_bad_fragment(self):
        with pytest.raises(ConfigError):
            parse_latency_spec("topology:clusters")
        with pytest.raises(ConfigError):
            parse_latency_spec(":a=1")


class TestFactoryRegistry:
    def test_builtin_names_registered(self):
        for name in ("fixed", "uniform", "wan4", "lan", "topology"):
            assert name in LATENCY_MODELS

    def test_spec_string_builds_configured_model(self):
        spec = "topology:clusters=8,loss=0.01"
        model = make_latency_model(spec)
        assert isinstance(model, TopologyLatency)
        assert model.clusters == 8
        assert loss_phase_spec(spec) == "loss@0+inf:p=0.01,clusters=8"

    def test_explicit_kwargs_override_inline(self):
        model = make_latency_model("topology:clusters=8", clusters=16)
        assert model.clusters == 16

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown latency model"):
            make_latency_model("tachyon")

    def test_unknown_knob_rejected_eagerly(self):
        with pytest.raises(ConfigError, match="does not accept"):
            make_latency_model("topology:warp=9")
        with pytest.raises(ConfigError, match="does not accept"):
            make_latency_model("wan4:clusters=8")


# ----------------------------------------------------------- properties

def _all_models():
    return [
        FixedLatency(0.05),
        UniformLatency(0.01, 0.1),
        WanLatency(jitter_frac=0.1),
        TopologyLatency(clusters=4, jitter_frac=0.1),
        TopologyLatency(clusters=7, jitter_frac=0.0),
    ]


@settings(max_examples=50, deadline=None)
@given(
    replica=st.integers(min_value=0, max_value=99),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_self_send_is_free(replica, seed):
    rng = random.Random(seed)
    for model in _all_models():
        assert model.delay(replica, replica, rng) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    src=st.integers(min_value=0, max_value=99),
    dst=st.integers(min_value=0, max_value=99),
)
def test_property_declared_symmetry_holds(src, dst):
    """The WAN and topology matrices are symmetric, so every factored
    model's base delay is the same in both directions."""
    for model in _all_models():
        if isinstance(model, FactoredLatency):
            assert model.base_delay(src, dst) == model.base_delay(dst, src)


@settings(max_examples=50, deadline=None)
@given(
    src=st.integers(min_value=0, max_value=63),
    dst=st.integers(min_value=0, max_value=63),
    seed=st.integers(min_value=0, max_value=2**16),
    jitter=st.floats(min_value=0.0, max_value=0.5),
    clusters=st.integers(min_value=1, max_value=12),
)
def test_property_factored_jitter_stays_in_bounds(
    src, dst, seed, jitter, clusters
):
    """Per-message draws of any factored model land in base * (1 ± jitter),
    and never go negative."""
    rng = random.Random(seed)
    models = [
        WanLatency(jitter_frac=jitter),
        TopologyLatency(clusters=clusters, jitter_frac=jitter),
    ]
    for model in models:
        assert isinstance(model, FactoredLatency)
        base = model.base_delay(src, dst)
        for _ in range(4):
            d = model.delay(src, dst, rng)
            assert d >= 0.0
            assert base * (1 - jitter) - 1e-12 <= d <= base * (1 + jitter) + 1e-12
