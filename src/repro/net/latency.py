"""Propagation-latency models.

The simulator separates *propagation* (distance, modeled here) from
*serialization* (bandwidth, modeled by the egress queue in the simulator).
A latency model says how long one message takes on one link.  Four models
cover every experiment:

* :class:`FixedLatency` — identical delay on every link.  Used by the
  Table I step-count experiments, where one "communication step" must take
  exactly one time unit.
* :class:`UniformLatency` — i.i.d. uniform delay per message (10–50 ms by
  default); handy for property tests that need schedule diversity.
* :class:`WanLatency` — the paper's deployment: replicas spread round-robin
  across four continental regions with realistic one-way delays and
  multiplicative jitter.
* :class:`TopologyLatency` — the scale-out generalization: any number of
  geo clusters with a deterministically generated delay matrix.  This is
  the model the n=100–1000 sweeps run on.

A latency model only delays.  Link loss is a fault, the schedule's
``loss`` phase; a ``topology`` spec's ``loss=`` knob spells one
(:func:`loss_phase_spec`) and never reaches the model.

All models draw from the ``random.Random`` instance the simulator passes
in, keeping runs fully deterministic per seed.

Models are constructed through :func:`make_latency_model`, which accepts
either a name in :data:`LATENCY_MODELS` (``"wan4"``) or a *spec string*
carrying inline numeric keyword arguments
(``"topology:clusters=8,jitter_frac=0.2"``).  Spec strings are plain picklable
``str`` values, so they travel through ``ExperimentConfig.latency_model``
and the ``--jobs`` process pool unchanged.
"""

from __future__ import annotations

import inspect
import math
import random
from abc import ABC, abstractmethod
from functools import partial
from typing import Callable, Dict, Iterable, List, Tuple, Union

from ..errors import ConfigError

#: One-way propagation delays between the four modeled regions, in seconds.
#: Regions: 0 = North America, 1 = Europe, 2 = Asia, 3 = South America.
#: Values approximate public inter-continent RTT/2 measurements.
WAN_REGION_DELAYS = (
    (0.001, 0.045, 0.075, 0.065),
    (0.045, 0.001, 0.100, 0.095),
    (0.075, 0.100, 0.001, 0.135),
    (0.065, 0.095, 0.135, 0.001),
)

#: :class:`TopologyLatency`'s fixed geography: the delay between two
#: replicas of one cluster, the range each inter-cluster delay is drawn
#: from, and the seed of that draw (the same planet in every run).
INTRA_CLUSTER_DELAY = 0.001
INTER_CLUSTER_RANGE = (0.03, 0.15)
TOPOLOGY_SEED = "topo:0"
DEFAULT_CLUSTERS = 4


class LatencyModel(ABC):
    """Maps a (src, dst) pair to a per-message propagation delay."""

    @abstractmethod
    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        """One-way propagation delay in seconds for this message."""


class FactoredLatency(LatencyModel):
    """Base for models whose delay factors as ``base × (1 + jitter)``.

    The contract: per-message delay is exactly

    ``base_delay(src, dst) * (1.0 + rng.uniform(-jitter_frac, +jitter_frac))``

    with **no RNG draw at all** when the base is zero (self-sends) or the
    jitter fraction is zero.  The simulator exploits this shape for every
    wire copy, unicast or broadcast, adversary or not: it precomputes a
    per-source row of base delays once and inlines the jitter draw per
    copy — bit-identical to calling :meth:`delay`, draw-for-draw, but
    without the method-call tower.
    """

    jitter_frac = 0.0

    @abstractmethod
    def base_delay(self, src: int, dst: int) -> float:
        """Deterministic pre-jitter delay for the link (0.0 for self)."""

    def base_row(self, src: int, n: int) -> List[float]:
        """Base delays from ``src`` to every destination ``0..n-1``."""
        return [self.base_delay(src, dst) for dst in range(n)]

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        base = self.base_delay(src, dst)
        jitter = self.jitter_frac
        if base == 0.0 or jitter == 0.0:
            return base
        return base * (1.0 + rng.uniform(-jitter, jitter))


def _check_jitter(jitter_frac: float) -> None:
    if not 0 <= jitter_frac < 1:
        raise ConfigError("jitter fraction must be in [0, 1)")


class FixedLatency(FactoredLatency):
    """Every message takes exactly ``delay_s`` seconds (self-sends 0)."""

    def __init__(self, delay_s: float = 0.05) -> None:
        if delay_s < 0:
            raise ConfigError("latency cannot be negative")
        self.delay_s = delay_s

    def base_delay(self, src: int, dst: int) -> float:
        return 0.0 if src == dst else self.delay_s


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]`` per message.

    Additive form, so it does not factor into base × jitter — the
    simulator asks :meth:`delay` for each wire copy of it.
    """

    def __init__(self, low: float = 0.01, high: float = 0.05) -> None:
        if not 0 <= low <= high:
            raise ConfigError(f"invalid uniform latency range [{low}, {high}]")
        self.low = low
        self.high = high

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        return 0.0 if src == dst else rng.uniform(self.low, self.high)


class WanLatency(FactoredLatency):
    """Four-region WAN matrix with multiplicative jitter.

    Replica ``i`` lives in region ``i % 4`` (round-robin placement, the
    natural reading of "deployed on four continents").  Per-message delay is
    the matrix entry scaled by ``1 + jitter`` with jitter drawn uniformly
    from ``[-jitter_frac, +jitter_frac]`` (no draw when the fraction is 0).
    """

    def __init__(self, jitter_frac: float = 0.1) -> None:
        _check_jitter(jitter_frac)
        self.jitter_frac = jitter_frac

    def region_of(self, replica: int) -> int:
        return replica % len(WAN_REGION_DELAYS)

    def base_delay(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return WAN_REGION_DELAYS[self.region_of(src)][self.region_of(dst)]


class TopologyLatency(FactoredLatency):
    """Configurable geo-cluster topology for large-n sweeps.

    Generalizes :class:`WanLatency`'s hardcoded 4-region matrix:

    * ``clusters`` geo clusters; replica ``i`` lives in cluster
      ``i % clusters`` (round-robin, like the WAN model).
    * Inter-cluster propagation delays are drawn once, deterministically,
      from :data:`TOPOLOGY_SEED` — symmetric, uniform in
      :data:`INTER_CLUSTER_RANGE`; intra-cluster links take
      :data:`INTRA_CLUSTER_DELAY`.
    """

    def __init__(
        self, clusters: int = DEFAULT_CLUSTERS, jitter_frac: float = 0.1
    ) -> None:
        if type(clusters) is not int or clusters < 1:
            raise ConfigError(f"clusters must be an integer >= 1, got {clusters}")
        _check_jitter(jitter_frac)
        self.clusters = clusters
        self.jitter_frac = jitter_frac
        # The cluster delay matrix: one deterministic draw per unordered
        # cluster pair.
        gen = random.Random(TOPOLOGY_SEED)
        matrix = [[INTRA_CLUSTER_DELAY] * clusters for _ in range(clusters)]
        for a in range(clusters):
            for b in range(a + 1, clusters):
                matrix[a][b] = matrix[b][a] = gen.uniform(*INTER_CLUSTER_RANGE)
        self._matrix = tuple(tuple(row) for row in matrix)

    def cluster_of(self, replica: int) -> int:
        return replica % self.clusters

    def base_delay(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return self._matrix[self.cluster_of(src)][self.cluster_of(dst)]


# ------------------------------------------------------------------ factory

#: Model name -> factory.  :func:`make_latency_model` checks a spec's knobs
#: against the factory's signature, so a typo'd knob fails at config time,
#: not deep inside a sweep worker.
LATENCY_MODELS: Dict[str, Callable[..., LatencyModel]] = {
    "fixed": FixedLatency,
    "uniform": UniformLatency,
    "wan4": WanLatency,
    "topology": TopologyLatency,
    # Fixed 1 ms — the LAN deployment of the paper's Table I runs.
    "lan": partial(FixedLatency, delay_s=0.001),
}

#: Spec knobs that spell a fault phase, not a model argument.
FAULT_KNOBS: Dict[str, Tuple[str, ...]] = {"topology": ("loss",)}


def _number(part: str, spec: str) -> Union[int, float]:
    """The value of a ``key=value`` fragment: an int or finite float literal."""
    text = part.partition("=")[2].strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if math.isfinite(value):
            return value
    raise ConfigError(
        f"bad latency spec fragment {part!r} in {spec!r} (want a finite number)"
    )


def _check_knobs(name: str, knobs: Iterable[str]) -> None:
    """Reject an unknown model name, or a knob its factory does not take."""
    factory = LATENCY_MODELS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown latency model {name!r} (known: {sorted(LATENCY_MODELS)})"
        )
    accepted = [*inspect.signature(factory).parameters, *FAULT_KNOBS.get(name, ())]
    unknown = sorted(set(knobs) - set(accepted))
    if unknown:
        raise ConfigError(
            f"latency model {name!r} does not accept {unknown}; "
            f"accepted knobs: {accepted}"
        )


def parse_latency_spec(spec: str) -> Tuple[str, Dict[str, Union[int, float]]]:
    """Split ``"name"`` or ``"name:k=v,k=v"`` into (name, kwargs).

    The name must be in :data:`LATENCY_MODELS`, every key one of its
    factory's knobs, and every value an int or a finite float literal.
    """
    name, _, tail = spec.partition(":")
    name = name.strip()
    if not name:
        raise ConfigError(f"empty latency model name in spec {spec!r}")
    fragments: Dict[str, str] = {}
    for part in tail.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, _ = part.partition("=")
        if not sep or not key.strip():
            raise ConfigError(
                f"bad latency spec fragment {part!r} in {spec!r} "
                "(want key=value)"
            )
        fragments[key.strip()] = part
    _check_knobs(name, fragments)
    return name, {key: _number(part, spec) for key, part in fragments.items()}


def loss_phase_spec(spec: str) -> str:
    """The fault phase ``topology:clusters=K,loss=P`` spells —
    ``loss@0+inf:p=P,clusters=K``, every inter-cluster copy for the whole
    run — or ``""`` when the spec has no loss."""
    knobs = parse_latency_spec(spec)[1]
    loss = knobs.get("loss", 0)
    if not 0 <= loss < 1:
        raise ConfigError("loss probability must be in [0, 1)")
    clusters = knobs.get("clusters", DEFAULT_CLUSTERS)
    return f"loss@0+inf:p={loss!r},clusters={clusters}" if loss else ""


def make_latency_model(name: str, **kwargs) -> LatencyModel:
    """Factory matching :attr:`ExperimentConfig.latency_model` specs.

    ``name`` is either a model name (``"fixed"``, ``"uniform"``,
    ``"wan4"``, ``"lan"``, ``"topology"``) or a spec string with inline
    keyword arguments, e.g. ``"topology:clusters=8,jitter_frac=0.2"``.
    Explicit ``**kwargs`` override inline ones.  Unknown names, unknown
    knobs and non-numeric values raise :class:`ConfigError` eagerly; a
    ``loss`` knob is checked and left to the harness (:func:`loss_phase_spec`).
    """
    base, inline = parse_latency_spec(name)
    _check_knobs(base, kwargs)
    loss_phase_spec(name)
    inline.pop("loss", None)
    return LATENCY_MODELS[base](**{**inline, **kwargs})
