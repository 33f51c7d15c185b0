"""System- and protocol-level configuration objects.

Two dataclasses cover everything an experiment needs:

* :class:`SystemConfig` — the replica set: ``n``, ``f``, crypto backend
  selection, and the quorum helpers shared by every protocol in the family
  (``n - f`` availability quorum, ``f + 1`` honest-intersection quorum).

* :class:`ProtocolConfig` — the knobs the paper either fixes or leaves
  ambiguous: the direct-commit threshold (f+1 in the main text, 2f+1 in
  Algorithm 1), the GPC reveal threshold ("typically larger than f+1"),
  batch size, and retrieval behaviour.  Defaults follow the main text; the
  ablation benches sweep the alternatives.

Both classes validate eagerly at construction so a bad experiment fails at
setup time instead of deep inside a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .errors import ConfigError

#: Transaction size used throughout the paper's evaluation (bytes, §VI-A).
DEFAULT_TX_SIZE = 128

#: Link bandwidth used in the paper's testbed (bits/second, §VI-A).
DEFAULT_BANDWIDTH_BPS = 100_000_000

#: How hard a run is checked, each level including the ones before it
#: (see :attr:`ExperimentConfig.check_level`).
CHECK_LEVELS = ("off", "prefix", "final", "full")


def quorum_for(n: int, f: int) -> int:
    """Availability quorum ``n - f``: messages a replica can always await."""
    return n - f


def validity_quorum_for(n: int, f: int) -> int:
    """Honest-intersection quorum ``f + 1``: at least one non-faulty member."""
    return f + 1


@dataclass(frozen=True)
class SystemConfig:
    """Static description of the replica set.

    Parameters
    ----------
    n:
        Total number of replicas.  Must satisfy ``n >= 3f + 1``.
    f:
        Maximum number of Byzantine replicas tolerated.  If omitted it is
        derived as ``(n - 1) // 3``, the largest tolerable value.
    crypto:
        Crypto backend name: ``"schnorr"`` (real signatures over a safe-prime
        group), ``"hmac"`` (keyed-MAC stand-in, fast), or ``"null"``
        (size-accounted no-op, for very large simulations).
    seed:
        Master seed for deterministic key generation and coin setup.
    """

    n: int
    f: int = -1
    crypto: str = "hmac"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.f < 0:
            object.__setattr__(self, "f", (self.n - 1) // 3)
        if self.n < 1:
            raise ConfigError(f"need at least one replica, got n={self.n}")
        if self.n < 3 * self.f + 1:
            raise ConfigError(
                f"n={self.n} cannot tolerate f={self.f} Byzantine replicas "
                f"(requires n >= 3f + 1 = {3 * self.f + 1})"
            )
        if self.crypto not in ("schnorr", "hmac", "null"):
            raise ConfigError(f"unknown crypto backend {self.crypto!r}")

    @property
    def quorum(self) -> int:
        """``n - f``: blocks/echoes a replica waits for before progressing."""
        return quorum_for(self.n, self.f)

    @property
    def validity_quorum(self) -> int:
        """``f + 1``: smallest set guaranteed to contain a non-faulty replica."""
        return validity_quorum_for(self.n, self.f)

    @property
    def replica_ids(self) -> range:
        """Identifiers ``0 .. n-1``."""
        return range(self.n)

    def with_updates(self, **kwargs: Any) -> "SystemConfig":
        """Return a copy with the given fields replaced (validated again)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunable protocol parameters shared by LightDAG and the baselines.

    Attributes
    ----------
    batch_size:
        Transactions per block; the paper sweeps 100..1000 (Fig. 12/14).
    tx_size:
        Bytes per transaction (128 in the paper, §VI-A).
    commit_threshold:
        Direct-commit support for LightDAG1 / Tusk-style rules, expressed as
        one of ``"f+1"`` or ``"2f+1"``.  The paper's main text uses f+1 for
        LightDAG1; Algorithm 1 in the appendix says 2f+1 — we default to the
        main text and expose the alternative for the ablation bench.
    coin_threshold:
        GPC reveal threshold, ``"f+1"`` or ``"2f+1"`` (paper: "typically set
        to a value larger than f+1"; default 2f+1).
    retrieval_enabled:
        Enable the §IV-A block retrieval mechanism.  Disabling it is only
        safe in failure-free synchronous runs (used by one ablation).
    gc_depth:
        DAG garbage collection horizon in rounds, or ``None`` (keep
        everything — the paper's prototype behaviour).  When set, a
        committing leader only sweeps in uncommitted ancestors within
        ``gc_depth`` rounds below its own round (a *deterministic* cutoff,
        so all replicas commit identical sets), and blocks older than the
        settled frontier minus the depth are physically pruned.  This is
        the Narwhal-style memory bound a long-running deployment needs.
    """

    batch_size: int = 400
    tx_size: int = DEFAULT_TX_SIZE
    commit_threshold: str = "f+1"
    coin_threshold: str = "2f+1"
    retrieval_enabled: bool = True
    gc_depth: "int | None" = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.tx_size < 1:
            raise ConfigError(f"tx_size must be >= 1, got {self.tx_size}")
        for name in ("commit_threshold", "coin_threshold"):
            value = getattr(self, name)
            if value not in ("f+1", "2f+1"):
                raise ConfigError(f"{name} must be 'f+1' or '2f+1', got {value!r}")
        if self.gc_depth is not None and self.gc_depth < 4:
            raise ConfigError(
                "gc_depth below 4 rounds would garbage-collect live waves"
            )

    def resolve_commit_threshold(self, system: SystemConfig) -> int:
        """Concrete replica count behind :attr:`commit_threshold`."""
        return resolve_threshold(self.commit_threshold, system)

    def resolve_coin_threshold(self, system: SystemConfig) -> int:
        """Concrete replica count behind :attr:`coin_threshold`."""
        return resolve_threshold(self.coin_threshold, system)

    def with_updates(self, **kwargs: Any) -> "ProtocolConfig":
        """Return a copy with the given fields replaced (validated again)."""
        return replace(self, **kwargs)


def resolve_threshold(spec: str, system: SystemConfig) -> int:
    """Replica count behind a threshold name (``"n-f"`` is for protocol
    classes only: the config fields accept ``"f+1"`` / ``"2f+1"``)."""
    if spec == "f+1":
        return system.f + 1
    if spec == "2f+1":
        return 2 * system.f + 1
    if spec == "n-f":
        return system.quorum
    raise ConfigError(f"unknown threshold spec {spec!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of everything a single simulated run needs.

    This is the unit the harness sweeps over: a system, protocol knobs,
    network parameters, and the run duration.  Every replica proposes full
    batches (:class:`~repro.workload.txgen.Mempool`); open-loop client
    traffic is :mod:`repro.harness.loadtest`'s configuration.  Fault
    configuration lives with the adversary objects (``repro.adversary``),
    which are constructed per-run by the harness from ``adversary_name``.
    """

    system: SystemConfig
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    protocol_name: str = "lightdag2"
    adversary_name: str = "none"
    duration: float = 20.0
    warmup: float = 2.0
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    latency_model: str = "wan4"
    #: Per-message CPU cost at the receiver (µs); 0 disables the CPU model.
    #: Replica CPUs, not links, are what saturate first in real BFT
    #: deployments (every node processes Θ(n²) echo-class messages per
    #: round) — this term produces Fig. 13a's throughput decline at scale.
    cpu_fixed_us: float = 250.0
    #: Per-byte CPU cost at the receiver (ns/byte); hashing + copying.
    cpu_per_byte_ns: float = 20.0
    seed: int = 0
    #: How hard the harness checks the run (``repro.check``):
    #: ``"off"`` — no checks; ``"prefix"`` — post-run digest-prefix
    #: consistency only (historical default); ``"final"`` — prefix plus
    #: the post-run deep audit (per-node + cross-replica oracles);
    #: ``"full"`` — all of the above plus the mid-run invariant monitor
    #: on every honest replica's commit/deliver hooks.
    check_level: str = "prefix"

    def __post_init__(self) -> None:
        if self.check_level not in CHECK_LEVELS:
            raise ConfigError(
                f"check_level must be one of off/prefix/final/full, "
                f"got {self.check_level!r}"
            )
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ConfigError("warmup must be in [0, duration)")
        if self.bandwidth_bps <= 0:
            raise ConfigError("bandwidth must be positive")
        if self.cpu_fixed_us < 0 or self.cpu_per_byte_ns < 0:
            raise ConfigError("CPU costs cannot be negative")

    def with_updates(self, **kwargs: Any) -> "ExperimentConfig":
        """Return a copy with the given fields replaced (validated again)."""
        return replace(self, **kwargs)
