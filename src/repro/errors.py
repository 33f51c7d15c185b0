"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.  The
sub-hierarchy mirrors the major subsystems (crypto, DAG, broadcast, protocol,
network) and each exception carries enough context in its message to be
actionable without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """Raised when a configuration object is internally inconsistent.

    Examples: ``n < 3f + 1``, a commit threshold larger than the number of
    replicas, or a negative bandwidth.
    """


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class SignatureError(CryptoError):
    """A signature failed verification or was malformed."""


class ThresholdError(CryptoError):
    """Threshold-crypto failure: bad share, not enough shares, bad proof."""


class DagError(ReproError):
    """Base class for DAG-structure violations."""


class UnknownBlockError(DagError):
    """A referenced block is not present in the local store."""


class InvalidBlockError(DagError):
    """A block violates structural validity (Rule 1, bad round, bad parents)."""


class EquivocationDetected(DagError):
    """Two contradictory blocks were observed in the same slot.

    This is *not* fatal under LightDAG2 (PBC permits equivocation and the
    protocol handles it through Rules 2-4); the exception type is used by
    strict stores (LightDAG1 / baselines) where the consistency property of
    CBC/RBC makes a second block in a slot a protocol violation.
    """


class ProtocolError(ReproError):
    """A consensus-protocol invariant was violated at runtime."""


class SafetyViolation(ProtocolError):
    """Two non-faulty replicas committed different blocks at the same index.

    Raised only by the test/verification harness when comparing ledgers; a
    correct run must never produce it.
    """


class InvariantViolation(ProtocolError):
    """An invariant oracle (``repro.check``) found a broken protocol
    invariant — per-node (ledger shape, retrieval/store consistency,
    LightDAG2 Rule 2/3 bookkeeping) or cross-replica (leader-sequence or
    commit-metadata disagreement).

    Like :class:`SafetyViolation` this is a verdict of the checking
    machinery, not a runtime error of the protocols themselves; a correct
    run under any schedule must never produce it.
    """


class NetworkError(ReproError):
    """Transport-level failure in the TCP runtime."""


class SweepError(ReproError):
    """One or more runs of a sweep failed.

    Raised once every config has run, by
    :func:`repro.harness.parallel.run_sweep` and by
    :func:`repro.harness.loadtest.run_loadtest_sweep`.  ``results`` holds
    the successful results in input order, ``None`` at each failed index,
    so no neighbour's result is lost.  ``run_sweep`` also fills
    ``failures`` with the per-run
    :class:`~repro.harness.parallel.RunFailure`\\ s (traceback + replay
    command); a loadtest sweep names its failed rates in the message.
    """

    def __init__(self, message: str, failures=(), results=()):
        super().__init__(message)
        self.failures = tuple(failures)
        self.results = list(results)


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""
