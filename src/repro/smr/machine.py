"""The deterministic state-machine interface.

SMR's contract: if every replica applies the same command sequence to the
same initial state through a *deterministic* ``apply``, all replicas hold
identical state forever.  Consensus (Theorem 2/6) supplies the identical
sequence; this module defines what the application must supply.

Commands carry a globally unique ``command_id`` so the replication layer
can guarantee exactly-once application even when consensus legitimately
commits the same payload twice (LightDAG2 reproposals, client retries).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..codec.primitives import Reader, Writer
from ..crypto.hashing import Digest, hash_fields


@dataclass(frozen=True)
class Command:
    """One client command: an id, the submitting client, opaque payload."""

    command_id: Digest
    client: str
    payload: bytes

    @classmethod
    def create(cls, client: str, payload: bytes, nonce: int) -> "Command":
        """Build a command with a collision-resistant id."""
        return cls(
            command_id=hash_fields("cmd", client, nonce, payload),
            client=client,
            payload=payload,
        )

    def to_bytes(self) -> bytes:
        """Encoding used inside block payload items."""
        w = Writer()
        w.lp_bytes(self.command_id)
        w.lp_str(self.client)
        w.lp_bytes(self.payload)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Command":
        r = Reader(data)
        command = cls(
            command_id=r.lp_bytes(), client=r.lp_str(), payload=r.lp_bytes()
        )
        r.expect_eof()
        return command


class StateMachine(ABC):
    """Deterministic application logic replicated across the cluster.

    Implementations must be pure functions of (state, command): no clocks,
    no randomness, no I/O — anything nondeterministic diverges replicas.
    """

    @abstractmethod
    def apply(self, command: Command) -> bytes:
        """Apply one committed command; return the client-visible result."""

    @abstractmethod
    def snapshot(self) -> bytes:
        """Serialize the current state (for divergence checks / catch-up)."""

    def state_digest(self) -> Digest:
        """Hash of the snapshot — the cheap cross-replica equality check."""
        return hash_fields("sm-state", self.snapshot())
