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
from ..crypto.hashing import Digest, command_preimage, hash_bytes, hash_fields

#: ``uvarint(n)`` for every length that fits one byte.
_LEN1 = tuple(bytes((n,)) for n in range(128))


@dataclass(frozen=True)
class Command:
    """One client command: an id, the submitting client, opaque payload."""

    command_id: Digest
    client: str
    payload: bytes

    @classmethod
    def create(cls, client: str, payload: bytes, nonce: int) -> "Command":
        """A command whose id is ``hash_fields("cmd", client, nonce, payload)``."""
        return cls(hash_bytes(command_preimage(client, nonce, payload)), client, payload)

    def to_bytes(self) -> bytes:
        """A block payload item: ``lp_bytes(id) lp_str(client) lp_bytes(payload)``."""
        cid, client, payload = self.command_id, self.client.encode("utf-8"), self.payload
        if len(cid) < 128 and len(client) < 128 and len(payload) < 128:
            return b"".join((
                _LEN1[len(cid)], cid, _LEN1[len(client)], client,
                _LEN1[len(payload)], payload,
            ))
        return Writer().lp_bytes(cid).lp_bytes(client).lp_bytes(payload).getvalue()

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
