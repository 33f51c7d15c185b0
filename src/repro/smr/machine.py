"""The deterministic state-machine interface.

SMR's contract: if every replica applies the same command sequence to the
same initial state through a *deterministic* ``apply``, all replicas hold
identical state forever.  Consensus (Theorem 2/6) supplies the identical
sequence; this module defines what the application must supply.

Commands carry a globally unique ``command_id`` and the client's session
window, so the replication layer can guarantee exactly-once application
even when consensus legitimately commits the same payload twice (LightDAG2
reproposals, client retries) while remembering only the commands whose
outcome the client may still ask for:

* ``nonce`` — the client's sequence number; the id is derived from it;
* ``floor`` — the client's lowest nonce it may still submit or retry.
  Every nonce below it is *settled* for that client: answered, or given
  up.  ``0 <= floor <= nonce``.

A block payload item is, in order::

    lp_bytes(command_id) lp_str(client) uvarint(nonce) uvarint(floor) lp_bytes(payload)

A nonce or floor under 128 is one byte, under 16 384 two.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..codec.primitives import ONE_BYTE, CodecError, Reader, Writer
from ..crypto.hashing import Digest, command_preimage, hash_bytes, hash_fields


@dataclass(frozen=True, slots=True)
class Command:
    """One client command: id, submitting client, session stamp, payload."""

    command_id: Digest
    client: str
    nonce: int
    floor: int
    payload: bytes

    @classmethod
    def create(cls, client: str, payload: bytes, nonce: int, floor: int = 0) -> "Command":
        """A command whose id is ``hash_fields("cmd", client, nonce, payload)``."""
        if not 0 <= floor <= nonce:
            raise ValueError(f"need 0 <= floor <= nonce, got floor {floor}, nonce {nonce}")
        return cls(
            hash_bytes(command_preimage(client, nonce, payload)), client, nonce, floor, payload
        )

    def to_bytes(self) -> bytes:
        """A block payload item (layout in the module docstring)."""
        cid, client, payload = self.command_id, self.client.encode("utf-8"), self.payload
        nonce, floor = self.nonce, self.floor
        if len(cid) < 128 and len(client) < 128 and len(payload) < 128 and nonce < 0x4000:
            return b"".join((  # floor <= nonce: both varints are one or two bytes
                ONE_BYTE[len(cid)], cid, ONE_BYTE[len(client)], client,
                ONE_BYTE[nonce] if nonce < 128 else bytes((nonce & 0x7F | 0x80, nonce >> 7)),
                ONE_BYTE[floor] if floor < 128 else bytes((floor & 0x7F | 0x80, floor >> 7)),
                ONE_BYTE[len(payload)], payload,
            ))
        return (
            Writer().lp_bytes(cid).lp_bytes(client).uvarint(nonce)
            .uvarint(floor).lp_bytes(payload).getvalue()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Command":
        r = Reader(data)
        command = cls(
            command_id=r.lp_bytes(), client=r.lp_str(), nonce=r.uvarint(),
            floor=r.uvarint(), payload=r.lp_bytes(),
        )
        r.expect_eof()
        if command.floor > command.nonce:
            raise CodecError(f"floor {command.floor} above nonce {command.nonce}")
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
