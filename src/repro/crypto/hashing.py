"""Hashing helpers shared across the library.

Block identifiers, broadcast tags, and coin inputs all reduce to SHA-256
digests.  :func:`hash_fields` provides a canonical, injective encoding of a
tuple of heterogeneous fields (ints, bytes, strings, nested tuples/lists)
so two different field tuples can never produce the same preimage — each
element is length-prefixed and type-tagged before hashing.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

#: A SHA-256 digest; the universal identifier type in this library.
Digest = bytes

#: Size of a digest in bytes (used by the network size model).
DIGEST_SIZE = 32

Field = Union[int, bytes, str, bool, None, tuple, list]


def hash_bytes(data: bytes) -> Digest:
    """SHA-256 of raw bytes."""
    return hashlib.sha256(data).digest()


#: Bound on the digest intern table.  When full the table is cleared
#: wholesale rather than LRU-evicted: interning is a best-effort space
#: optimization, and a clear costs one round of re-population while an
#: LRU would tax every hit.  65536 * 32 B ≈ 2 MiB of canonical digests —
#: far more distinct live digests than any run's working set.
_INTERN_CAP = 1 << 16

_intern_table: dict = {}


def intern_digest(digest: Digest) -> Digest:
    """Canonicalize a digest to one shared ``bytes`` instance.

    At n=100+ every replica decodes the same parent/echo digests from up
    to n peers, materializing n duplicate 32-byte objects per digest.
    Routing decoders through this table collapses them to one instance
    (~n× less digest garbage on the wire paths).  Purely a space
    optimization: digests are immutable values, equality and hashing are
    unchanged, so behaviour is identical whether or not two references
    alias.
    """
    table = _intern_table
    cached = table.get(digest)
    if cached is not None:
        return cached
    if len(table) >= _INTERN_CAP:
        table.clear()
    table[digest] = digest
    return digest


def _encode_fields(out: bytearray, fields: Union[tuple, list]) -> None:
    """Append the type-tagged, length-prefixed encoding of a field sequence
    (one call per nested sequence, not per field: every decoded block is hashed)."""
    out += b"T"
    out += len(fields).to_bytes(8, "big")
    for field in fields:
        if field is None:
            out += b"N"
        elif isinstance(field, bool):  # must precede int (bool is an int subclass)
            out += b"B1" if field else b"B0"
        elif isinstance(field, int):
            raw = field.to_bytes((field.bit_length() + 8) // 8 or 1, "big", signed=True)
            out += b"I"
            out += len(raw).to_bytes(4, "big")
            out += raw
        elif isinstance(field, bytes):
            out += b"Y"
            out += len(field).to_bytes(8, "big")
            out += field
        elif isinstance(field, str):
            raw = field.encode("utf-8")
            out += b"S"
            out += len(raw).to_bytes(8, "big")
            out += raw
        elif isinstance(field, (tuple, list)):
            _encode_fields(out, field)
        else:
            raise TypeError(f"unhashable field type {type(field).__name__}")


def hash_fields(*fields: Field) -> Digest:
    """Canonical injective hash of a heterogeneous field tuple.

    >>> hash_fields(1, b"x") != hash_fields(b"x", 1)
    True
    """
    preimage = bytearray()
    _encode_fields(preimage, fields)
    return hashlib.sha256(preimage).digest()


_CMD_HEAD = b"T" + (4).to_bytes(8, "big") + b"S" + (3).to_bytes(8, "big") + b"cmd"


def command_preimage(client: str, nonce: int, payload: bytes) -> bytes:
    """The bytes ``hash_fields("cmd", client, nonce, payload)`` hashes, built
    without the per-field type dispatch: one is hashed per client command."""
    name = client.encode("utf-8")
    raw = nonce.to_bytes((nonce.bit_length() + 8) // 8, "big", signed=True)
    return b"".join((
        _CMD_HEAD,
        b"S", len(name).to_bytes(8, "big"), name,
        b"I", len(raw).to_bytes(4, "big"), raw,
        b"Y", len(payload).to_bytes(8, "big"), payload,
    ))


def _field_bytes(field: Field) -> bytes:
    """One field as :func:`hash_fields` encodes it inside a sequence."""
    out = bytearray()
    _encode_fields(out, (field,))
    return bytes(out[9:])  # drop the one-element sequence header


_BLOCK_HEAD = b"T" + (11).to_bytes(8, "big") + _field_bytes("block")
_DET_HEAD = b"T" + (3).to_bytes(8, "big")
_EMPTY_SEQ = b"T" + bytes(8)
_Y32 = b"Y" + (32).to_bytes(8, "big")
_IS_32 = (32).__eq__


def _int_field(value: int) -> bytes:
    if type(value) is int:  # inline, as in command_preimage
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        return b"I" + len(raw).to_bytes(4, "big") + raw
    return _field_bytes(value)  # the generic path; a bool keeps its own tag


def _bytes_field(value: bytes) -> bytes:
    return b"Y" + len(value).to_bytes(8, "big") + value


def _bytes_seq(values) -> bytes:
    """A sequence of byte strings as :func:`hash_fields` nests it."""
    if not values:
        return _EMPTY_SEQ
    head = b"T" + len(values).to_bytes(8, "big")
    if all(map(_IS_32, map(len, values))):  # digests: one join, no per-item call
        return head + _Y32 + _Y32.join(values)
    return head + b"".join(map(_bytes_field, values))


def block_preimage(
    round_: int,
    author: int,
    parents,
    count: int,
    tx_size: int,
    submit_time_repr: str,
    items,
    repropose_index: int,
    proof_digests,
    determinations,
) -> bytes:
    """The bytes ``hash_fields("block", round_, author, tuple(parents), count,
    tx_size, submit_time_repr, items, repropose_index, tuple(proof_digests),
    tuple(determinations))`` hashes, built without the per-field type
    dispatch: every block made or decoded is hashed once.  ``parents``,
    ``items`` and ``proof_digests`` hold byte strings; each determination
    is ``(round, author, digest)``."""
    time_raw = submit_time_repr.encode("utf-8")
    out = [
        _BLOCK_HEAD, _int_field(round_), _int_field(author), _bytes_seq(parents),
        _int_field(count), _int_field(tx_size),
        b"S", len(time_raw).to_bytes(8, "big"), time_raw,
        _bytes_seq(items), _int_field(repropose_index), _bytes_seq(proof_digests),
        b"T", len(determinations).to_bytes(8, "big"),
    ]
    for r, a, digest in determinations:
        out += (_DET_HEAD, _int_field(r), _int_field(a), _bytes_field(digest))
    return b"".join(out)


def hash_to_int(*fields: Field) -> int:
    """Hash fields and interpret the digest as a big-endian integer."""
    return int.from_bytes(hash_fields(*fields), "big")


def merkle_root(leaves: Iterable[Digest]) -> Digest:
    """Simple binary Merkle root over a leaf list (empty list → zero hash).

    Used by the size/validation model for transaction batches; odd levels
    duplicate the last node (Bitcoin-style).
    """
    level = [hash_bytes(b"leaf:" + leaf) for leaf in leaves]
    if not level:
        return bytes(DIGEST_SIZE)
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            hash_bytes(b"node:" + level[i] + level[i + 1])
            for i in range(0, len(level), 2)
        ]
    return level[0]


def short_hex(digest: Digest, length: int = 8) -> str:
    """Human-readable prefix of a digest, for logs and reprs."""
    return digest.hex()[:length]
