"""Primitive binary encoders/decoders.

A tiny, allocation-conscious writer/reader pair.  All multi-byte integers
that have natural bounds use unsigned LEB128 varints; cryptographic
integers (group elements, scalars) are length-prefixed big-endian so the
encoding is modulus-agnostic; floats are fixed 8-byte IEEE-754.

Decoding is *strict*: any truncation, overlong varint, or trailing
garbage raises :class:`CodecError` — a remote peer must never be able to
desynchronize the stream parser silently.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Tuple, TypeVar

from ..errors import ReproError

#: Upper bound on any length field (64 MiB) — a malformed or malicious
#: length prefix must not trigger a giant allocation.
MAX_LENGTH = 64 * 1024 * 1024

_DOUBLE = struct.Struct("!d")

T = TypeVar("T")


class CodecError(ReproError):
    """Malformed wire data."""


#: ``ONE_BYTE[v]`` is the one-byte varint of ``v < 0x80``.
ONE_BYTE = tuple(bytes((v,)) for v in range(0x80))


def uvarint_bytes(value: int) -> bytes:
    """Unsigned LEB128 encoding of ``value`` (capped at 64 bits)."""
    if 0 <= value < 0x80:
        return ONE_BYTE[value]
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative {value}")
    if value >= 1 << 64:
        raise CodecError("uvarint is capped at 64 bits; use bigint")
    out = bytearray()
    while True:
        chunk = value & 0x7F
        value >>= 7
        if value:
            out.append(chunk | 0x80)
        else:
            out.append(chunk)
            return bytes(out)


def length_prefix(n: int) -> bytes:
    """The varint that precedes an ``n``-byte string."""
    if n < 0x80:
        return ONE_BYTE[n]
    if n > MAX_LENGTH:
        raise CodecError(f"byte string too long: {n}")
    return uvarint_bytes(n)


def bigint_bytes(value: int) -> bytes:
    """Length-prefixed big-endian unsigned integer (0 encodes as empty)."""
    if value < 0:
        raise CodecError("bigint must be non-negative")
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""
    return length_prefix(len(raw)) + raw


def read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """The varint at ``data[pos]`` and the offset after it (up to 11 bytes;
    non-minimal forms accepted)."""
    end = len(data)
    shift = result = 0
    while pos < end and shift <= 70:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, pos
        shift += 7
    if shift > 70:
        raise CodecError("varint too long")
    raise CodecError("truncated input: wanted 1 bytes, have 0")


def read_lp_bytes(data: bytes, pos: int) -> Tuple[bytes, int]:
    """The length-prefixed string at ``data[pos]`` and the offset after it."""
    n, pos = read_uvarint(data, pos)
    return _read_string(data, pos, n)


def _read_string(data: bytes, pos: int, n: int) -> Tuple[bytes, int]:
    """The ``n`` bytes a length prefix announced, at ``data[pos]``."""
    if n > MAX_LENGTH:
        raise CodecError(f"length prefix too large: {n}")
    end = pos + n
    if end > len(data):
        raise CodecError(f"truncated input: wanted {n} bytes, have {len(data) - pos}")
    return data[pos:end], end


class Writer:
    """Append-only binary writer."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def getvalue(self) -> bytes:
        return b"".join(self._parts)

    # -- primitives --------------------------------------------------------

    def byte(self, value: int) -> "Writer":
        if not 0 <= value <= 0xFF:
            raise CodecError(f"byte out of range: {value}")
        self._parts.append(bytes((value,)))
        return self

    def uvarint(self, value: int) -> "Writer":
        self._parts.append(uvarint_bytes(value))
        return self

    def lp_bytes(self, value: bytes) -> "Writer":
        self._parts += (length_prefix(len(value)), value)
        return self

    def bigint(self, value: int) -> "Writer":
        """Length-prefixed big-endian unsigned integer (0 encodes as empty)."""
        self._parts.append(bigint_bytes(value))
        return self

    def double(self, value: float) -> "Writer":
        self._parts.append(_DOUBLE.pack(value))
        return self

    def raw(self, value: bytes) -> "Writer":
        """Append bytes encoded elsewhere (a block from :mod:`.blocks`)."""
        self._parts.append(value)
        return self


class Reader:
    """Strict sequential binary reader."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_eof(self) -> None:
        if self.remaining:
            raise CodecError(f"{self.remaining} trailing bytes after message")

    def nested(self, decode: Callable[[bytes, int], Tuple[T, int]]) -> T:
        """Run a one-pass decoder ``decode(data, pos) -> (value, end)`` at
        the cursor and move past what it read."""
        value, self._pos = decode(self._data, self._pos)
        return value

    # Several calls per decoded field: each indexes the buffer itself.
    def _take(self, n: int) -> bytes:
        pos = self._pos
        out = self._data[pos:pos + n]
        if len(out) != n:
            raise CodecError(
                f"truncated input: wanted {n} bytes, have {self.remaining}"
            )
        self._pos = pos + n
        return out

    # -- primitives --------------------------------------------------------

    def byte(self) -> int:
        pos = self._pos
        if pos >= len(self._data):
            raise CodecError("truncated input: wanted 1 bytes, have 0")
        self._pos = pos + 1
        return self._data[pos]

    def uvarint(self) -> int:
        data = self._data
        start = self._pos
        if start < len(data) and data[start] < 0x80:  # one byte: most fields
            self._pos = start + 1
            return data[start]
        try:
            value, self._pos = read_uvarint(self._data, start)
        except CodecError:
            # A bad varint leaves the cursor where the scan stopped: after
            # the 11 bytes it allows, or at the end of the input.
            self._pos = min(start + 11, len(self._data))
            raise
        return value

    def lp_bytes(self) -> bytes:
        length = self.uvarint()
        value, self._pos = _read_string(self._data, self._pos, length)
        return value

    def lp_str(self) -> str:
        try:
            return self.lp_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8: {exc}") from None

    def bigint(self) -> int:
        raw = self.lp_bytes()
        return int.from_bytes(raw, "big") if raw else 0

    def double(self) -> float:
        return _DOUBLE.unpack(self._take(8))[0]
