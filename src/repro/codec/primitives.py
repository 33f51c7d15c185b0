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
from typing import List, Optional

from ..errors import ReproError

#: Upper bound on any length field (64 MiB) — a malformed or malicious
#: length prefix must not trigger a giant allocation.
MAX_LENGTH = 64 * 1024 * 1024

_DOUBLE = struct.Struct("!d")


class CodecError(ReproError):
    """Malformed wire data."""


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
                break
        self._parts.append(bytes(out))
        return self

    def svarint(self, value: int) -> "Writer":
        """Zigzag-encoded signed varint."""
        zigzag = (value << 1) if value >= 0 else ((-value) << 1) - 1
        return self.uvarint(zigzag)

    def lp_bytes(self, value: bytes) -> "Writer":
        if len(value) > MAX_LENGTH:
            raise CodecError(f"byte string too long: {len(value)}")
        self.uvarint(len(value))
        self._parts.append(value)
        return self

    def lp_str(self, value: str) -> "Writer":
        return self.lp_bytes(value.encode("utf-8"))

    def bigint(self, value: int) -> "Writer":
        """Length-prefixed big-endian unsigned integer (0 encodes as empty)."""
        if value < 0:
            raise CodecError("bigint must be non-negative")
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""
        return self.lp_bytes(raw)

    def double(self, value: float) -> "Writer":
        self._parts.append(_DOUBLE.pack(value))
        return self

    def boolean(self, value: bool) -> "Writer":
        return self.byte(1 if value else 0)

    def optional_bytes(self, value: Optional[bytes]) -> "Writer":
        if value is None:
            return self.byte(0)
        self.byte(1)
        return self.lp_bytes(value)


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
        pos = self._pos
        end = len(data)
        shift = result = 0
        while pos < end and shift <= 70:
            b = data[pos]
            pos += 1
            result |= (b & 0x7F) << shift
            if b < 0x80:
                self._pos = pos
                return result
            shift += 7
        self._pos = pos
        if shift > 70:
            raise CodecError("varint too long")
        raise CodecError("truncated input: wanted 1 bytes, have 0")

    def svarint(self) -> int:
        raw = self.uvarint()
        return (raw >> 1) ^ -(raw & 1)

    def lp_bytes(self) -> bytes:
        length = self.uvarint()
        if length > MAX_LENGTH:
            raise CodecError(f"length prefix too large: {length}")
        return self._take(length)

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

    def boolean(self) -> bool:
        value = self.byte()
        if value not in (0, 1):
            raise CodecError(f"invalid boolean byte {value}")
        return bool(value)

    def optional_bytes(self) -> Optional[bytes]:
        present = self.byte()
        if present == 0:
            return None
        if present != 1:
            raise CodecError(f"invalid optional tag {present}")
        return self.lp_bytes()
