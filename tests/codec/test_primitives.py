"""Tests for repro.codec.primitives: writer/reader round-trips and strictness."""

import pytest
from hypothesis import example, given, strategies as st

from repro.codec.primitives import CodecError, Reader, Writer


class TestRoundTrips:
    def test_byte(self):
        data = Writer().byte(0).byte(255).getvalue()
        r = Reader(data)
        assert (r.byte(), r.byte()) == (0, 255)
        r.expect_eof()

    def test_uvarint_boundaries(self):
        values = [0, 1, 127, 128, 16383, 16384, 2**32, 2**64 - 1]
        w = Writer()
        for v in values:
            w.uvarint(v)
        r = Reader(w.getvalue())
        assert [r.uvarint() for _ in values] == values

    def test_svarint_signs(self):
        values = [0, 1, -1, 63, -64, 2**40, -(2**40)]
        w = Writer()
        for v in values:
            w.svarint(v)
        r = Reader(w.getvalue())
        assert [r.svarint() for _ in values] == values

    def test_lp_bytes(self):
        data = Writer().lp_bytes(b"").lp_bytes(b"hello").getvalue()
        r = Reader(data)
        assert r.lp_bytes() == b""
        assert r.lp_bytes() == b"hello"

    def test_lp_str_unicode(self):
        data = Writer().lp_str("héllo ✓").getvalue()
        assert Reader(data).lp_str() == "héllo ✓"

    def test_bigint(self):
        values = [0, 1, 255, 256, 2**255 - 19, 2**512]
        w = Writer()
        for v in values:
            w.bigint(v)
        r = Reader(w.getvalue())
        assert [r.bigint() for _ in values] == values

    def test_double(self):
        values = [0.0, -1.5, 3.141592653589793, 1e308, 5e-324]
        w = Writer()
        for v in values:
            w.double(v)
        r = Reader(w.getvalue())
        assert [r.double() for _ in values] == values

    def test_boolean(self):
        data = Writer().boolean(True).boolean(False).getvalue()
        r = Reader(data)
        assert (r.boolean(), r.boolean()) == (True, False)

    def test_optional_bytes(self):
        data = Writer().optional_bytes(None).optional_bytes(b"x").getvalue()
        r = Reader(data)
        assert r.optional_bytes() is None
        assert r.optional_bytes() == b"x"


class TestStrictness:
    def test_truncated_raises(self):
        data = Writer().lp_bytes(b"hello").getvalue()
        with pytest.raises(CodecError, match="truncated"):
            Reader(data[:-2]).lp_bytes()

    def test_trailing_garbage_detected(self):
        r = Reader(b"\x00\xff")
        r.byte()
        with pytest.raises(CodecError, match="trailing"):
            r.expect_eof()

    def test_overlong_varint_rejected(self):
        with pytest.raises(CodecError, match="varint"):
            Reader(b"\xff" * 11).uvarint()

    def test_huge_length_prefix_rejected(self):
        data = Writer().uvarint(2**40).getvalue()
        with pytest.raises(CodecError, match="length"):
            Reader(data).lp_bytes()

    def test_invalid_boolean(self):
        with pytest.raises(CodecError):
            Reader(b"\x02").boolean()

    def test_invalid_optional_tag(self):
        with pytest.raises(CodecError):
            Reader(b"\x07").optional_bytes()

    def test_negative_writer_inputs(self):
        with pytest.raises(CodecError):
            Writer().uvarint(-1)
        with pytest.raises(CodecError):
            Writer().uvarint(2**64)
        with pytest.raises(CodecError):
            Writer().bigint(-1)
        with pytest.raises(CodecError):
            Writer().byte(300)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_property_uvarint_roundtrip(value):
    assert Reader(Writer().uvarint(value).getvalue()).uvarint() == value


@given(st.integers(min_value=-(2**62), max_value=2**62))
def test_property_svarint_roundtrip(value):
    assert Reader(Writer().svarint(value).getvalue()).svarint() == value


@given(st.binary(max_size=512))
def test_property_lp_bytes_roundtrip(value):
    assert Reader(Writer().lp_bytes(value).getvalue()).lp_bytes() == value


@given(st.lists(st.binary(max_size=64), max_size=8))
def test_property_sequences_self_delimiting(chunks):
    """Concatenated encodings decode back to the same chunk list —
    no framing ambiguity."""
    w = Writer()
    for chunk in chunks:
        w.lp_bytes(chunk)
    r = Reader(w.getvalue())
    assert [r.lp_bytes() for _ in chunks] == chunks
    r.expect_eof()


class OldReader(Reader):
    """``byte``/``uvarint``/``_take`` as they were before they started
    indexing the buffer themselves: the reference the live ones must match."""

    __slots__ = ()

    def _take(self, n):
        if n > self.remaining:
            raise CodecError(f"truncated input: wanted {n} bytes, have {self.remaining}")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def byte(self):
        return self._take(1)[0]

    def uvarint(self):
        shift = 0
        result = 0
        while True:
            if shift > 70:
                raise CodecError("varint too long")
            b = self.byte()
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                return result
            shift += 7


READS = ("byte", "uvarint", "svarint", "lp_bytes", "lp_str", "bigint", "double",
         "boolean", "optional_bytes")


def _valid_stream(draw):
    """A well-formed encoding, optionally with one mutation."""
    w = Writer()
    ops = draw(st.lists(st.sampled_from(READS), max_size=6))
    for op in ops:
        if op in ("uvarint", "bigint"):
            getattr(w, op)(draw(st.integers(0, 2**64 - 1)))
        elif op == "svarint":
            w.svarint(draw(st.integers(-(2**62), 2**62)))
        elif op == "byte":
            w.byte(draw(st.integers(0, 255)))
        elif op == "lp_str":
            # An explicit alphabet: st.text() alone builds hypothesis's unicode
            # table on first use (seconds on a fresh checkout: too_slow).
            w.lp_str(draw(st.text("aé✓\x00", max_size=8)))
        elif op == "double":
            w.double(draw(st.floats(allow_nan=False)))
        elif op == "boolean":
            w.boolean(draw(st.booleans()))
        elif op == "optional_bytes":
            w.optional_bytes(draw(st.none() | st.binary(max_size=8)))
        else:
            w.lp_bytes(draw(st.binary(max_size=8)))
    data = bytearray(w.getvalue())
    mutation = draw(st.sampled_from(("none", "truncate", "flip", "continue")))
    if data and mutation == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif data and mutation == "flip":
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    elif mutation == "continue":  # a run of continuation bytes: overlong varints
        at = draw(st.integers(0, len(data)))
        data[at:at] = b"\xff" * draw(st.integers(1, 12))
    return bytes(data), ops


@given(
    st.one_of(
        st.composite(_valid_stream)(),
        st.tuples(st.binary(max_size=40), st.lists(st.sampled_from(READS), max_size=6)),
    )
)
@example((b"\x00\x7f\xf0\x01\x00\x00\x00\x00\x00", ["byte", "double"]))  # decodes a NaN
def test_property_reader_matches_the_old_reader(case):
    """Same values, same position, CodecError in exactly the same cases and
    with the same message — on valid, mutated and random input."""
    data, ops = case
    new, old = Reader(data), OldReader(data)
    for op in [*ops, "expect_eof"]:
        outcomes = []
        for reader in (new, old):
            try:
                outcomes.append(("ok", getattr(reader, op)()))
            except CodecError as exc:
                outcomes.append(("error", str(exc)))
        # repr, not ==: ``double`` decodes NaN from random bytes, and nan != nan.
        assert repr(outcomes[0]) == repr(outcomes[1]), op
        assert new._pos == old._pos, op
        if outcomes[0][0] == "error":
            break


@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "truncated input: wanted 1 bytes, have 0"),
        (b"\x80", "truncated input: wanted 1 bytes, have 0"),  # inside a varint
        (b"\xff" * 10 + b"\x01", None),  # 11 bytes: the longest accepted
        (b"\xff" * 11 + b"\x01", "varint too long"),
    ],
)
def test_uvarint_edges_match_the_old_reader(data, message):
    new, old = Reader(data), OldReader(data)
    if message is None:
        assert new.uvarint() == old.uvarint()
    else:
        for reader in (new, old):
            with pytest.raises(CodecError, match=message):
                reader.uvarint()
    assert new._pos == old._pos
