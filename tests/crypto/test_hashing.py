"""Tests for repro.crypto.hashing: canonical field hashing and Merkle roots."""

import enum
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import (
    DIGEST_SIZE,
    block_preimage,
    hash_bytes,
    hash_fields,
    hash_to_int,
    merkle_root,
    short_hex,
)


class TestHashFields:
    def test_digest_size(self):
        assert len(hash_fields(1, "a")) == DIGEST_SIZE

    def test_deterministic(self):
        assert hash_fields(1, b"x", "y") == hash_fields(1, b"x", "y")

    def test_order_sensitive(self):
        assert hash_fields(1, 2) != hash_fields(2, 1)

    def test_type_tagging_int_vs_str(self):
        assert hash_fields(1) != hash_fields("1")

    def test_type_tagging_bytes_vs_str(self):
        assert hash_fields(b"abc") != hash_fields("abc")

    def test_bool_is_not_int(self):
        assert hash_fields(True) != hash_fields(1)
        assert hash_fields(False) != hash_fields(0)

    def test_none_is_distinct(self):
        assert hash_fields(None) != hash_fields(0)
        assert hash_fields(None) != hash_fields(b"")

    def test_nesting_is_not_flattening(self):
        assert hash_fields((1, 2), 3) != hash_fields(1, (2, 3))
        assert hash_fields((1,), (2,)) != hash_fields((1, 2))

    def test_empty_containers(self):
        assert hash_fields(()) != hash_fields(("",))

    def test_negative_ints(self):
        assert hash_fields(-1) != hash_fields(1)
        assert hash_fields(-256) != hash_fields(-255)

    def test_lists_and_tuples_equivalent(self):
        assert hash_fields([1, 2]) == hash_fields((1, 2))

    def test_unhashable_type_raises(self):
        with pytest.raises(TypeError):
            hash_fields(object())

    @given(st.integers(), st.integers())
    def test_injective_on_int_pairs(self, a, b):
        if a != b:
            assert hash_fields(a) != hash_fields(b)

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_concatenation_ambiguity_resolved(self, a, b):
        # ("ab","c") must differ from ("a","bc") — length prefixing at work.
        if a != b:
            assert hash_fields(a, b) != hash_fields(b, a) or a == b


class _MyInt(int):
    pass


class _MyBytes(bytes):
    pass


class _Colour(enum.IntEnum):
    RED = 3


#: Digests captured before ``hash_fields`` started building its preimage in
#: one buffer.  Block identities, coin inputs and golden run fingerprints all
#: hang off these bytes: they may never change.
PINNED = {
    "bool_before_int": (
        (True, 1, False, 0),
        "4f8a61762feaab60ce912aa064c63ee7e32fd703d421806c6f4c302f6d64b331",
    ),
    "ints": (
        (0, -1, 1, 127, 128, -128, -129, 255, 256, -256, 2**64, -(2**64), 2**255 - 19),
        "43803757ca2e6efcb1a2adf801fe6ba15324f97277dabbc5a9bb47a0def22c1c",
    ),
    "str": (
        ("", "abc", "h\u00e9llo \u2713"),
        "153038e249fe1f5a850b51d7ee2f0bd9c2a2f69fad6e7f551a7c13212e5a5ac8",
    ),
    "bytes": (
        (b"", b"\x00", bytes(range(40))),
        "13e88217fb9f247a68736bcf475c8f8247aa3c20c98326f9c1b8e34c343078e2",
    ),
    "none": (
        (None,),
        "65d18e9c904d335e4808f251a8c490bae134a0b13130a1bd40882ffc0dfba7b1",
    ),
    "nested": (
        ((1, [2, (b"x", "y")]), [], [[]], ((),)),
        "6302090f35c28e06ca0ff155d5f4d04710ee72d1f1c0b8646ded4102a264a957",
    ),
    "empty_tuple": (
        ((),),
        "22bfe617c604ecc9e9a78b562fc520cebf36ca23f5b8b3e2b2cf3d6f3b2cd385",
    ),
    "no_fields": (
        (),
        "0b39b13c0c1abca2eca24c1b5ad648abf55c10d9fb970656f1963a53a589a648",
    ),
    "subclasses": (
        (_MyInt(7), _MyBytes(b"seven"), _MyInt(-7), _Colour.RED),
        "437a97e891e2b9bb7114b602f897c5155a5c7835e47521a1f433350511ba2afa",
    ),
    "block_like": (
        (7, 2, (bytes(32), bytes([1]) * 32), (100, 128, 12.5.hex(), ()), 0, (),
         ((1, 2, bytes(32)),)),
        "6261b6e4d1faf139d9a9d7f2aa34a4c7e291cdbd2b51c424c573f8fe3f7b4129",
    ),
    # The fields of ``_pinned_block()``; its ``make_block`` digest is this one.
    "make_block": (
        ("block", 4100, 3, tuple(bytes.fromhex(h) for h in (
            "6274f8b5ffa103bcd22fb1fbaf725ffa332b6343f0152909cbf57a6b3e8774cc",
            "a4a34387a520badf7d5c88263a10c89fa55faa89b7a013adbc34589659eead4d",
            "a55d6a426e349af5f60bb479ba3ceb24a3f992c4e8aefeb5dfaf62f983e13836",
            "b7b99a9c52f2d2bd5df1f3bc2644300d91d97a39f9ed2add81c344c3097f7477",
         )), 16, 512, "1234.5678", (b"SET a 1",), 1,
         (bytes.fromhex("fc7e44ef1ced25129c947795821619375004bc6511f7190c979846cd70ba6e41"),)),
        "35633f30524d8bb42064a9162b28102eccf5eefaa78fc182f59fdba2de206999",
    ),
}


def _pinned_block():
    from repro.core.proofs import ByzantineProof
    from repro.dag.block import TxBatch, genesis_block, make_block

    parents = [genesis_block(a).digest for a in range(4)]
    proof = ByzantineProof(
        culprit=2, block_a=make_block(1, 2, parents[:1]),
        block_b=make_block(1, 2, parents[:1], repropose_index=1),
    )
    payload = TxBatch(count=16, tx_size=512, submit_time_sum=1234.5678,
                      sample=(77.125,), items=(b"SET a 1",))
    return make_block(4100, 3, parents, payload=payload, repropose_index=1,
                      byz_proofs=(proof,))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_digests(name):
    fields, digest = PINNED[name]
    assert hash_fields(*fields).hex() == digest


def test_make_block_digest_is_pinned():
    assert _pinned_block().digest.hex() == PINNED["make_block"][1]


_INTS = st.one_of(
    st.integers(0, 5000),  # rounds, authors, counts
    st.integers(0, 2**64),
    st.integers(-(2**64), 2**64).map(_MyInt),
    st.sampled_from([_Colour.RED, 127, 128, 32767, 32768, -1]),  # width steps
)
_DIGESTS = st.one_of(st.binary(min_size=32, max_size=32), st.binary(max_size=40))


class TestBlockPreimage:
    """``block_preimage`` is ``hash_fields("block", ...)`` built flat."""

    @settings(max_examples=300)
    @given(
        ints=st.tuples(*[_INTS] * 5),
        parents=st.lists(_DIGESTS, max_size=7),
        items=st.lists(st.binary(max_size=80), max_size=3),
        total=st.one_of(st.floats(), st.sampled_from([-0.0, math.inf, math.nan])),
        proofs=st.lists(_DIGESTS, max_size=3),
        share=st.one_of(st.none(), st.binary(max_size=300)),
    )
    def test_matches_hash_fields(self, ints, parents, items, total, proofs, share):
        """Ten fields without a coin share, eleven with one."""
        round_, author, count, tx_size, j = ints
        fields = (round_, author, parents, count, tx_size, repr(total), items, j, proofs)
        expected = [tuple(f) if isinstance(f, list) else f for f in fields]
        if share is not None:
            expected.append(share)
        assert hash_bytes(block_preimage(*fields, share)) == hash_fields(
            "block", *expected)

    def test_bool_keeps_its_tag(self):
        fields = (True, 0, (), 1, 2, "0.0", (), False, ())
        assert hash_bytes(block_preimage(*fields)) == hash_fields("block", *fields)


class TestHashToInt:
    def test_range(self):
        value = hash_to_int("x")
        assert 0 <= value < 2**256

    def test_matches_fields(self):
        assert hash_to_int(5) == int.from_bytes(hash_fields(5), "big")


class TestMerkleRoot:
    def test_empty(self):
        assert merkle_root([]) == bytes(DIGEST_SIZE)

    def test_single_leaf(self):
        leaf = hash_bytes(b"tx")
        assert merkle_root([leaf]) != leaf  # leaf-prefixed, not identity

    def test_order_sensitive(self):
        a, b = hash_bytes(b"a"), hash_bytes(b"b")
        assert merkle_root([a, b]) != merkle_root([b, a])

    def test_odd_leaf_count(self):
        leaves = [hash_bytes(bytes([i])) for i in range(3)]
        assert len(merkle_root(leaves)) == DIGEST_SIZE

    def test_deterministic(self):
        leaves = [hash_bytes(bytes([i])) for i in range(7)]
        assert merkle_root(leaves) == merkle_root(leaves)

    def test_second_preimage_guard(self):
        # A two-leaf tree differs from the single leaf equal to their parent.
        a, b = hash_bytes(b"a"), hash_bytes(b"b")
        two = merkle_root([a, b])
        assert merkle_root([two]) != two


class TestShortHex:
    def test_prefix(self):
        d = hash_bytes(b"z")
        assert d.hex().startswith(short_hex(d))
        assert len(short_hex(d, 12)) == 12


class TestInternDigest:
    def test_canonicalizes_equal_digests(self):
        from repro.crypto.hashing import intern_digest

        a = hash_bytes(b"block")
        b = bytes(bytearray(a))  # equal value, distinct object
        assert a is not b
        assert intern_digest(a) is intern_digest(b)

    def test_value_unchanged(self):
        from repro.crypto.hashing import intern_digest

        d = hash_bytes(b"x")
        assert intern_digest(d) == d

    def test_cap_clears_wholesale(self):
        """When the table fills it is cleared, not grown — interning is a
        best-effort space optimization, never an unbounded cache."""
        from repro.crypto import hashing

        saved = dict(hashing._intern_table)
        try:
            hashing._intern_table.clear()
            hashing._intern_table.update(
                {bytes([i % 256, i // 256]) * 16: bytes(32)
                 for i in range(hashing._INTERN_CAP)}
            )
            fresh = hash_bytes(b"overflow")
            assert hashing.intern_digest(fresh) is fresh
            assert len(hashing._intern_table) == 1  # cleared, then re-seeded
        finally:
            hashing._intern_table.clear()
            hashing._intern_table.update(saved)

    def test_decoded_blocks_share_parent_digests(self):
        """The codec routes parents through the intern table: decoding the
        same block twice yields identical (not merely equal) parent refs."""
        from repro.codec.blocks import block_from_bytes, block_to_bytes
        from repro.dag.block import genesis_block, make_block

        parents = [genesis_block(a).digest for a in range(4)]
        wire = block_to_bytes(make_block(1, 0, parents))
        first = block_from_bytes(wire)
        second = block_from_bytes(wire)
        for p, q in zip(first.parents, second.parents):
            assert p is q
        assert first.digest is second.digest
