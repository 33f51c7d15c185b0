"""Fast-path arithmetic must agree bit-for-bit with the reference forms.

Fixed-base comb tables, simultaneous multi-exponentiation, and the
Jacobi-symbol membership test are pure accelerations — these tests pin
them to ``pow`` / naive products so a table bug can never change results.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import group as group_mod
from repro.crypto.group import SchnorrGroup, default_group, jacobi_symbol
from repro.crypto.primes import SAFE_PRIMES
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def group():
    # A fresh group (not the singleton) so registration state is ours.
    return SchnorrGroup.from_safe_prime(SAFE_PRIMES[256])


class TestFixedBaseTables:
    @settings(max_examples=25, deadline=None)
    @given(e=st.integers(min_value=0, max_value=2**256))
    def test_generator_table_matches_pow(self, e):
        group = default_group(256)
        assert group.exp(group.g, e) == pow(group.g, e % group.q, group.p)

    def test_registered_base_matches_pow(self, group):
        base = group.exp(group.g, 0xDEADBEEF)
        group.register_fixed_base(base)
        assert group.has_fixed_base(base)
        for e in (0, 1, 2, group.q - 1, 0x123456789ABCDEF, group.q // 3):
            assert group.exp_reduced(base, e) == pow(base, e, group.p)

    def test_unregistered_base_still_correct(self, group):
        base = group.exp(group.g, 7777)
        assert not group.has_fixed_base(base)
        assert group.exp(base, 12345) == pow(base, 12345, group.p)

    def test_register_rejects_non_member(self, group):
        # p-1 has order 2, not q.
        with pytest.raises(CryptoError):
            group.register_fixed_base(group.p - 1)

    def test_negative_exponent_is_inverse(self, group):
        x = group.exp(group.g, 42)
        assert group.mul(group.exp(x, 5), group.exp(x, -5)) == 1

    def test_built_table_count_is_bounded(self):
        # Bounded memory is "released with the deal": a deal's tables live
        # on its own view of the group, every registered base gets one (no
        # budget to run out of, no silent pow fallback), and the group the
        # view came from holds the generator's table and nothing else.
        shared = SchnorrGroup.from_safe_prime(SAFE_PRIMES[256])
        view = shared.for_deal()
        assert view == shared and view is not shared
        assert view._tables[view.g] is shared._tables[shared.g] is not None
        bases = [view.exp(view.g, 100 + i) for i in range(4)]
        view.register_fixed_bases(bases)
        for base in bases:
            assert view.exp_reduced(base, 0xABCDEF) == pow(base, 0xABCDEF, view.p)
            assert view._tables[base] is not None
            assert not shared.has_fixed_base(base)
        assert list(shared._tables) == [shared.g]

    def test_later_deals_are_not_starved_and_pin_nothing(self):
        # Regression: a process-wide budget of 96 built tables was spent by
        # the first three n=16 deals; every later deal's key exponentiation
        # was a plain pow for the life of the process, and the first deals'
        # tables (48 MiB) were never released.
        import gc
        import weakref

        from repro.config import SystemConfig
        from repro.crypto.keys import TrustedDealer

        shared = default_group(256)
        before = set(shared._tables)
        views = []
        for seed in range(11, 17):
            chains = TrustedDealer(SystemConfig(n=16, seed=seed)).deal()
            group = chains[0].group
            keys = [*chains[0].public_keys.values(),
                    *chains[0].coin_verification_keys.values()]
            for key in keys:
                assert group.exp_reduced(key, 12345) == pow(key, 12345, group.p)
            # (a) every key of every deal — the sixth as the first — took
            # the table path: its table exists after first use.
            assert all(group._tables[key] is not None for key in keys)
            assert group._tables[group.g] is shared._tables[shared.g]
            views.append(weakref.ref(group))
            del chains, group
        gc.collect()
        # (b) the deals are gone and took their tables with them.
        assert all(view() is None for view in views)
        assert set(shared._tables) == before

    def test_registered_exp_matches_pow_at_every_width_in_use(self, group):
        rng = random.Random(8)
        key = group.exp(group.g, 0xC0FFEE)
        group.register_fixed_base(key)
        for base in (group.g, key):
            for e in (0, 1, group.q - 1, *(rng.randrange(group.q) for _ in range(20))):
                assert group.exp_reduced(base, e) == pow(base, e, group.p)
        assert group._tables[group.g].bits == group_mod._WINDOW_BITS
        assert group._tables[key].bits == group_mod._KEY_WINDOW_BITS


class TestMultiExp:
    @settings(max_examples=25, deadline=None)
    @given(
        exps=st.lists(
            st.integers(min_value=0, max_value=2**256), min_size=0, max_size=4
        )
    )
    def test_matches_naive_product(self, exps):
        group = default_group(256)
        rng = random.Random(99)
        pairs = [
            (group.exp(group.g, rng.randrange(1, group.q)), e) for e in exps
        ]
        naive = 1
        for base, e in pairs:
            naive = naive * pow(base, e % group.q, group.p) % group.p
        assert group.multi_exp(pairs) == naive

    def test_empty_is_identity(self, group):
        assert group.multi_exp([]) == 1

    def test_dleq_shape(self, group):
        # The exact shape dleq_verify uses: (g^s) * (h^(q-c)).
        g, q = group.g, group.q
        h = group.exp(g, 31337)
        s, c = 123456789, 987654321
        expected = group.mul(group.exp(g, s), group.exp(h, q - c))
        assert group.multi_exp(((g, s), (h, q - c))) == expected


class TestMembership:
    def test_jacobi_matches_euler_criterion(self, group):
        rng = random.Random(5)
        for _ in range(20):
            x = rng.randrange(2, group.p)
            euler = pow(x, group.q, group.p) == 1
            assert (jacobi_symbol(x, group.p) == 1) == euler

    def test_members_and_non_members(self, group):
        assert group.is_member(group.g)
        assert group.is_member(group.exp(group.g, 123))
        assert not group.is_member(0)
        assert not group.is_member(group.p)
        assert not group.is_member(group.p - 1)  # order 2

    def test_registered_base_memoized(self, group):
        base = group.exp(group.g, 555)
        group.register_fixed_base(base)
        assert base in group._members
        assert group.is_member(base)
