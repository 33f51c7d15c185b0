"""Tests for repro.crypto.threshold: threshold PRF and DLEQ proofs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import threshold as threshold_mod
from repro.crypto.group import default_group
from repro.crypto.hashing import hash_fields
from repro.crypto.shamir import (
    integer_lagrange_at_zero,
    lagrange_at_zero,
    split_secret,
)
from repro.crypto.threshold import (
    DleqProof,
    PartialEval,
    ThresholdPRF,
    dleq_prove,
    dleq_verify,
    prf_output_to_int,
)
from repro.errors import ThresholdError


@pytest.fixture(scope="module")
def group():
    # A deal's view: the verification keys registered here go with the module.
    return default_group(256).for_deal()


def build_prfs(group, n=4, threshold=3, seed=0):
    rng = random.Random(seed)
    secret = group.random_scalar(rng)
    shares = split_secret(secret, threshold, n, group.q, rng)
    vks = {s.x - 1: group.exp(group.g, s.y) for s in shares}
    prfs = [ThresholdPRF(group, threshold, shares[i], vks) for i in range(n)]
    return secret, prfs


def reference_combine(group, partials):
    """The textbook form ``Π σ_j^{λ_j}`` with full-width ``λ_j`` mod q, one
    exponentiation per partial — what :meth:`ThresholdPRF.combine` computed
    before it moved to integer coefficients."""
    lam = lagrange_at_zero([p.index + 1 for p in partials], group.q)
    result = 1
    for partial in partials:
        result = result * pow(partial.value, lam[partial.index + 1], group.p) % group.p
    return result


class TestDleq:
    def test_roundtrip(self, group):
        g2 = group.hash_to_group("base2")
        h1, h2, proof = dleq_prove(group, 12345, group.g, g2)
        assert dleq_verify(group, group.g, h1, g2, h2, proof)

    def test_wrong_statement_rejected(self, group):
        g2 = group.hash_to_group("base2")
        h1, h2, proof = dleq_prove(group, 12345, group.g, g2)
        assert not dleq_verify(group, group.g, h1, g2, group.mul(h2, group.g), proof)

    def test_tampered_proof_rejected(self, group):
        g2 = group.hash_to_group("base2")
        h1, h2, proof = dleq_prove(group, 999, group.g, g2)
        bad = DleqProof(c=proof.c, s=(proof.s + 1) % group.q)
        assert not dleq_verify(group, group.g, h1, g2, h2, bad)

    def test_non_member_rejected(self, group):
        g2 = group.hash_to_group("base2")
        h1, h2, proof = dleq_prove(group, 55, group.g, g2)
        assert not dleq_verify(group, group.g, 0, g2, h2, proof)


class TestThresholdPRF:
    def test_combine_equals_direct_evaluation(self, group):
        secret, prfs = build_prfs(group)
        msg = hash_fields("wave", 1)
        partials = [prf.partial_eval(msg) for prf in prfs]
        combined = prfs[0].combine(msg, partials)
        h = prfs[0].input_element(msg)
        assert combined == group.exp(h, secret)

    def test_any_threshold_subset_combines_identically(self, group):
        _, prfs = build_prfs(group, n=5, threshold=3)
        msg = hash_fields("wave", 2)
        partials = [prf.partial_eval(msg) for prf in prfs]
        a = prfs[0].combine(msg, partials[:3])
        b = prfs[0].combine(msg, partials[2:])
        assert a == b

    def test_partials_verify(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        for prf in prfs:
            partial = prf.partial_eval(msg)
            assert prfs[0].verify_partial(msg, partial)

    def test_forged_partial_rejected(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        partial = prfs[1].partial_eval(msg)
        forged = PartialEval(index=2, value=partial.value, proof=partial.proof)
        assert not prfs[0].verify_partial(msg, forged)

    def test_unknown_index_rejected(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        partial = prfs[0].partial_eval(msg)
        alien = PartialEval(index=99, value=partial.value, proof=partial.proof)
        assert not prfs[0].verify_partial(msg, alien)

    def test_combine_with_bad_partial_raises(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        partials = [prf.partial_eval(msg) for prf in prfs[:3]]
        partials[1] = PartialEval(
            index=partials[1].index,
            value=group.mul(partials[1].value, group.g),
            proof=partials[1].proof,
        )
        with pytest.raises(ThresholdError, match="DLEQ"):
            prfs[0].combine(msg, partials)

    def test_bad_partial_raises_before_any_combining_arithmetic(self, group, monkeypatch):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        partials = [prf.partial_eval(msg) for prf in prfs[:3]]
        partials[2] = PartialEval(
            index=partials[2].index,
            value=group.mul(partials[2].value, group.g),
            proof=partials[2].proof,
        )

        def unreachable(points):
            raise AssertionError("coefficients requested for unverified partials")

        monkeypatch.setattr(threshold_mod, "integer_lagrange_at_zero", unreachable)
        with pytest.raises(ThresholdError, match="DLEQ"):
            prfs[0].combine(msg, partials)

    def test_combine_insufficient_raises(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        with pytest.raises(ThresholdError, match="distinct"):
            prfs[0].combine(msg, [prfs[0].partial_eval(msg)])

    def test_duplicate_partials_not_double_counted(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        p0 = prfs[0].partial_eval(msg)
        with pytest.raises(ThresholdError):
            prfs[0].combine(msg, [p0, p0, p0])

    def test_verifier_only_cannot_evaluate(self, group):
        _, prfs = build_prfs(group)
        observer = ThresholdPRF(group, 3, None, prfs[0].verification_keys)
        with pytest.raises(ThresholdError):
            observer.partial_eval(hash_fields("m"))

    def test_observer_can_combine(self, group):
        _, prfs = build_prfs(group)
        observer = ThresholdPRF(group, 3, None, prfs[0].verification_keys)
        msg = hash_fields("m")
        partials = [prf.partial_eval(msg) for prf in prfs[:3]]
        assert observer.combine(msg, partials) == prfs[0].combine(msg, partials)

    def test_distinct_messages_distinct_outputs(self, group):
        _, prfs = build_prfs(group)
        m1, m2 = hash_fields("a"), hash_fields("b")
        p1 = [prf.partial_eval(m1) for prf in prfs[:3]]
        p2 = [prf.partial_eval(m2) for prf in prfs[:3]]
        assert prfs[0].combine(m1, p1) != prfs[0].combine(m2, p2)

    def test_invalid_threshold_rejected(self, group):
        with pytest.raises(ThresholdError):
            ThresholdPRF(group, 0, None, {})


class TestIntegerCoefficients:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_same_coefficients_same_element(self, group, data):
        n = data.draw(st.integers(min_value=4, max_value=40), label="n")
        t = data.draw(st.integers(min_value=1, max_value=n), label="t")
        seed = data.draw(st.integers(min_value=0, max_value=2**32), label="seed")
        chosen = data.draw(st.permutations(range(n)), label="order")[:t]
        secret, prfs = build_prfs(group, n=n, threshold=t, seed=seed)

        points = [i + 1 for i in chosen]
        denominator, coeff = integer_lagrange_at_zero(points)
        inverse = pow(denominator, -1, group.q)
        reference = lagrange_at_zero(points, group.q)
        assert sorted(coeff) == sorted(points)
        for x in points:
            assert coeff[x] * inverse % group.q == reference[x]

        msg = hash_fields("wave", seed)
        partials = [prfs[i].partial_eval(msg) for i in chosen]
        combined = prfs[0].combine(msg, partials)
        assert combined == group.exp(prfs[0].input_element(msg), secret)
        assert combined == reference_combine(group, partials)

    def test_n64_threshold_43(self, group):
        # The paper's largest grid point: coefficients reach ~113 bits.
        secret, prfs = build_prfs(group, n=64, threshold=43, seed=64)
        msg = hash_fields("wave", 64)
        chosen = random.Random(43).sample(range(64), 43)
        partials = [prfs[i].partial_eval(msg) for i in chosen]
        denominator, coeff = integer_lagrange_at_zero([i + 1 for i in chosen])
        widest = max(denominator, *map(abs, coeff.values())).bit_length()
        assert 64 < widest < group.q.bit_length() // 2
        combined = prfs[7].combine(msg, partials)
        assert combined == group.exp(prfs[7].input_element(msg), secret)
        assert combined == reference_combine(group, partials)

    def test_coefficients_outgrowing_the_order_need_nothing_special(self):
        # A tiny group (p = 23, q = 11): the integer coefficients exceed q and
        # multi_exp's own reduction keeps the result h^s.
        from repro.crypto.group import SchnorrGroup

        tiny = SchnorrGroup(p=23, q=11, g=4)
        rng = random.Random(0)
        secret = 7
        shares = split_secret(secret, 6, 8, tiny.q, rng)
        vks = {s.x - 1: tiny.exp(tiny.g, s.y) for s in shares}
        prfs = [ThresholdPRF(tiny, 6, share, vks) for share in shares]
        msg = hash_fields("tiny")
        partials = [prf.partial_eval(msg) for prf in prfs[2:]]
        _, coeff = integer_lagrange_at_zero([p.index + 1 for p in partials])
        assert max(map(abs, coeff.values())) > tiny.q
        combined = prfs[0].combine(msg, partials)
        assert combined == tiny.exp(prfs[0].input_element(msg), secret)

    def test_points_are_validated_like_the_modular_form(self):
        with pytest.raises(ThresholdError, match="duplicate"):
            integer_lagrange_at_zero([1, 2, 2])
        with pytest.raises(ThresholdError, match="point 0"):
            integer_lagrange_at_zero([0, 1, 2])


class TestOutputMapping:
    def test_uniform_int_mapping_deterministic(self, group):
        x = group.exp(group.g, 7)
        assert prf_output_to_int(group, x) == prf_output_to_int(group, x)

    def test_distinct_elements_distinct_ints(self, group):
        a = group.exp(group.g, 7)
        b = group.exp(group.g, 8)
        assert prf_output_to_int(group, a) != prf_output_to_int(group, b)
