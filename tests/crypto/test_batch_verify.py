"""Property tests for batch signature verification and the verify memos.

The three guarantees the hot-path overhaul must not bend:

* ``verify_batch`` accepts exactly when every individual verify accepts;
* bisection (``schnorr_batch_invalid`` / ``invalid_in_batch``) pinpoints
  *exactly* the forged entries — Byzantine attribution is unchanged;
* the verify-once memo never caches a negative result and never answers
  across signers, messages, or signature bytes.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.crypto.backend import SchnorrBackend
from repro.crypto.group import default_group
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import TrustedDealer
from repro.crypto.memo import VerifiedMemo
from repro.crypto.schnorr import (
    SchnorrSignature,
    _challenge,
    schnorr_batch_invalid,
    schnorr_sign,
    schnorr_verify,
    schnorr_verify_batch,
)

N = 7
GROUP = default_group(256)
CHAINS = TrustedDealer(SystemConfig(n=N, crypto="schnorr", seed=3)).deal()
KEYPAIRS = [chain.keypair for chain in CHAINS]


def _claims(count: int, label: str = "batch"):
    """(pk, digest, signature) claims signed by round-robin replicas."""
    out = []
    for i in range(count):
        kp = KEYPAIRS[i % N]
        digest = hash_fields(label, i)
        out.append((kp.pk, digest, schnorr_sign(GROUP, kp, digest)))
    return out


def _forge(claim, mode=0):
    """Two forgery shapes: a tampered response scalar (mode 0) and a
    negated commitment with the *genuine* response (mode 1).  Mode 1 is
    the small-order attack surface: each such signature fails individual
    verification, but pairs of them cancel in the batch product unless
    the batch subgroup-checks every commitment."""
    pk, digest, sig = claim
    if mode == 0:
        return (pk, digest, SchnorrSignature(R=sig.R, s=(sig.s + 1) % GROUP.q))
    return (pk, digest, SchnorrSignature(R=GROUP.p - sig.R, s=sig.s))


class TestBatchAgainstIndividual:
    @settings(max_examples=25, deadline=None)
    @given(
        count=st.integers(min_value=0, max_value=12),
        forged=st.dictionaries(
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=1),
        ),
    )
    def test_accepts_iff_every_individual_accepts(self, count, forged):
        claims = _claims(count)
        for i, mode in sorted(forged.items()):
            if i < count:
                claims[i] = _forge(claims[i], mode)
        individual = all(schnorr_verify(GROUP, *c) for c in claims)
        assert schnorr_verify_batch(GROUP, claims) == individual

    @settings(max_examples=25, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=12),
        forged=st.dictionaries(
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=1),
        ),
    )
    def test_bisection_pinpoints_exactly_the_forged(self, count, forged):
        claims = _claims(count, "bisect")
        expected = sorted(i for i in forged if i < count)
        for i in expected:
            claims[i] = _forge(claims[i], forged[i])
        assert schnorr_batch_invalid(GROUP, claims) == expected

    def test_empty_batch_is_vacuously_valid(self):
        assert schnorr_verify_batch(GROUP, [])
        assert schnorr_batch_invalid(GROUP, []) == []

    def test_repeated_signer_batches(self):
        kp = KEYPAIRS[0]
        claims = []
        for i in range(6):
            digest = hash_fields("same-signer", i)
            claims.append((kp.pk, digest, schnorr_sign(GROUP, kp, digest)))
        assert schnorr_verify_batch(GROUP, claims)
        claims[4] = _forge(claims[4])
        assert not schnorr_verify_batch(GROUP, claims)
        assert schnorr_batch_invalid(GROUP, claims) == [4]


def _negated_commitment_pair(label):
    """A Byzantine signer's paired forgery: for each message it picks a
    nonce ``k``, publishes the *non-residue* commitment ``R = -g^k``, and
    computes the response against that R with its own secret key.  Each
    signature fails :func:`schnorr_verify` (the equation forces R into the
    subgroup), but because batch coefficients are odd, the two sign flips
    cancel in ``Π R_i^{z_i}`` — so a batch verifier that skips commitment
    membership would accept the pair and attribute nothing."""
    kp = KEYPAIRS[0]
    claims = []
    for i in range(2):
        digest = hash_fields(label, i)
        k = GROUP.scalar_from_hash("attack-nonce", label, i)
        commitment = GROUP.p - GROUP.exp_reduced(GROUP.g, k)  # -g^k
        c = _challenge(GROUP, commitment, kp.pk, digest)
        s = (k + c * kp.sk) % GROUP.q
        claims.append((kp.pk, digest, SchnorrSignature(R=commitment, s=s)))
    return claims


class TestCommitmentMembership:
    """Regression: batch == individual must hold for non-residue commitments."""

    def test_each_half_of_the_pair_fails_individually(self):
        for claim in _negated_commitment_pair("nr-individual"):
            assert not schnorr_verify(GROUP, *claim)

    def test_batch_rejects_the_cancelling_pair(self):
        claims = _negated_commitment_pair("nr-pair")
        assert not schnorr_verify_batch(GROUP, claims)
        assert schnorr_batch_invalid(GROUP, claims) == [0, 1]

    def test_pair_buried_in_valid_claims_is_localized(self):
        claims = _claims(5, "nr-mix") + _negated_commitment_pair("nr-mix")
        assert not schnorr_verify_batch(GROUP, claims)
        assert schnorr_batch_invalid(GROUP, claims) == [5, 6]

    def test_backend_rejects_pair_and_never_poisons_the_memo(self):
        backend = SchnorrBackend(CHAINS[0])
        items = [
            (0, digest, sig)
            for _pk, digest, sig in _negated_commitment_pair("nr-memo")
        ]
        assert not backend.verify_batch(items)
        assert backend.invalid_in_batch(items) == [0, 1]
        # Neither forged claim was cached as verified, so the single-verify
        # path keeps rejecting them — acceptance is not path-dependent.
        for signer, digest, sig in items:
            assert ("schnorr", signer, digest, sig) not in backend._verified
            assert not backend.verify(signer, digest, sig)

    def test_out_of_range_commitment_rejected_without_arithmetic(self):
        backend = SchnorrBackend(CHAINS[0])
        digest = hash_fields("nr-range")
        genuine = schnorr_sign(GROUP, KEYPAIRS[0], digest)
        for bad in (
            SchnorrSignature(R=0, s=genuine.s),
            SchnorrSignature(R=GROUP.p, s=genuine.s),
            SchnorrSignature(R=genuine.R, s=GROUP.q),
        ):
            assert not backend.verify_batch([(0, digest, bad)])
            assert backend.invalid_in_batch([(0, digest, bad)]) == [0]


class TestBackendBatch:
    def _backend(self):
        return SchnorrBackend(CHAINS[0])

    def _items(self, count, label="items"):
        out = []
        for i in range(count):
            signer = i % N
            digest = hash_fields(label, i)
            sig = schnorr_sign(GROUP, KEYPAIRS[signer], digest)
            out.append((signer, digest, sig))
        return out

    def test_verify_batch_true_seeds_memo(self):
        backend = self._backend()
        items = self._items(8)
        assert backend.verify_batch(items)
        for signer, digest, sig in items:
            assert ("schnorr", signer, digest, sig) in backend._verified

    def test_verify_batch_false_on_any_forgery(self):
        backend = self._backend()
        items = self._items(8, "forged")
        signer, digest, sig = items[2]
        items[2] = (signer, digest, SchnorrSignature(R=sig.R, s=(sig.s + 3) % GROUP.q))
        assert not backend.verify_batch(items)
        # The forged claim must not be cached.
        assert ("schnorr", *items[2]) not in backend._verified

    def test_invalid_in_batch_matches_individual_sweep(self):
        backend = self._backend()
        items = self._items(9, "sweep")
        signer, digest, sig = items[1]
        items[1] = (signer, digest, SchnorrSignature(R=sig.R, s=(sig.s + 1) % GROUP.q))
        items[5] = (99, items[5][1], items[5][2])  # unknown signer
        items[7] = (items[7][0], items[7][1], b"mac-bytes")  # wrong type
        reference = SchnorrBackend(CHAINS[1])
        expected = [
            i for i, it in enumerate(items) if not reference.verify(*it)
        ]
        assert backend.invalid_in_batch(items) == expected == [1, 5, 7]

    def test_batch_with_all_items_cached_short_circuits(self):
        backend = self._backend()
        items = self._items(5, "cached")
        assert backend.verify_batch(items)
        # Second call: everything is memoized; still True.
        assert backend.verify_batch(items)


class TestVerifyOnceMemoSafety:
    def test_negative_results_never_cached(self):
        backend = SchnorrBackend(CHAINS[0])
        digest = hash_fields("neg")
        sig = schnorr_sign(GROUP, KEYPAIRS[1], digest)
        bad = SchnorrSignature(R=sig.R, s=(sig.s + 1) % GROUP.q)
        before = len(backend._verified)  # the deal's memo, shared by CHAINS
        for _ in range(3):
            assert not backend.verify(1, digest, bad)
        assert len(backend._verified) == before

    def test_hit_requires_exact_signer(self):
        backend = SchnorrBackend(CHAINS[0])
        digest = hash_fields("cross-signer")
        sig = schnorr_sign(GROUP, KEYPAIRS[1], digest)
        assert backend.verify(1, digest, sig)
        # Same digest+signature claimed by a different signer: a fresh
        # verification (which fails) — never a cache hit.
        assert not backend.verify(2, digest, sig)

    def test_hit_requires_exact_message_and_signature(self):
        backend = SchnorrBackend(CHAINS[0])
        digest = hash_fields("exact")
        sig = schnorr_sign(GROUP, KEYPAIRS[1], digest)
        assert backend.verify(1, digest, sig)
        assert not backend.verify(1, hash_fields("other"), sig)
        assert not backend.verify(
            1, digest, SchnorrSignature(R=sig.R, s=(sig.s + 1) % GROUP.q)
        )

    @settings(max_examples=15, deadline=None)
    @given(tamper=st.integers(min_value=1, max_value=2**31))
    def test_memo_never_flips_a_rejection(self, tamper):
        backend = SchnorrBackend(CHAINS[0])
        digest = hash_fields("flip")
        sig = schnorr_sign(GROUP, KEYPAIRS[1], digest)
        assert backend.verify(1, digest, sig)  # cache the genuine claim
        bad = SchnorrSignature(R=sig.R, s=(sig.s + tamper) % GROUP.q)
        if bad != sig:
            assert not backend.verify(1, digest, bad)

    def test_memo_capacity_bounds_and_fifo_eviction(self):
        memo = VerifiedMemo(capacity=3)
        for key in ("a", "b", "c"):
            memo.add(key)
        assert len(memo) == 3
        memo.add("d")  # evicts "a"
        assert len(memo) == 3
        assert "a" not in memo and "d" in memo and "b" in memo

    def test_memo_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            VerifiedMemo(capacity=0)

    def test_eviction_only_costs_a_reverify(self):
        memo = VerifiedMemo(2)
        backend = SchnorrBackend(dataclasses.replace(CHAINS[0], verified=memo))
        digests = [hash_fields("evict", i) for i in range(4)]
        sigs = [schnorr_sign(GROUP, KEYPAIRS[1], d) for d in digests]
        for d, s in zip(digests, sigs):
            assert backend.verify(1, d, s)
        assert len(memo) == 2
        # The oldest claims were evicted; they still verify (slow path).
        for d, s in zip(digests, sigs):
            assert backend.verify(1, d, s)


class TestCoinDedupBeforeVerify:
    def test_duplicate_share_skips_verification(self, monkeypatch):
        from repro.crypto.coin import ThresholdCoin

        coins = [ThresholdCoin(chain) for chain in CHAINS]
        share = coins[1].make_share(7)
        calls = []
        real_verify = ThresholdCoin.verify_share

        def counting_verify(self, s):
            calls.append(1)
            return real_verify(self, s)

        monkeypatch.setattr(ThresholdCoin, "verify_share", counting_verify)
        coins[0].add_share(share)
        assert len(calls) == 1
        coins[0].add_share(share)  # duplicate: dict lookup, no DLEQ check
        assert len(calls) == 1


class TestThresholdVerifyMemo:
    def test_verify_partial_memoized_positive_only(self):
        from repro.crypto.coin import ThresholdCoin

        coins = [ThresholdCoin(chain) for chain in CHAINS]
        share = coins[1].make_share(4)
        prf = coins[0].prf
        message = coins[0]._coin_input(4)
        assert prf.verify_partial(message, share.payload)
        key = (
            "dleq",
            share.payload.index,
            message,
            share.payload.value,
            share.payload.proof,
        )
        assert key in prf._verified
        # A tampered proof is rejected and stays out of the memo.
        from repro.crypto.threshold import DleqProof, PartialEval

        forged = PartialEval(
            index=share.payload.index,
            value=share.payload.value,
            proof=DleqProof(
                c=share.payload.proof.c,
                s=(share.payload.proof.s + 1) % GROUP.q,
            ),
        )
        before = len(prf._verified)
        assert not prf.verify_partial(message, forged)
        assert len(prf._verified) == before
