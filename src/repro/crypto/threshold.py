"""Threshold PRF with verifiable partial evaluations.

This is the primitive the Global Perfect Coin is built on (the paper
implements its GPC with threshold signatures; a threshold PRF is the same
object viewed output-first — Cachin-Kursawe-Shoup's common coin [19]).

Construction
------------
The dealer shares a secret ``s`` (Shamir, threshold ``t``) and publishes
verification keys ``vk_i = g^{s_i}``.  For an input ``m``:

* ``h = hash_to_group(m)``,
* replica ``i``'s partial evaluation is ``σ_i = h^{s_i}`` together with a
  Chaum-Pedersen DLEQ proof that ``log_g vk_i == log_h σ_i`` (so a Byzantine
  replica cannot inject a bogus share),
* any ``t`` verified partials combine by Lagrange interpolation *in the
  exponent*: ``F(m) = h^s = Π σ_j^{λ_j} = (Π σ_j^{e_j})^{1/L}`` for the
  integer form ``λ_j = e_j / L`` of the coefficients.

``F(m)`` is unpredictable until ``t`` partials exist — exactly the GPC's
threshold-reveal property (§III-B.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import ThresholdError
from .group import SchnorrGroup
from .hashing import Digest, hash_to_int
from .memo import VerifiedMemo
from .shamir import ShamirShare, integer_lagrange_at_zero

#: Bound on the per-PRF cache of input elements.
_PRF_CACHE_CAPACITY = 4096

#: Modeled wire size of a partial evaluation (element + DLEQ proof).
PARTIAL_EVAL_SIZE = 32 + 64


@dataclass(frozen=True)
class DleqProof:
    """Chaum-Pedersen proof that two elements share one discrete log."""

    c: int
    s: int


@dataclass(frozen=True)
class PartialEval:
    """Replica ``index``'s partial PRF evaluation on some input."""

    index: int  # replica id (0-based); the Shamir point is index + 1
    value: int  # h^{s_i}
    proof: DleqProof


def _dleq_challenge(
    group: SchnorrGroup, g1: int, h1: int, g2: int, h2: int, a1: int, a2: int
) -> int:
    return group.scalar_from_hash("dleq", g1, h1, g2, h2, a1, a2)


def dleq_prove(
    group: SchnorrGroup, exponent: int, g1: int, g2: int
) -> tuple[int, int, DleqProof]:
    """Prove knowledge of ``x`` with ``h1 = g1^x`` and ``h2 = g2^x``.

    Returns ``(h1, h2, proof)``.  The nonce is derived deterministically
    from the witness and bases, mirroring the signature scheme.
    """
    # Reduce the witness once; the nonce is born reduced (hash scalars
    # live in [1, q)), so the reduced-exponent entry point applies.
    x = exponent % group.q
    h1 = group.exp_reduced(g1, x)
    h2 = group.exp_reduced(g2, x)
    k = group.scalar_from_hash("dleq-k", exponent, g1, g2)
    a1 = group.exp_reduced(g1, k)
    a2 = group.exp_reduced(g2, k)
    c = _dleq_challenge(group, g1, h1, g2, h2, a1, a2)
    s = (k + c * exponent) % group.q
    return h1, h2, DleqProof(c=c, s=s)


def dleq_verify(
    group: SchnorrGroup, g1: int, h1: int, g2: int, h2: int, proof: DleqProof
) -> bool:
    """Verify a Chaum-Pedersen DLEQ proof.

    Inversion-free: ``x^{-c}`` is computed as ``x^{q-c}``.  In the coin
    path ``g1`` is the generator and ``h1`` a dealer-registered
    verification key, so the first commitment runs entirely off fixed-base
    tables; the second pair varies per input and uses one interleaved
    Shamir multi-exponentiation instead of two modexps plus an inversion.
    """
    if not (0 < proof.c < group.q and 0 <= proof.s < group.q):
        return False
    if not (group.is_member(h1) and group.is_member(h2)):
        return False
    neg_c = group.q - proof.c
    a1 = group.mul(
        group.exp_reduced(g1, proof.s), group.exp_reduced(h1, neg_c)
    )
    a2 = group.multi_exp(((g2, proof.s), (h2, neg_c)))
    return _dleq_challenge(group, g1, h1, g2, h2, a1, a2) == proof.c


class ThresholdPRF:
    """Shared-key threshold PRF; one instance per replica.

    Parameters
    ----------
    group:
        The Schnorr group.
    threshold:
        Number of partials needed to evaluate.
    share:
        This replica's Shamir share of the master secret (``None`` for a
        pure verifier/combiner, e.g. a metrics observer).
    verification_keys:
        Mapping of replica id to ``g^{s_i}`` for proof verification.
    verified:
        The key deal's verified-claims memo (:mod:`repro.crypto.memo`); an
        instance standing alone keeps its own.
    """

    def __init__(
        self,
        group: SchnorrGroup,
        threshold: int,
        share: ShamirShare | None,
        verification_keys: Mapping[int, int],
        verified: VerifiedMemo | None = None,
    ) -> None:
        if threshold < 1:
            raise ThresholdError(f"threshold must be >= 1, got {threshold}")
        self.group = group
        self.threshold = threshold
        self.share = share
        self.verification_keys = dict(verification_keys)
        # Verification keys are hot DLEQ bases (one a1 term per share
        # verified); registration also memoizes their membership.
        group.register_fixed_bases(self.verification_keys.values())
        #: message digest -> hash_to_group output (every partial for one
        #: wave shares the same input element; hashing it once per wave
        #: instead of once per share).
        self._input_elements: dict = {}
        self._verified = verified if verified is not None else VerifiedMemo()

    def input_element(self, message: Digest) -> int:
        """The group element ``h = H(m)`` every partial is computed on."""
        element = self._input_elements.get(message)
        if element is None:
            if len(self._input_elements) >= _PRF_CACHE_CAPACITY:
                self._input_elements.clear()
            element = self._input_elements[message] = self.group.hash_to_group(
                "tprf-in", message
            )
        return element

    def partial_eval(self, message: Digest) -> PartialEval:
        """This replica's verified partial evaluation on ``message``."""
        if self.share is None:
            raise ThresholdError("verifier-only instance holds no share")
        h = self.input_element(message)
        _, value, proof = dleq_prove(self.group, self.share.y, self.group.g, h)
        return PartialEval(index=self.share.x - 1, value=value, proof=proof)

    def verify_partial(self, message: Digest, partial: PartialEval) -> bool:
        """Check a partial's DLEQ proof against its verification key.

        Memoized per full claim, for the whole key deal: a partial any
        replica accepted at intake costs a set lookup at the others and when
        :meth:`combine` re-checks it; rejections are always re-derived.
        """
        vk = self.verification_keys.get(partial.index)
        if vk is None:
            return False
        key = ("dleq", partial.index, message, partial.value, partial.proof)
        if key in self._verified:
            return True
        h = self.input_element(message)
        ok = dleq_verify(
            self.group, self.group.g, vk, h, partial.value, partial.proof
        )
        if ok:
            self._verified.add(key)
        return ok

    def combine(self, message: Digest, partials: Iterable[PartialEval]) -> int:
        """Combine ``threshold`` partials into ``F(m) = h^s`` (verifying each)."""
        selected: dict[int, PartialEval] = {}
        for partial in partials:
            if partial.index not in selected:
                selected[partial.index] = partial
            if len(selected) == self.threshold:
                break
        if len(selected) < self.threshold:
            raise ThresholdError(
                f"need {self.threshold} distinct partials, got {len(selected)}"
            )
        for partial in selected.values():
            if not self.verify_partial(message, partial):
                raise ThresholdError(
                    f"partial evaluation from replica {partial.index} failed "
                    f"DLEQ verification"
                )
        # λ_i = e_i / L with small integers e_i, L (shamir): two short
        # multi-exponentiations and one full-width power, not one per partial.
        denominator, coeff = integer_lagrange_at_zero([i + 1 for i in selected])
        group = self.group
        positive, negative = [], []
        for index, partial in selected.items():
            e = coeff[index + 1]
            (positive if e > 0 else negative).append((partial.value, abs(e)))
        ratio = group.mul(
            group.multi_exp(positive), group.inv(group.multi_exp(negative))
        )
        return group.exp_reduced(ratio, pow(denominator, -1, group.q))


def prf_output_to_int(group: SchnorrGroup, element: int) -> int:
    """Map the PRF output element to a uniform integer (hash of encoding)."""
    return hash_to_int("tprf-out", group.element_to_bytes(element))
