"""Schnorr signatures over the library's safe-prime group.

This is the concrete PKI the paper assumes (§III-A): every replica holds a
key pair, every protocol message that needs authentication carries a
signature, and the adversary cannot forge signatures of non-faulty replicas.

The scheme is textbook Schnorr with deterministic (RFC-6979-style) nonces so
signing is side-effect free and reproducible.  Signatures carry the
*commitment* ``R`` (rather than the challenge ``c``), the form batch
verification requires:

* key: ``sk ∈ Z_q``, ``pk = g^sk``
* sign(m): ``k = H(sk, m)``; ``R = g^k``; ``c = H(R, pk, m)``;
  ``s = k + c·sk mod q``; signature = ``(R, s)``
* verify: recompute ``c = H(R, pk, m)`` and check ``g^s == R · pk^c``.

Verification never inverts: with ``g`` and registered public keys backed by
fixed-base comb tables (:mod:`repro.crypto.group`), both exponentiations
are a few dozen modular multiplications each.

Batch verification
------------------
:func:`schnorr_verify_batch` checks ``k`` signatures with *one* fixed-base
exponentiation of ``g``, one per distinct signer, and one small (64-bit)
exponentiation per signature, via the standard random-linear-combination
test: draw small coefficients ``z_i`` and accept iff

    ``g^{Σ z_i s_i} == Π R_i^{z_i} · Π pk^{Σ_{i: pk_i=pk} z_i c_i}``.

Each valid signature contributes identically to both sides; an invalid one
survives only if its error cancels against the ``z_i``'s — probability
``2^-64`` per trial.  The coefficients are derived by hashing the entire
batch (Fiat-Shamir-style derandomization), which keeps runs bit-exact
deterministic and denies the adversary any influence after the fact.  On
rejection, :func:`schnorr_batch_invalid` bisects to the exact forged
entries, so a Byzantine replica is attributed just as under one-by-one
verification.

The soundness argument requires every ``R_i`` to lie in the order-``q``
subgroup — the equation only sees the product of the commitments, so the
small-order component of, say, paired ``R_i = -g^{k_i}`` commitments
cancels.  The batch therefore subgroup-checks each ``R_i`` (a Jacobi
symbol, no modexp) before the combined equation; single verification
needs no such check because its equation pins ``R`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import SignatureError
from .group import SchnorrGroup
from .hashing import Digest, hash_fields, hash_to_int

#: Modeled wire size of a Schnorr signature: a 32-byte group-element
#: commitment plus a 32-byte response scalar.
SIGNATURE_SIZE = 64

#: Bits per small batch coefficient; soundness error is 2^-64 per batch.
_BATCH_COEFF_BITS = 64
_BATCH_COEFF_MASK = (1 << _BATCH_COEFF_BITS) - 1


@dataclass(frozen=True)
class SchnorrSignature:
    """An ``(R, s)`` Schnorr signature: commitment and response scalar."""

    R: int
    s: int


@dataclass(frozen=True)
class SchnorrKeyPair:
    """A replica's signing key pair."""

    sk: int
    pk: int

    @classmethod
    def generate(cls, group: SchnorrGroup, rng) -> "SchnorrKeyPair":
        sk = group.random_scalar(rng)
        return cls(sk=sk, pk=group.exp_reduced(group.g, sk))

    @classmethod
    def from_seed(cls, group: SchnorrGroup, *seed_fields) -> "SchnorrKeyPair":
        """Deterministic key derivation (used by the trusted dealer)."""
        sk = group.scalar_from_hash("keygen", *seed_fields)
        return cls(sk=sk, pk=group.exp_reduced(group.g, sk))


def _challenge(group: SchnorrGroup, commitment: int, pk: int, message: Digest) -> int:
    return group.scalar_from_hash("schnorr-c", commitment, pk, message)


def schnorr_sign(group: SchnorrGroup, keypair: SchnorrKeyPair, message: Digest) -> SchnorrSignature:
    """Sign a 32-byte message digest with a deterministic nonce."""
    k = group.scalar_from_hash("schnorr-k", keypair.sk, message)
    commitment = group.exp_reduced(group.g, k)
    c = _challenge(group, commitment, keypair.pk, message)
    s = (k + c * keypair.sk) % group.q
    return SchnorrSignature(R=commitment, s=s)


def schnorr_verify(
    group: SchnorrGroup, pk: int, message: Digest, sig: SchnorrSignature
) -> bool:
    """Verify a signature; returns False rather than raising on bad input."""
    if not (0 < sig.R < group.p and 0 <= sig.s < group.q):
        return False
    if not group.is_member(pk):
        return False
    c = _challenge(group, sig.R, pk, message)
    # g^s == R · pk^c  ⟺  R == g^s · pk^{-c}; both exponents are already
    # reduced (s by range check, c by construction), and the equation form
    # avoids the inversion entirely.  If it holds, R is a subgroup member
    # by construction, so no separate membership test on R is needed.
    lhs = group.exp_reduced(group.g, sig.s)
    rhs = group.mul(sig.R, group.exp_reduced(pk, c))
    return lhs == rhs


#: One batch entry: (public key, message digest, signature).
BatchItem = Tuple[int, Digest, SchnorrSignature]


def _batch_coefficients(
    group: SchnorrGroup, items: Sequence[BatchItem]
) -> List[int]:
    """Deterministic nonzero 64-bit coefficients bound to the whole batch."""
    seed = hash_fields(
        "schnorr-batch",
        tuple((pk, message, sig.R, sig.s) for pk, message, sig in items),
    )
    return [
        (hash_to_int("schnorr-batch-z", seed, i) & _BATCH_COEFF_MASK) | 1
        for i in range(len(items))
    ]


def schnorr_batch_equation(group: SchnorrGroup, items: Sequence[BatchItem]) -> bool:
    """The combined random-linear-combination check, *without* prechecks.

    Callers MUST already have validated every item: scalars in range
    (``0 < R < p``, ``0 <= s < q``) and both ``R`` and ``pk`` members of
    the order-``q`` subgroup — on unchecked input the soundness argument
    does not hold (see :func:`schnorr_verify_batch`).  Exists so
    ``SchnorrBackend``, whose intake filter performs those checks while
    classifying claims, does not pay the per-item Jacobi symbol twice.
    """
    if not items:
        return True
    if len(items) == 1:
        # schnorr_verify's own prechecks are O(1) here (no Jacobi on R;
        # pk membership is memoized for dealt keys).
        pk, message, sig = items[0]
        return schnorr_verify(group, pk, message, sig)
    p, q = group.p, group.q
    zs = _batch_coefficients(group, items)
    s_combined = 0
    pk_exponents: dict[int, int] = {}
    commitment_pairs = []
    for (pk, message, sig), z in zip(items, zs):
        c = _challenge(group, sig.R, pk, message)
        s_combined = (s_combined + z * sig.s) % q
        pk_exponents[pk] = (pk_exponents.get(pk, 0) + z * c) % q
        commitment_pairs.append((sig.R, z))
    # The z_i are 64-bit, so the interleaved scan is ~16 window positions
    # — one shared squaring chain for every commitment at once.
    rhs = group.multi_exp(commitment_pairs)
    for pk, e in pk_exponents.items():
        rhs = rhs * group.exp_reduced(pk, e) % p
    return group.exp_reduced(group.g, s_combined) == rhs


def schnorr_verify_batch(group: SchnorrGroup, items: Sequence[BatchItem]) -> bool:
    """True iff every signature in the batch verifies (w.h.p.; see module
    docstring for the 2^-64 soundness bound).

    An empty batch is vacuously valid; a singleton falls through to
    :func:`schnorr_verify` (identical semantics, no coefficient overhead).
    """
    if not items:
        return True
    if len(items) == 1:
        pk, message, sig = items[0]
        return schnorr_verify(group, pk, message, sig)
    p, q = group.p, group.q
    for pk, _message, sig in items:
        if not (0 < sig.R < p and 0 <= sig.s < q):
            return False
        # The commitment must be checked for subgroup membership here even
        # though single verification needs no such check (its equation
        # forces R into the subgroup).  The batch equation constrains only
        # the *product* of the R_i^{z_i}: since every z_i is odd, a signer
        # who knows its own sk can emit a pair of signatures with negated
        # commitments R_i = -g^{k_i} whose signs cancel across the pair —
        # each fails schnorr_verify individually, yet the pair would pass
        # the combined check.  A Jacobi symbol (no modexp) closes this.
        if not group.is_member(sig.R):
            return False
        if not group.is_member(pk):
            return False
    return schnorr_batch_equation(group, items)


def schnorr_batch_invalid(
    group: SchnorrGroup, items: Sequence[BatchItem]
) -> List[int]:
    """Indices of the invalid signatures, localized by bisection.

    Cost is logarithmic in the batch size per forged entry; a clean batch
    costs one combined check.  The returned indices are exactly those an
    item-by-item :func:`schnorr_verify` sweep would reject, so Byzantine
    attribution is unchanged by batching.
    """

    def bisect(lo: int, hi: int) -> List[int]:
        if schnorr_verify_batch(group, items[lo:hi]):
            return []
        if hi - lo == 1:
            return [lo]
        mid = (lo + hi) // 2
        return bisect(lo, mid) + bisect(mid, hi)

    return bisect(0, len(items))


def require_valid(
    group: SchnorrGroup, pk: int, message: Digest, sig: SchnorrSignature, what: str
) -> None:
    """Verify and raise :class:`SignatureError` with context on failure."""
    if not schnorr_verify(group, pk, message, sig):
        raise SignatureError(f"invalid signature on {what}")


def signature_digest(sig: SchnorrSignature) -> Digest:
    """Stable digest of a signature, for inclusion in hashed structures."""
    return hash_fields("sigdig", sig.R, sig.s)
