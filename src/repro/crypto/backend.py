"""Pluggable signing backends.

Every authenticated protocol message goes through a :class:`CryptoBackend`.
Three implementations trade realism for simulation speed:

* :class:`SchnorrBackend` — real Schnorr signatures; the adversary cannot
  forge them even in principle.  Use for correctness-focused runs.
* :class:`HmacBackend` — keyed SHA-256 MACs derived from a dealer secret.
  Within the simulation's closed world this is sound (simulated Byzantine
  replicas do not exploit the shared derivation), and it is ~50× faster.
  This is the default for benchmarks.
* :class:`NullBackend` — size-accounted no-op for very large sweeps where
  signature bytes must still occupy bandwidth but CPU must not be spent.

All backends expose the same interface, sign/verify 32-byte digests, and
report a modeled wire size so the network simulator charges the same
bandwidth regardless of backend.

Beyond single verification the interface offers:

* :meth:`CryptoBackend.verify_batch` / :meth:`CryptoBackend.invalid_in_batch`
  — verify many (signer, digest, signature) claims at once.  The Schnorr
  backend uses randomized small-exponent batch verification with bisection
  localization (docs/PERFORMANCE.md); others fall back to a loop.
* the key deal's verified-claims memo (:mod:`repro.crypto.memo`): a claim
  any replica of the deal has accepted is not re-verified, so the other
  ``n - 1`` recipients of a VAL, duplicate echoes, retrieval re-sends and
  re-broadcast proofs cost a set lookup.  Only positive results are kept;
  the key is the full (kind, signer, digest, signature) claim.
"""

from __future__ import annotations

import hashlib
import hmac
from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

from ..config import SystemConfig
from ..errors import CryptoError
from .hashing import Digest
from .keys import KeyChain
from .memo import VerifiedMemo
from .schnorr import (
    SIGNATURE_SIZE,
    SchnorrSignature,
    schnorr_batch_equation,
    schnorr_batch_invalid,
    schnorr_sign,
    schnorr_verify,
)

#: One batch-verification claim: (signer id, message digest, signature).
VerifyItem = Tuple[int, Digest, object]


class CryptoBackend(ABC):
    """Signs and verifies message digests on behalf of one replica."""

    #: Bytes a signature occupies on the wire (for the bandwidth model).
    signature_size: int = SIGNATURE_SIZE

    @abstractmethod
    def sign(self, message: Digest) -> object:
        """Sign a digest with this replica's key."""

    @abstractmethod
    def verify(self, signer: int, message: Digest, signature: object) -> bool:
        """Verify ``signer``'s signature on ``message``."""

    def verify_batch(self, items: Sequence[VerifyItem]) -> bool:
        """True iff every (signer, message, signature) claim verifies.

        Default: a plain loop.  Backends with a real batch equation
        override this; callers may rely only on the boolean semantics.
        """
        return all(self.verify(s, m, sig) for s, m, sig in items)

    def invalid_in_batch(self, items: Sequence[VerifyItem]) -> List[int]:
        """Indices of the claims that do not verify (exact attribution)."""
        return [
            i for i, (s, m, sig) in enumerate(items) if not self.verify(s, m, sig)
        ]


class SchnorrBackend(CryptoBackend):
    """Real Schnorr signatures over the library group.

    Construction registers every dealt public key as a fixed base of the
    deal's group, so verification exponentiations run off comb tables,
    and consults the deal's verified-claims memo — see the module docstring.
    """

    def __init__(self, keychain: KeyChain) -> None:
        self.keychain = keychain
        self.group = keychain.group
        self.group.register_fixed_bases(keychain.public_keys.values())
        self._verified = keychain.verified

    def sign(self, message: Digest) -> SchnorrSignature:
        return schnorr_sign(self.group, self.keychain.keypair, message)

    def verify(self, signer: int, message: Digest, signature: object) -> bool:
        if not isinstance(signature, SchnorrSignature):
            return False
        pk = self.keychain.public_keys.get(signer)
        if pk is None:
            return False
        key = ("schnorr", signer, message, signature)
        if key in self._verified:
            return True
        ok = schnorr_verify(self.group, pk, message, signature)
        if ok:
            self._verified.add(key)
        return ok

    def _split_batch(
        self, items: Sequence[VerifyItem]
    ) -> "tuple[list[tuple[int, tuple]], list[int]]":
        """(unverified plausible claims with their original index, indices
        of claims rejected outright).  Rejected outright = unknown signer,
        non-Schnorr signature object, out-of-range scalars, or a commitment
        outside the order-q subgroup — all caught without a single modexp
        (membership is a Jacobi symbol), so a malformed claim never reaches
        the batch equation or the verified-claims memo.  The commitment check
        mirrors :func:`schnorr_verify_batch`'s precheck: paired non-residue
        commitments would otherwise cancel in the combined equation."""
        pending: list = []
        rejected: list = []
        group = self.group
        p, q = group.p, group.q
        public_keys = self.keychain.public_keys
        for i, (signer, message, signature) in enumerate(items):
            if not isinstance(signature, SchnorrSignature):
                rejected.append(i)
                continue
            pk = public_keys.get(signer)
            if pk is None:
                rejected.append(i)
                continue
            if not (
                0 < signature.R < p
                and 0 <= signature.s < q
                and group.is_member(signature.R)
            ):
                rejected.append(i)
                continue
            if ("schnorr", signer, message, signature) in self._verified:
                continue
            pending.append((i, (pk, message, signature)))
        return pending, rejected

    def verify_batch(self, items: Sequence[VerifyItem]) -> bool:
        pending, rejected = self._split_batch(items)
        if rejected:
            return False
        # _split_batch already range- and membership-checked every pending
        # claim (and pks come from the dealt keychain), so the equation-only
        # entry point applies — no second Jacobi pass per commitment.
        if not schnorr_batch_equation(self.group, [claim for _, claim in pending]):
            return False
        for i, _claim in pending:
            self._verified.add(("schnorr", *items[i]))
        return True

    def invalid_in_batch(self, items: Sequence[VerifyItem]) -> List[int]:
        pending, rejected = self._split_batch(items)
        bad = set(rejected)
        bad.update(
            pending[j][0]
            for j in schnorr_batch_invalid(
                self.group, [claim for _, claim in pending]
            )
        )
        for i, _claim in pending:
            if i not in bad:
                self._verified.add(("schnorr", *items[i]))
        return sorted(bad)


class HmacBackend(CryptoBackend):
    """Keyed-MAC stand-in: ``sig = HMAC(H(dealer_secret, signer), message)``.

    Every replica can derive every key, so this is *not* unforgeable against
    a real attacker — it is unforgeable against the simulated adversaries in
    this repository, which never synthesize MACs for other identities.  The
    substitution is documented in DESIGN.md §2.  ``verified`` is the key
    deal's verified-claims memo (a backend standing alone keeps its own).
    """

    def __init__(
        self,
        replica_id: int,
        system: SystemConfig,
        verified: VerifiedMemo | None = None,
    ) -> None:
        self.replica_id = replica_id
        self._root = hashlib.sha256(
            f"hmac-root:{system.seed}:{system.n}".encode()
        ).digest()
        self._keys = {
            i: hashlib.sha256(self._root + i.to_bytes(4, "big")).digest()
            for i in range(system.n)
        }
        self._verified = verified if verified is not None else VerifiedMemo()

    def _key_for(self, signer: int) -> bytes:
        try:
            return self._keys[signer]
        except KeyError:
            raise CryptoError(f"unknown signer {signer}") from None

    def sign(self, message: Digest) -> bytes:
        return hmac.digest(self._key_for(self.replica_id), message, "sha256")

    def verify(self, signer: int, message: Digest, signature: object) -> bool:
        if not isinstance(signature, bytes) or signer not in self._keys:
            return False
        key = ("hmac", signer, message, signature)
        if key in self._verified:
            return True
        expected = hmac.digest(self._keys[signer], message, "sha256")
        ok = hmac.compare_digest(expected, signature)
        if ok:
            self._verified.add(key)
        return ok


class NullBackend(CryptoBackend):
    """No-op backend: empty signatures that always verify.

    Only for throughput sweeps where per-message CPU would distort the
    simulated-time measurements; never use when an adversary that forges is
    part of the experiment.
    """

    def sign(self, message: Digest) -> bytes:
        return b""

    def verify(self, signer: int, message: Digest, signature: object) -> bool:
        return True


def make_backend(
    name: str, replica_id: int, system: SystemConfig, keychain: KeyChain | None = None
) -> CryptoBackend:
    """Factory matching :attr:`SystemConfig.crypto` names to backends."""
    if name == "schnorr":
        if keychain is None:
            raise CryptoError("schnorr backend requires a KeyChain")
        return SchnorrBackend(keychain)
    if name == "hmac":
        verified = keychain.verified if keychain is not None else None
        return HmacBackend(replica_id, system, verified)
    if name == "null":
        return NullBackend()
    raise CryptoError(f"unknown crypto backend {name!r}")
