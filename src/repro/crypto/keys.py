"""Key generation: a trusted dealer standing in for ADKG.

The paper assumes a PKI plus a threshold-crypto infrastructure established
by *Asynchronous Distributed Key Generation* (ADKG [17], [18]).  Running a
full ADKG inside every simulation would only exercise setup code, so — as
is standard in BFT prototypes — a :class:`TrustedDealer` generates all
material deterministically from a seed and hands each replica a
:class:`KeyChain`.  The substitution is recorded in DESIGN.md §2; nothing
downstream can tell the difference (same shares, same verification keys).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from ..config import SystemConfig
from ..errors import ThresholdError
from .group import SchnorrGroup, default_group
from .memo import VerifiedMemo
from .schnorr import SchnorrKeyPair
from .shamir import ShamirShare, split_secret


@dataclass(frozen=True)
class KeyChain:
    """Everything replica ``replica_id`` holds after setup.

    Attributes
    ----------
    replica_id:
        This replica's index in ``0 .. n-1``.
    keypair:
        Schnorr signing key pair (the PKI identity).
    public_keys:
        Every replica's public key, for verification.
    coin_share:
        Shamir share of the coin master secret (``None`` for observers).
    coin_verification_keys:
        ``g^{s_i}`` for each replica — verifies coin partials.
    coin_threshold:
        Number of coin shares required to reveal a wave's leader.
    verified:
        The verified-claims memo (:mod:`repro.crypto.memo`) of the deal:
        one object, carried by every chain of one :meth:`TrustedDealer.deal`.
    """

    replica_id: int
    group: SchnorrGroup
    keypair: SchnorrKeyPair
    public_keys: Mapping[int, int]
    coin_share: ShamirShare | None
    coin_verification_keys: Mapping[int, int]
    coin_threshold: int
    verified: VerifiedMemo = field(default_factory=VerifiedMemo, compare=False)

    def public_key_of(self, replica_id: int) -> int:
        try:
            return self.public_keys[replica_id]
        except KeyError:
            raise ThresholdError(f"no public key for replica {replica_id}") from None


class TrustedDealer:
    """Deterministic setup of the PKI and coin shares for a replica set.

    >>> dealer = TrustedDealer(SystemConfig(n=4), coin_threshold=3)
    >>> chains = dealer.deal()
    >>> len(chains), chains[0].coin_threshold
    (4, 3)
    """

    def __init__(
        self,
        system: SystemConfig,
        coin_threshold: int | None = None,
        group: SchnorrGroup | None = None,
    ) -> None:
        self.system = system
        self.group = group or default_group()
        self.coin_threshold = (
            coin_threshold if coin_threshold is not None else 2 * system.f + 1
        )
        if not 1 <= self.coin_threshold <= system.n:
            raise ThresholdError(
                f"coin threshold {self.coin_threshold} out of range for "
                f"n={system.n}"
            )

    def deal(self) -> list[KeyChain]:
        """Generate all key material and return one KeyChain per replica."""
        group = self.group.for_deal()
        rng = random.Random(f"dealer:{self.system.seed}:{self.system.n}")

        keypairs = [
            SchnorrKeyPair.from_seed(group, self.system.seed, "sig", i)
            for i in range(self.system.n)
        ]
        public_keys = {i: kp.pk for i, kp in enumerate(keypairs)}

        master_secret = group.random_scalar(rng)
        shares = split_secret(
            master_secret, self.coin_threshold, self.system.n, group.q, rng
        )
        verification_keys = {
            share.x - 1: group.exp_reduced(group.g, share.y) for share in shares
        }

        # Public keys and coin verification keys are the hot verification
        # bases for the whole run; registration earmarks fixed-base comb
        # tables (built lazily) and memoizes subgroup membership — on this
        # deal's view of the group, so both are dropped with the deal.
        group.register_fixed_bases(public_keys.values())
        group.register_fixed_bases(verification_keys.values())

        verified = VerifiedMemo()
        return [
            KeyChain(
                replica_id=i,
                group=group,
                keypair=keypairs[i],
                public_keys=public_keys,
                coin_share=shares[i],
                coin_verification_keys=verification_keys,
                coin_threshold=self.coin_threshold,
                verified=verified,
            )
            for i in range(self.system.n)
        ]

    def observer_chain(self) -> KeyChain:
        """A share-less KeyChain for passive components (metrics, tests)."""
        chains = self.deal()
        template = chains[0]
        return KeyChain(
            replica_id=-1,
            group=template.group,
            keypair=SchnorrKeyPair.from_seed(self.group, self.system.seed, "obs"),
            public_keys=template.public_keys,
            coin_share=None,
            coin_verification_keys=template.coin_verification_keys,
            coin_threshold=template.coin_threshold,
            verified=template.verified,
        )
