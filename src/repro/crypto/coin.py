"""The Global Perfect Coin (GPC, §III-B.2).

DAG-based protocols select each wave's leader slot with a shared random
coin that (a) is identical at every replica, (b) cannot be predicted by the
adversary before a threshold of replicas contribute, and (c) maps uniformly
onto replica indices.  The paper implements it with threshold signatures on
the wave number; we provide two interchangeable implementations:

* :class:`ThresholdCoin` — the real construction over the threshold PRF
  (partial evals with DLEQ proofs, Lagrange combination in the exponent).
* :class:`SeededCoin` — a deterministic stand-in (``H(seed, wave) mod n``)
  with dummy shares but the *same threshold-reveal timing*: the leader for
  a wave only becomes available once ``threshold`` distinct shares arrive.
  Used with the hmac/null backends for large sweeps; the adversaries in
  this repository do not attempt coin prediction, so the timing semantics
  are what matters.

Both expose the same three-method interface so protocols never know which
one they hold.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Tuple

from ..codec.primitives import CodecError, Writer, read_lp_bytes, read_uvarint
from ..errors import ThresholdError
from .hashing import hash_fields, hash_to_int
from .keys import KeyChain
from .memo import VerifiedMemo
from .threshold import (
    PARTIAL_EVAL_SIZE, DleqProof, PartialEval, ThresholdPRF, prf_output_to_int,
)

#: Modeled wire size of a coin share (used by the network size model).
COIN_SHARE_SIZE = PARTIAL_EVAL_SIZE


@dataclass(frozen=True)
class CoinShare:
    """One replica's contribution to revealing wave ``wave``'s coin."""

    wave: int
    replica: int
    payload: object  # PartialEval for ThresholdCoin, token bytes for SeededCoin


_TOKEN = 0
_PARTIAL = 1


def share_bytes(share: CoinShare) -> bytes:
    """The one encoding of a share: a block carrying it ships these bytes
    and hashes them into its digest.

    ``uvarint wave, replica; byte 0, lp_bytes token | byte 1, uvarint
    index, bigint value, c, s`` in the :mod:`~repro.codec.primitives`
    layout."""
    w = Writer().uvarint(share.wave).uvarint(share.replica)
    payload = share.payload
    if isinstance(payload, bytes):
        w.byte(_TOKEN).lp_bytes(payload)
    elif isinstance(payload, PartialEval):
        w.byte(_PARTIAL).uvarint(payload.index).bigint(payload.value)
        w.bigint(payload.proof.c).bigint(payload.proof.s)
    else:
        raise CodecError(f"unknown coin payload {type(payload).__name__}")
    return w.getvalue()


def read_share(data: bytes, pos: int) -> Tuple[CoinShare, int]:
    """The share :func:`share_bytes` wrote at ``data[pos:]`` and the offset
    just past it; :class:`~repro.codec.primitives.CodecError` if malformed."""
    wave, pos = read_uvarint(data, pos)
    replica, pos = read_uvarint(data, pos)
    if pos >= len(data):
        raise CodecError("truncated input: wanted 1 bytes, have 0")
    tag = data[pos]
    pos += 1
    if tag == _TOKEN:
        payload, pos = read_lp_bytes(data, pos)
    elif tag == _PARTIAL:
        index, pos = read_uvarint(data, pos)
        ints = []
        for _ in range(3):
            raw, pos = read_lp_bytes(data, pos)
            ints.append(int.from_bytes(raw, "big"))
        value, c, s = ints
        payload = PartialEval(index=index, value=value, proof=DleqProof(c=c, s=s))
    else:
        raise CodecError(f"unknown coin payload tag {tag}")
    return CoinShare(wave=wave, replica=replica, payload=payload), pos


class GlobalPerfectCoin(ABC):
    """Interface every coin implementation satisfies.  ``verified`` is the
    key deal's verified-claims memo (:mod:`repro.crypto.memo`; a coin
    standing alone keeps its own)."""

    def __init__(
        self, n: int, threshold: int, verified: VerifiedMemo | None = None
    ) -> None:
        if threshold < 1 or threshold > n:
            raise ThresholdError(f"coin threshold {threshold} invalid for n={n}")
        self.n = n
        self.threshold = threshold
        self._shares: dict[int, dict[int, CoinShare]] = {}
        self._revealed: dict[int, int] = {}
        self._verified = verified if verified is not None else VerifiedMemo()

    @abstractmethod
    def make_share(self, wave: int) -> CoinShare:
        """This replica's share for ``wave``."""

    @abstractmethod
    def verify_share(self, share: CoinShare) -> bool:
        """Check a received share before counting it."""

    @abstractmethod
    def _combine(self, wave: int, shares: list[CoinShare]) -> int:
        """Combine ``threshold`` verified shares into the coin output."""

    # -- shared accumulation logic -------------------------------------------

    def check_share(self, share: CoinShare) -> bool:
        """:meth:`verify_share` behind the key deal's memo: a share is
        proved once however many replicas (and blocks) present it."""
        claim = ("coin", share)
        if claim in self._verified:
            return True
        if not self.verify_share(share):
            return False
        self._verified.add(claim)
        return True

    def add_share(self, share: CoinShare) -> int | None:
        """Accumulate a share; return the leader index once revealed.

        Idempotent per ``(wave, replica)``; returns the cached leader for
        waves already revealed.  Invalid shares are ignored (a Byzantine
        replica cannot stall the coin — only fail to contribute).
        """
        if share.wave in self._revealed:
            return self._revealed[share.wave]
        bucket = self._shares.get(share.wave)
        if bucket is not None and share.replica in bucket:
            # Duplicate (wave, replica): the first copy was verified when
            # it arrived; re-sent shares cost a dict lookup, not a proof.
            return None
        if not self.check_share(share):
            return None
        if bucket is None:
            bucket = self._shares[share.wave] = {}
        bucket[share.replica] = share
        if len(bucket) >= self.threshold:
            leader = self._combine(share.wave, list(bucket.values()))
            self._revealed[share.wave] = leader
            del self._shares[share.wave]
            return leader
        return None

    def leader_of(self, wave: int) -> int | None:
        """The revealed leader index for ``wave``, if any."""
        return self._revealed.get(wave)

    def pending_share_count(self, wave: int) -> int:
        """How many valid shares have accumulated for an unrevealed wave."""
        return len(self._shares.get(wave, ()))


class ThresholdCoin(GlobalPerfectCoin):
    """The real coin: threshold PRF evaluated on the wave number."""

    def __init__(self, keychain: KeyChain) -> None:
        super().__init__(
            len(keychain.public_keys), keychain.coin_threshold, keychain.verified
        )
        self.replica_id = keychain.replica_id
        self.prf = ThresholdPRF(
            group=keychain.group,
            threshold=keychain.coin_threshold,
            share=keychain.coin_share,
            verification_keys=keychain.coin_verification_keys,
            verified=keychain.verified,
        )
        self.group = keychain.group

    @staticmethod
    def _coin_input(wave: int) -> bytes:
        return hash_fields("gpc-wave", wave)

    def make_share(self, wave: int) -> CoinShare:
        partial = self.prf.partial_eval(self._coin_input(wave))
        return CoinShare(wave=wave, replica=self.replica_id, payload=partial)

    def verify_share(self, share: CoinShare) -> bool:
        if not isinstance(share.payload, PartialEval):
            return False
        if share.payload.index != share.replica:
            return False
        return self.prf.verify_partial(self._coin_input(share.wave), share.payload)

    def _combine(self, wave: int, shares: list[CoinShare]) -> int:
        element = self.prf.combine(
            self._coin_input(wave), [s.payload for s in shares]
        )
        return prf_output_to_int(self.group, element) % self.n


class SeededCoin(GlobalPerfectCoin):
    """Deterministic coin with threshold-reveal timing but no crypto.

    Share payloads are per-replica tokens bound to the wave; verification
    recomputes the token, so a share forged for another replica id is
    rejected (matching the accounting, if not the hardness, of the real
    coin).
    """

    def __init__(
        self, n: int, threshold: int, seed: int, replica_id: int,
        verified: VerifiedMemo | None = None,
    ) -> None:
        super().__init__(n=n, threshold=threshold, verified=verified)
        self.seed = seed
        self.replica_id = replica_id

    def _token(self, wave: int, replica: int) -> bytes:
        return hash_fields("seeded-coin-token", self.seed, wave, replica)

    def make_share(self, wave: int) -> CoinShare:
        return CoinShare(
            wave=wave, replica=self.replica_id, payload=self._token(wave, self.replica_id)
        )

    def verify_share(self, share: CoinShare) -> bool:
        return share.payload == self._token(share.wave, share.replica)

    def _combine(self, wave: int, shares: list[CoinShare]) -> int:
        return hash_to_int("seeded-coin-out", self.seed, wave) % self.n


def make_coin(
    crypto_name: str,
    keychain: KeyChain,
    seed: int,
) -> GlobalPerfectCoin:
    """Pick the coin implementation matching a crypto backend name."""
    if crypto_name == "schnorr":
        return ThresholdCoin(keychain)
    return SeededCoin(
        n=len(keychain.public_keys),
        threshold=keychain.coin_threshold,
        seed=seed,
        replica_id=keychain.replica_id,
        verified=keychain.verified,
    )
