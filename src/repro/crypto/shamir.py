"""Shamir secret sharing over ``Z_q``.

The threshold-crypto infrastructure the paper assumes (established by ADKG
[17], [18]) boils down to: each replica ``i`` holds a share ``s_i`` of a
group-wide secret ``s`` such that any ``t`` shares reconstruct ``s`` and
fewer reveal nothing.  We implement the classic polynomial scheme:

* dealer samples a degree-``t-1`` polynomial ``P`` with ``P(0) = s``;
* replica ``i`` (1-indexed evaluation point ``x = i + 1``) gets
  ``s_i = P(i + 1)``;
* any ``t`` points reconstruct ``P(0)`` by Lagrange interpolation.

:func:`lagrange_at_zero` exposes the interpolation coefficients, and
:func:`integer_lagrange_at_zero` the same as exact ratios of small integers,
which the threshold PRF uses *in the exponent* (combining ``h^{s_i}``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Sequence

from ..errors import ThresholdError


@dataclass(frozen=True)
class ShamirShare:
    """One replica's share: the evaluation point ``x`` and value ``y``."""

    x: int
    y: int


def split_secret(
    secret: int, threshold: int, num_shares: int, modulus: int, rng
) -> list[ShamirShare]:
    """Split ``secret`` into ``num_shares`` shares with the given threshold.

    Evaluation points are ``1 .. num_shares`` (replica ``i`` gets point
    ``i + 1``), never 0 — point 0 *is* the secret.
    """
    if not 1 <= threshold <= num_shares:
        raise ThresholdError(
            f"threshold {threshold} out of range for {num_shares} shares"
        )
    if not 0 <= secret < modulus:
        raise ThresholdError("secret must be reduced modulo the share modulus")
    coeffs = [secret] + [rng.randrange(modulus) for _ in range(threshold - 1)]
    return [
        ShamirShare(x=x, y=_poly_eval(coeffs, x, modulus))
        for x in range(1, num_shares + 1)
    ]


def _poly_eval(coeffs: Sequence[int], x: int, modulus: int) -> int:
    """Horner evaluation of a polynomial with little-endian coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def _checked_points(points: Sequence[int]) -> list[int]:
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ThresholdError(f"duplicate evaluation points: {pts}")
    if any(x == 0 for x in pts):
        raise ThresholdError("evaluation point 0 would reveal the secret directly")
    return pts


def lagrange_at_zero(points: Sequence[int], modulus: int) -> dict[int, int]:
    """Lagrange basis coefficients ``λ_j`` at ``x = 0`` for the given points.

    Returns a mapping ``x_j -> λ_j`` such that for any degree-``len(points)-1``
    polynomial ``P``, ``P(0) = Σ λ_j · P(x_j) (mod modulus)``.
    """
    pts = _checked_points(points)
    coeffs: dict[int, int] = {}
    for j, xj in enumerate(pts):
        num, den = 1, 1
        for m, xm in enumerate(pts):
            if m == j:
                continue
            num = num * (-xm) % modulus
            den = den * (xj - xm) % modulus
        coeffs[xj] = num * pow(den, -1, modulus) % modulus
    return coeffs


def integer_lagrange_at_zero(points: Sequence[int]) -> tuple[int, Mapping[int, int]]:
    """The same coefficients as exact fractions ``λ_j = e_j / L``: returns
    ``(L, {x_j: e_j})``, ``L > 0`` the lcm of the reduced denominators.  For
    replica points ``1 .. n`` these integers are small next to the group order
    (22 bits at n=16, 113 at n=64, against 255).  Memoised per point set, so
    the mapping is shared: read it, do not change it.
    """
    return _integer_lagrange(tuple(sorted(_checked_points(points))))


@lru_cache(maxsize=1024)
def _integer_lagrange(pts: tuple[int, ...]) -> tuple[int, dict[int, int]]:
    # λ_j = Π_{m≠j} x_m / Π_{m≠j} (x_m − x_j): over one common denominator,
    # then in lowest terms (``fractions`` would do it, at an 8 ms import).
    dens = [prod(xm - xj for xm in pts if xm != xj) for xj in pts]
    common = lcm(*dens)
    nums = [prod(pts) // xj * (common // den) for xj, den in zip(pts, dens)]
    shrink = gcd(common, *nums)
    return common // shrink, {xj: num // shrink for xj, num in zip(pts, nums)}


def recover_secret(shares: Iterable[ShamirShare], modulus: int) -> int:
    """Reconstruct the secret from at least ``threshold`` distinct shares."""
    share_list = list(shares)
    lam = lagrange_at_zero([s.x for s in share_list], modulus)
    return sum(lam[s.x] * s.y for s in share_list) % modulus


def verify_share_consistency(
    shares: Mapping[int, ShamirShare], threshold: int, modulus: int
) -> bool:
    """Check that every ``threshold``-subset of shares agrees on the secret.

    Exhaustive check used by tests and the trusted dealer's self-audit; cost
    is combinatorial, so only call with small share sets.
    """
    from itertools import combinations

    share_list = list(shares.values())
    if len(share_list) < threshold:
        raise ThresholdError("not enough shares to audit")
    secrets = {
        recover_secret(combo, modulus)
        for combo in combinations(share_list, threshold)
    }
    return len(secrets) == 1
