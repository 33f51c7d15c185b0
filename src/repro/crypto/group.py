"""Schnorr group arithmetic over an embedded safe prime.

A *Schnorr group* is the order-``q`` subgroup of quadratic residues of
``Z_p^*`` where ``p = 2q + 1`` is a safe prime.  Every non-trivial element
generates the subgroup, discrete logs live in ``Z_q``, and membership is
cheap to test (for a safe prime the subgroup is exactly the quadratic
residues, so a Jacobi symbol decides it).  This single structure backs:

* Schnorr signatures (:mod:`repro.crypto.schnorr`),
* the threshold PRF / Global Perfect Coin (:mod:`repro.crypto.threshold`),
* Chaum-Pedersen DLEQ proofs for coin-share verification.

The group is a value object; all operations take plain ints and return
plain ints so there is no per-element wrapper overhead in hot loops.

Hot-path machinery
------------------
Exponentiation dominates every run with real signatures (a claim is checked
once per cluster, :mod:`repro.crypto.memo`, and each check is a few
exponentiations), so the group keeps two caches, both derived purely from
immutable inputs:

* **Fixed-base tables** — :meth:`register_fixed_base` marks a base (a
  replica public key, a coin verification key) as hot; the first
  exponentiation with it builds a comb table, after which ``base^e`` is a
  few dozen modular multiplications instead of a full modexp.  Construction
  is lazy, and the window width is what the base's use count pays for (see
  ``_WINDOW_BITS``).  Tables follow the sharing rule's lifetime: a key deal
  registers its keys on its own :meth:`for_deal` view, which shares the
  generator's table with the process-wide group and is dropped with the deal.
* **Membership memo** — registered bases are membership-checked once at
  registration; :meth:`is_member` answers for them from a set lookup, and
  for unregistered elements via a binary Jacobi symbol (no modexp at all).

Neither cache participates in equality or hashing — two groups with the
same ``(p, q, g)`` compare equal regardless of what has been registered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import CryptoError
from .hashing import hash_to_int
from .primes import SAFE_PRIMES, SafePrime

#: Comb window widths in bits, by break-even against ``pow`` (121 µs;
#: docs/PERFORMANCE.md §2).  The generator, used thousands of times per run:
#: 8 bits (build 3.9 ms, use 17 µs, 544 KiB, pays after 38 uses).  A dealt
#: key, used a few dozen times: 5 bits (0.78 ms, 29 µs, 109 KiB, after 9).
_WINDOW_BITS = 8
_KEY_WINDOW_BITS = 5


class _FixedBaseTable:
    """Comb precomputation for one base: ``rows[j][d] = base^(d << bits*j)``."""

    __slots__ = ("rows", "bits")

    def __init__(self, base: int, p: int, qbits: int, bits: int) -> None:
        size = 1 << bits
        rows: List[List[int]] = []
        b = base
        for _ in range((qbits + bits - 1) // bits):
            row = [1] * size
            acc = 1
            for d in range(1, size):
                acc = acc * b % p
                row[d] = acc
            rows.append(row)
            # Advance the window base: b^size = b^(size-1) * b.
            b = acc * b % p
        self.rows = rows
        self.bits = bits

    def pow(self, e: int, p: int) -> int:
        """``base^e mod p`` for ``0 <= e < 2^(bits * len(rows))``."""
        bits = self.bits
        mask = (1 << bits) - 1
        result = 1
        for row in self.rows:
            d = e & mask
            if d:
                result = result * row[d] % p
            e >>= bits
            if not e:
                break
        return result


def jacobi_symbol(a: int, n: int) -> int:
    """The Jacobi symbol ``(a/n)`` for odd ``n > 0`` (binary algorithm).

    Sits on the batch-verification precheck (one call per commitment), so
    the loop is tuned: all trailing zeros are stripped in one shift
    (``a & -a`` isolates the lowest set bit) — the factor-of-2 sign only
    depends on the *parity* of the zero count — and the reciprocity swap
    and reduction are fused into one statement.
    """
    a %= n
    result = 1
    while a:
        tz = (a & -a).bit_length() - 1
        if tz:
            a >>= tz
            if tz & 1 and n & 7 in (3, 5):
                result = -result
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


@dataclass(frozen=True)
class SchnorrGroup:
    """The quadratic-residue subgroup of ``Z_p^*`` for a safe prime ``p``."""

    p: int
    q: int
    g: int
    # Hot-path caches; excluded from equality/hash/repr (pure derivations of
    # the immutable (p, q, g) identity plus registered bases).
    _tables: Dict[int, Optional[_FixedBaseTable]] = field(
        default_factory=dict, compare=False, repr=False
    )
    _members: Set[int] = field(default_factory=set, compare=False, repr=False)

    def __post_init__(self) -> None:
        # The generator is hot in every scheme (signing, verification,
        # DLEQ); always treat it as registered.
        self._tables.setdefault(self.g, None)
        self._members.add(self.g)

    @classmethod
    def from_safe_prime(cls, sp: SafePrime) -> "SchnorrGroup":
        return cls(p=sp.p, q=sp.q, g=sp.g)

    def for_deal(self) -> "SchnorrGroup":
        """An equal group owning one key deal's tables: it shares the generator's,
        and the keys registered on it go when the deal does."""
        return SchnorrGroup(
            self.p, self.q, self.g, _tables={self.g: self._table_for(self.g)}
        )

    # The group is a value object whose only mutable state is the
    # comb-table / membership caches — pure, positive-only derivations of
    # ``(p, q, g)`` — and simulator snapshots must share them: copying the
    # group would fork a deal's comb tables per branch.
    def __copy__(self) -> "SchnorrGroup":
        return self

    def __deepcopy__(self, memo) -> "SchnorrGroup":
        return self

    # -- fixed-base registration --------------------------------------------

    def register_fixed_base(self, base: int) -> None:
        """Mark ``base`` as hot: memoize its membership and earmark a comb
        table (built lazily on first use, so registration is ~free).

        Raises :class:`CryptoError` if ``base`` is not a subgroup member —
        a registered base is trusted by the fast paths, so the check cannot
        be skipped.
        """
        if base in self._tables:
            return
        self.ensure_member(base, "fixed base")
        self._members.add(base)
        self._tables[base] = None

    def has_fixed_base(self, base: int) -> bool:
        """Whether ``base`` has been registered for precomputation."""
        return base in self._tables

    def _table_for(self, base: int) -> Optional[_FixedBaseTable]:
        table = self._tables.get(base)
        if table is None and base in self._tables:
            bits = _WINDOW_BITS if base == self.g else _KEY_WINDOW_BITS
            table = self._tables[base] = _FixedBaseTable(
                base, self.p, self.q.bit_length(), bits
            )
        return table

    # -- element operations -------------------------------------------------

    def exp(self, base: int, e: int) -> int:
        """``base ** e mod p`` with the exponent reduced mod ``q``.

        Negative exponents are welcome — reduction maps them into
        ``[0, q)``, which is how verifiers compute ``x^{-c}`` without a
        modular inversion.
        """
        return self.exp_reduced(base, e % self.q)

    def exp_reduced(self, base: int, e: int) -> int:
        """``base ** e mod p`` for an exponent already in ``[0, q)``.

        The fast path for call sites whose scalars are born reduced
        (challenges, response scalars, Lagrange coefficients) — skipping
        the redundant ``% q`` of :meth:`exp`.  Uses the comb table when
        ``base`` is registered.
        """
        table = self._table_for(base)
        if table is not None:
            return table.pow(e, self.p)
        return pow(base, e, self.p)

    def mul(self, a: int, b: int) -> int:
        """Group multiplication."""
        return a * b % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse in ``Z_p^*``."""
        return pow(a, -1, self.p)

    def multi_exp(self, pairs: Sequence[Tuple[int, int]]) -> int:
        """``Π base_i^{e_i} mod p`` in one interleaved pass (Shamir's trick).

        Exponents are reduced mod ``q``.  Each base gets a small 4-bit
        window table, then a single square-and-multiply scan shares all
        the squarings across every exponent simultaneously — one pass
        instead of ``k`` full exponentiations plus products.  Intended
        for small ``k`` (verification equations use k=2); beats ``k``
        separate modexps because the squaring chain, the dominant cost,
        is paid once.
        """
        p, q = self.p, self.q
        if not pairs:
            return 1
        tables: List[List[int]] = []
        hex_strings: List[str] = []
        ndigits = 1
        for base, e in pairs:
            base %= p
            row = [1] * 16
            acc = 1
            for d in range(1, 16):
                acc = acc * base % p
                row[d] = acc
            tables.append(row)
            # Hex digits give the 4-bit windows most-significant first
            # without per-position big-int shifts.
            h = "%x" % (e % q)
            hex_strings.append(h)
            if len(h) > ndigits:
                ndigits = len(h)
        # Scan only as wide as the largest exponent — small-exponent calls
        # (batch verification's 64-bit coefficients) pay 16 positions, not
        # the full scalar width.
        digit_strings = [h.rjust(ndigits, "0") for h in hex_strings]
        result = 1
        for pos in range(ndigits):
            if result != 1:  # skip the leading-zero squaring chain
                result = result * result % p
                result = result * result % p
                result = result * result % p
                result = result * result % p
            for row, digits in zip(tables, digit_strings):
                d = digits[pos]
                if d != "0":
                    result = result * row[int(d, 16)] % p
        return result

    def is_member(self, x: int) -> bool:
        """Subgroup membership test.

        For a safe prime the order-``q`` subgroup is exactly the quadratic
        residues, so a Jacobi symbol (no modexp) decides membership.
        Registered bases answer from the memo set without any arithmetic.
        """
        if x in self._members:
            return True
        return 0 < x < self.p and jacobi_symbol(x, self.p) == 1

    # -- scalars and encodings ----------------------------------------------

    def random_scalar(self, rng) -> int:
        """Uniform exponent in ``[1, q)`` from a ``random.Random``-like rng."""
        return rng.randrange(1, self.q)

    def scalar_from_hash(self, *fields) -> int:
        """Map arbitrary fields to a nonzero scalar in ``[1, q)``.

        Used for Fiat-Shamir challenges and deterministic nonces.  The
        modular reduction bias is negligible for q near a power of two and
        irrelevant at simulation-grade security.
        """
        return hash_to_int("scalar", *fields) % (self.q - 1) + 1

    def hash_to_group(self, *fields) -> int:
        """Map arbitrary fields to a subgroup element (square of a hash).

        Squaring lands the value in the quadratic-residue subgroup; a zero
        preimage (probability ~2^-256) is remapped by re-hashing.
        """
        counter = 0
        while True:
            x = hash_to_int("h2g", counter, *fields) % self.p
            if x not in (0, 1, self.p - 1):
                return x * x % self.p
            counter += 1

    def element_to_bytes(self, x: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        width = (self.p.bit_length() + 7) // 8
        return x.to_bytes(width, "big")

    def ensure_member(self, x: int, what: str = "element") -> int:
        """Return ``x`` if it is a subgroup member, else raise."""
        if not self.is_member(x):
            raise CryptoError(f"{what} {x!r} is not a member of the Schnorr group")
        return x

    def register_fixed_bases(self, bases: Iterable[int]) -> None:
        """Bulk :meth:`register_fixed_base` convenience."""
        for base in bases:
            self.register_fixed_base(base)


_DEFAULT_CACHE: dict[int, SchnorrGroup] = {}


def default_group(bits: int = 256) -> SchnorrGroup:
    """The library-wide default group for the given modulus size.

    A process-wide singleton per modulus size; it keeps the generator's
    table, which every deal's :meth:`~SchnorrGroup.for_deal` view shares.
    """
    if bits not in _DEFAULT_CACHE:
        try:
            sp = SAFE_PRIMES[bits]
        except KeyError:
            raise CryptoError(
                f"no embedded safe prime of {bits} bits; available: "
                f"{sorted(SAFE_PRIMES)}"
            ) from None
        _DEFAULT_CACHE[bits] = SchnorrGroup.from_safe_prime(sp)
    return _DEFAULT_CACHE[bits]
