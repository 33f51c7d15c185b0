"""The verified-claims memo: check each claim once per cluster.

Every replica authenticates every block and coin share it receives, and the
broadcast fan-out and §IV-A retrieval deliver the *same* signed object to
every replica, often repeatedly.  Whether a claim verifies is a pure function
of the claim and the dealt keys, so :meth:`TrustedDealer.deal` makes **one**
:class:`VerifiedMemo`, every :class:`KeyChain` of the deal carries it, and
the backends, the threshold PRF and the coin consult it: in a simulated run
(all replicas in one process) a claim costs its modexp chain once, not ``n``
times.  Two deals share nothing, whether in one process or, on TCP, in one
each.  Two rules keep the memo from ever changing verification *semantics*:

* **Positive results only.**  A forgery is re-checked (and re-rejected) by
  every replica every time it shows up; nothing an adversary sends can park
  a "False" here and nothing can flip a rejection to acceptance.
* **The full claim is the key**: its kind, the signer, the message digest
  and the complete signature or proof object, so a hit can never cross
  kinds, signers, messages or signature bytes.

The same sharing rule governs the verdicts and decodes kept on immutable
wire objects (``Block._well_formed``/``_digest_checked``, ``TxBatch.
_commands``): only positive verdicts of pure checks and decodes of immutable
bytes are shared.  Every replica still makes every call and takes every
decision — votes, store and ledger contents, coin combination, commit scope
— itself, so the oracles keep comparing independently computed results.

Capacity is bounded (FIFO eviction); an eviction merely costs a future
re-verification, never correctness.
"""

from __future__ import annotations

from typing import Hashable

#: Verified claims remembered per key deal.
DEFAULT_CAPACITY = 8192


class VerifiedMemo:
    """Fixed-capacity set of verified claims with FIFO eviction."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # dict preserves insertion order => next(iter(...)) is the oldest.
        self._entries: dict = {}

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, key: Hashable) -> None:
        """Record a *successfully verified* claim."""
        entries = self._entries
        if key in entries:
            return
        if len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        entries[key] = None

    # One memo per deal, whoever reaches it: simulator snapshots share it
    # across branches (which can observe speed, never a different verdict).
    def __deepcopy__(self, memo) -> "VerifiedMemo":
        return self
