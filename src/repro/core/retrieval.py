"""The block retrieval mechanism (§IV-A).

CBC and PBC lack totality, so a replica can receive a block ``B`` whose
ancestors it never delivered.  Retrieval patches the hole:

    "when a replica p_i receives a block B through the VAL step of CBC from
    another replica p_j, p_i checks whether it has already delivered all
    parent blocks of B.  If not, p_i sends a request to retrieve the
    missing blocks by including their hashes in the request. [...]  This
    block retrieval process continues until p_i has delivered all the
    ancestors of B.  Then, p_i participates in the CBC process of B."

This manager tracks *pending* blocks (received, parents missing), issues
requests, answers peers' requests from the local store, and — because the
first-choice responder may be faulty — recovers through a bounded retry
schedule:

* **Exponential backoff with deterministic jitter** — retry ``k`` waits
  ``retry_base * 2^k`` seconds (exponent capped), scaled by a seeded-RNG
  jitter factor, so a faulty responder cannot lock a replica into a fixed
  0.5 s hammering loop and two replicas never synchronize their retries.
* **Fan-out escalation** — after ``fanout_after`` single-target retries
  the request is fanned out to ``fanout_width`` (``f + 1``) candidates at
  once, so at least one honest holder is hit even if every previous
  target was Byzantine (§V's "unfavorable" recovery argument).
* **A retry cap** — after ``retry_cap`` retries the digest is *abandoned*:
  all timers stop and its state is released.  Abandonment is not final —
  fresh evidence that the block exists (a new dependent, or the dependent
  re-broadcast by its live proposer) re-opens the request with a fresh
  budget (:meth:`revive`).
* **Responder-side hardening** — oversized requests are clamped, answers
  are chunked to ``max_response_blocks`` blocks per message, and repeat
  requesters are rate-limited by a per-peer token bucket.
* **Digest pinning is verified** — a response body is only accepted if it
  hashes to a digest we actually requested; a garbage or unsolicited body
  is dropped before it touches the accept path.

All state (``_pending`` / ``_dependents`` / ``_inflight`` / ``_requested``)
is pruned on delivery, on abandonment, and on round GC
(:meth:`gc_below`), so a long-running replica's retrieval footprint is
bounded by its live horizon.  The owning node funnels every received block
body through :meth:`note_pending` / :meth:`satisfied_by` and re-enters its
accept path for whatever becomes complete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Set as AbstractSet
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..crypto.hashing import Digest
from ..dag.block import Block, compute_block_digest
from ..dag.store import DagStore
from ..net.interfaces import NetworkAPI
from ..obs import NULL_OBS, Observability
from ..broadcast.messages import (
    MAX_REQUEST_DIGESTS,
    RetrievalRequest,
    RetrievalResponse,
)

#: Timer tag used for retrieval retries (owned by the node's timer space).
RETRY_TAG = "retrieval-retry"

#: Base delay before the first re-request of a still-missing block.
DEFAULT_RETRY_BASE = 0.5

#: Retries per digest before the request is abandoned (not counting the
#: initial ask).  Abandoned digests can be revived by fresh evidence.
DEFAULT_RETRY_CAP = 8

#: Single-target retries before escalating to an f+1 fan-out.
DEFAULT_FANOUT_AFTER = 3

#: Blocks per RetrievalResponse message (larger answers are chunked).
DEFAULT_MAX_RESPONSE_BLOCKS = 16

#: Backoff exponent cap: delays stop doubling at base * 2**CAP.
BACKOFF_EXP_CAP = 4

#: Responder-side token bucket: burst capacity and refill rate (tokens/s).
#: Sized for the legitimate worst case — a healed straggler unwinding many
#: rounds of ancestry has hundreds of digests in flight and its retry
#:+fan-out traffic is bursty — while still bounding what a request-flooding
#: peer can extract (a flooder costs at most ``refill`` lookups/s steady
#: state instead of saturating the responder's CPU and uplink).
DEFAULT_RATE_BURST = 256.0
DEFAULT_RATE_REFILL = 128.0


@dataclass
class _Pending:
    """A received-but-incomplete block and who could supply its parents."""

    block: Block
    src: int
    missing: Set[Digest] = field(default_factory=set)
    #: whether this block itself arrived through retrieval (digest-pinned)
    retrieved: bool = False


@dataclass
class _Request:
    """Retry state for one in-flight missing digest."""

    #: replicas the latest request went to (single target, or the fan-out set)
    targets: Tuple[int, ...]
    #: retries performed so far (0 = only the initial request is out)
    retries: int = 0
    #: whether a retry timer is currently armed for this digest
    timer_armed: bool = False
    #: whether this request has escalated to fan-out
    fanned_out: bool = False


class RetrievalManager:
    """Per-replica retrieval state machine."""

    #: Explorer fingerprint exclusions (see ``BaseDagNode.FINGERPRINT_SKIP``):
    #: the environment (``store`` is fingerprinted once via the owning
    #: node), the jitter RNG (its draws only shape retry *timers*, which the
    #: explorer's zero-time model never fires — two interleavings reaching
    #: the same protocol state may differ in RNG position), and reporting
    #: counters that mirror history rather than influence behaviour.
    FINGERPRINT_SKIP = frozenset({
        "net", "obs", "store", "rng",
        "requests_sent", "responses_sent", "blocks_served",
        "fanout_escalations", "abandoned_count", "rate_limited_count",
        "oversized_requests", "garbage_rejected", "max_retries_seen",
    })

    def __init__(
        self,
        net: NetworkAPI,
        store: DagStore,
        seed: int = 0,
        retry_base: float = DEFAULT_RETRY_BASE,
        enabled: bool = True,
        obs: Optional[Observability] = None,
        retry_cap: int = DEFAULT_RETRY_CAP,
        fanout_after: int = DEFAULT_FANOUT_AFTER,
        fanout_width: Optional[int] = None,
        max_response_blocks: int = DEFAULT_MAX_RESPONSE_BLOCKS,
        rate_burst: float = DEFAULT_RATE_BURST,
        rate_refill: float = DEFAULT_RATE_REFILL,
    ) -> None:
        self.net = net
        self.store = store
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.fanout_after = fanout_after
        #: f + 1 for the owning system, so a fan-out always hits an honest
        #: replica; derived from n when the owner does not pass it.
        self.fanout_width = (
            fanout_width if fanout_width is not None else (net.n - 1) // 3 + 1
        )
        self.max_response_blocks = max_response_blocks
        self.rate_burst = rate_burst
        self.rate_refill = rate_refill
        self.enabled = enabled
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.metrics
        self._ctr_requests = metrics.counter("retrieval.requests")
        self._ctr_retries = metrics.counter("retrieval.retries")
        self._ctr_responses = metrics.counter("retrieval.responses")
        self._ctr_served = metrics.counter("retrieval.blocks_served")
        self._ctr_fanout = metrics.counter("retrieval.fanout_escalations")
        self._ctr_abandoned = metrics.counter("retrieval.abandoned")
        self._ctr_rate_limited = metrics.counter("retrieval.rate_limited")
        self._ctr_oversized = metrics.counter("retrieval.oversized_requests")
        self._ctr_garbage = metrics.counter("retrieval.garbage_responses")
        # Gauges are per replica: a shared one would export whichever
        # replica wrote last.
        replica = net.node_id
        self._gauge_pending = metrics.gauge("retrieval.pending", replica=replica)
        self._gauge_inflight = metrics.gauge("retrieval.inflight", replica=replica)
        self._gauge_backoff = metrics.gauge(
            "retrieval.backoff_level", replica=replica
        )
        self.rng = random.Random(f"retrieval:{net.node_id}:{seed}")
        #: blocks waiting for parents, keyed by their digest
        self._pending: Dict[Digest, _Pending] = {}
        #: reverse index: missing parent digest -> dependent block digests
        self._dependents: Dict[Digest, Set[Digest]] = {}
        #: retry state per digest with an in-flight request
        self._inflight: Dict[Digest, _Request] = {}
        #: digests with an open request — responses are only honored for
        #: these (an unsolicited "gift" block is not digest-authenticated);
        #: pruned on delivery and on abandonment.
        self._requested: Set[Digest] = set()
        #: digests whose retry budget ran out (kept until their dependents
        #: resolve, so :meth:`revive` can re-open them)
        self._abandoned: Set[Digest] = set()
        #: responder-side token buckets: src -> (tokens, last_refill_time)
        self._rate: Dict[int, Tuple[float, float]] = {}
        #: statistics for the ablation bench / tests
        self.requests_sent = 0
        self.responses_sent = 0
        self.blocks_served = 0
        self.fanout_escalations = 0
        self.abandoned_count = 0
        self.rate_limited_count = 0
        self.oversized_requests = 0
        self.garbage_rejected = 0
        #: deepest retry level any single request cycle reached
        self.max_retries_seen = 0

    # -- registering incomplete blocks -----------------------------------------

    def note_pending(
        self, block: Block, src: int, missing: List[Digest], retrieved: bool = False
    ) -> bool:
        """Register ``block`` as waiting for ``missing`` parents and request
        them from ``src`` (the replica that sent us the block — if it is
        non-faulty it holds every ancestor, §IV-A).

        Returns True if the block is now (or already was) parked pending
        its parents; False if nothing is actually missing — the caller
        should treat the block as complete and accept it immediately
        (an empty registration would otherwise never become ready: no
        parent delivery would ever trigger :meth:`satisfied_by`).
        """
        if block.digest in self._pending:
            return True
        still_missing = [d for d in missing if d not in self.store]
        if not still_missing:
            return False
        entry = _Pending(
            block=block, src=src, missing=set(still_missing), retrieved=retrieved
        )
        self._pending[block.digest] = entry
        for parent in entry.missing:
            self._dependents.setdefault(parent, set()).add(block.digest)
        self._gauge_pending.set(len(self._pending))
        # Sorted, not set-order: ``missing`` is a set of digests, and bytes
        # hashing varies with PYTHONHASHSEED — iterating it here would leak
        # the hash seed into request contents and RNG draw order, breaking
        # the bit-identical-replay guarantee across processes (the explorer
        # shards subtrees to worker processes and replays prefixes there).
        self._request(sorted(entry.missing), src)
        return True

    def is_pending(self, digest: Digest) -> bool:
        return digest in self._pending

    def audit_state(self) -> Dict[str, object]:
        """Snapshot of the internal state machine for the invariant oracles
        (:mod:`repro.check`).  Read-only copies — safe to inspect post-run."""
        return {
            "pending": {
                digest: (entry.block, frozenset(entry.missing))
                for digest, entry in self._pending.items()
            },
            "dependents": {
                digest: frozenset(deps)
                for digest, deps in self._dependents.items()
            },
            "inflight": frozenset(self._inflight),
            "requested": frozenset(self._requested),
            "abandoned": frozenset(self._abandoned),
        }

    def pending_count(self) -> int:
        return len(self._pending)

    def inflight_count(self) -> int:
        return len(self._inflight)

    def revive(self, pending_digest: Digest) -> None:
        """Re-open abandoned/missing requests for a parked block's parents.

        Called on fresh evidence that the pending block is live — typically
        its proposer re-broadcasting it (stall recovery).  Each still-missing
        parent without an in-flight request gets a brand-new retry budget.
        """
        entry = self._pending.get(pending_digest)
        if entry is None:
            return
        # Sorted for the same cross-process determinism reason as in
        # :meth:`note_pending` — request digest order must not depend on
        # set iteration order.
        stale = [
            d
            for d in sorted(entry.missing)
            if d not in self.store and d not in self._inflight
        ]
        if stale:
            for d in stale:
                self._abandoned.discard(d)
            self._request(stale, entry.src)

    # -- issuing requests --------------------------------------------------------

    def _backoff_delay(self, retries: int) -> float:
        """Exponential backoff with deterministic (seeded) jitter.

        ``base * 2^retries`` up to ``base * 2^BACKOFF_EXP_CAP``, scaled by a
        jitter factor in [1.0, 1.5) drawn from the per-replica seeded RNG —
        deterministic per run, yet desynchronized across replicas.
        """
        exp = min(retries, BACKOFF_EXP_CAP)
        return self.retry_base * (2**exp) * (1.0 + 0.5 * self.rng.random())

    def _arm_timer(self, digest: Digest, state: _Request) -> None:
        """Arm the retry timer for a digest unless one is already pending —
        re-arming per request call would pile stale timers into the queue."""
        if state.timer_armed:
            return
        state.timer_armed = True
        self.net.set_timer(self._backoff_delay(state.retries), RETRY_TAG, digest)

    def _emit_request(
        self, digests: Sequence[Digest], dsts: Sequence[int], retry: bool
    ) -> None:
        msg = RetrievalRequest(digests=tuple(digests))
        for dst in dsts:
            self.requests_sent += 1
            self._ctr_requests.inc()
            self.net.send(dst, msg)
        if retry:
            self._ctr_retries.inc()
        if self.obs.enabled:
            self.obs.journal.emit(
                self.net.now(), "retrieval.request", self.net.node_id,
                dst=list(dsts), blocks=len(digests), retry=retry,
            )

    def _request(self, digests: List[Digest], dst: int) -> None:
        """Open a request cycle for every digest not already in flight."""
        if not self.enabled:
            return
        to_ask = []
        for d in digests:
            if d in self._inflight or d in self.store:
                continue
            self._inflight[d] = _Request(targets=(dst,))
            self._requested.add(d)
            self._abandoned.discard(d)
            to_ask.append(d)
        if not to_ask:
            return
        self._gauge_inflight.set(len(self._inflight))
        self._emit_request(to_ask, (dst,), retry=False)
        for d in to_ask:
            self._arm_timer(d, self._inflight[d])

    # -- responder side ----------------------------------------------------------

    def _rate_ok(self, src: int) -> bool:
        """Per-requester token bucket; a depleted bucket drops the request."""
        now = self.net.now()
        tokens, last = self._rate.get(src, (self.rate_burst, now))
        tokens = min(self.rate_burst, tokens + (now - last) * self.rate_refill)
        if tokens < 1.0:
            self._rate[src] = (tokens, now)
            return False
        self._rate[src] = (tokens - 1.0, now)
        return True

    def on_request(self, src: int, request: RetrievalRequest) -> None:
        """Answer with every requested block we have delivered.

        Hardened: repeat requesters are rate-limited, oversized digest
        lists are clamped, and large answers are chunked so no single
        response exceeds ``max_response_blocks`` bodies.
        """
        if not self._rate_ok(src):
            self.rate_limited_count += 1
            self._ctr_rate_limited.inc()
            return
        digests = request.digests
        if len(digests) > MAX_REQUEST_DIGESTS:
            self.oversized_requests += 1
            self._ctr_oversized.inc()
            digests = digests[:MAX_REQUEST_DIGESTS]
        blocks = [self.store.get(d) for d in digests if d in self.store]
        if not blocks:
            return
        for start in range(0, len(blocks), self.max_response_blocks):
            chunk = tuple(blocks[start : start + self.max_response_blocks])
            self.responses_sent += 1
            self.blocks_served += len(chunk)
            self._ctr_responses.inc()
            self._ctr_served.inc(len(chunk))
            self.net.send(src, RetrievalResponse(blocks=chunk))

    # -- requester side -----------------------------------------------------------

    def _digest_pinned(self, block: Block) -> bool:
        """Does the body actually hash to its claimed (requested) digest?

        The wire codec recomputes digests on decode, but in-process blocks
        travel by reference — a Byzantine responder could label garbage
        content with a requested digest.  Re-derive before trusting; a
        match is recorded on the immutable block, a mismatch never is.
        """
        if block.__dict__.get("_digest_checked"):
            return True
        if block.digest != compute_block_digest(
            block.round,
            block.author,
            block.parents,
            block.payload,
            block.repropose_index,
            block.byz_proofs,
            block.determinations,
        ):
            return False
        object.__setattr__(block, "_digest_checked", True)
        return True

    def on_response(self, src: int, response: RetrievalResponse) -> List[Tuple[Block, int]]:
        """Hand back the retrieved bodies for the node's accept path.

        Only digests with an open request are honored, and each body is
        checked to hash to its claimed digest (digest pinning) — garbage
        and unsolicited bodies are dropped here, before the accept path.
        The in-flight state is *not* cleared yet: that happens on actual
        delivery (:meth:`satisfied_by`), so a body that fails downstream
        validation still gets its remaining retries.
        """
        out: List[Tuple[Block, int]] = []
        for block in response.blocks:
            if block.digest not in self._requested:
                continue  # unsolicited block: not digest-pinned, ignore
            if not self._digest_pinned(block):
                self.garbage_rejected += 1
                self._ctr_garbage.inc()
                continue  # mislabeled garbage body
            out.append((block, src))
        return out

    def on_retry_timer(self, digest: Digest, candidates: AbstractSet) -> None:
        """Retry a still-missing block against different replicas.

        ``candidates`` are replicas known to hold the block (echoers); if
        empty, any replica other than the previous targets is tried — an
        honest one that delivered the dependent's ancestry will answer.
        Retry ``fanout_after`` escalates from one target to a
        ``fanout_width`` fan-out; retry ``retry_cap`` abandons the digest.
        """
        state = self._inflight.get(digest)
        if state is None:
            return  # delivered, abandoned, or dropped: stale timer
        state.timer_armed = False
        if digest in self.store:
            self._forget_request(digest)
            return
        if not self._dependents.get(digest):
            # No pending block needs it anymore (all dropped).
            self._forget_request(digest)
            return
        if state.retries >= self.retry_cap:
            self._abandon(digest)
            return
        state.retries += 1
        if state.retries > self.max_retries_seen:
            self.max_retries_seen = state.retries
        self._gauge_backoff.set(
            max(s.retries for s in self._inflight.values())
        )
        fanout = state.retries >= self.fanout_after
        targets = self._pick_targets(state, candidates, fanout)
        state.targets = tuple(targets)
        if fanout and not state.fanned_out:
            state.fanned_out = True
            self.fanout_escalations += 1
            self._ctr_fanout.inc()
            if self.obs.enabled:
                self.obs.journal.emit(
                    self.net.now(), "retrieval.fanout", self.net.node_id,
                    retries=state.retries, width=len(targets),
                )
        self._emit_request((digest,), targets, retry=True)
        self._arm_timer(digest, state)

    def _pick_targets(
        self, state: _Request, candidates: AbstractSet, fanout: bool
    ) -> List[int]:
        """Choose the next responder(s), avoiding self and the last targets."""
        me = self.net.node_id
        avoid = set(state.targets) | {me}
        pool = sorted(c for c in candidates if c not in avoid)
        if not pool:
            pool = [i for i in range(self.net.n) if i not in avoid]
        if not pool:
            # Everyone has been tried in this very round; previous targets
            # are all that is left.
            pool = sorted(set(state.targets) - {me}) or [me]
        if not fanout:
            return [self.rng.choice(pool)]
        if len(pool) <= self.fanout_width:
            return pool
        return sorted(self.rng.sample(pool, self.fanout_width))

    def _abandon(self, digest: Digest) -> None:
        """Retry budget exhausted: stop all timers and release the request.

        The dependents stay parked (a late delivery through any path still
        completes them), and :meth:`revive` / a new dependent re-opens the
        request with a fresh budget.
        """
        self._inflight.pop(digest, None)
        self._requested.discard(digest)
        self._abandoned.add(digest)
        self.abandoned_count += 1
        self._ctr_abandoned.inc()
        self._gauge_inflight.set(len(self._inflight))
        if self.obs.enabled:
            self.obs.journal.emit(
                self.net.now(), "retrieval.abandon", self.net.node_id,
                dependents=len(self._dependents.get(digest, ())),
            )

    def _forget_request(self, digest: Digest) -> None:
        """Release all request-side state for a digest (delivered or moot)."""
        if self._inflight.pop(digest, None) is not None:
            self._gauge_inflight.set(len(self._inflight))
        self._requested.discard(digest)
        self._abandoned.discard(digest)

    # -- progress on deliveries ------------------------------------------------

    def satisfied_by(self, delivered: Digest) -> List[Tuple[Block, int, bool]]:
        """Called when any block is delivered; returns ``(block, src,
        retrieved)`` triples whose parent sets just became complete (ready
        for re-acceptance).  All request state for ``delivered`` is pruned
        here — this is the normal GC point for ``_requested``."""
        self._forget_request(delivered)
        deps = self._dependents.pop(delivered, None)
        if not deps:
            return []
        ready: List[Tuple[Block, int, bool]] = []
        # ``deps`` is a set of digests; the iteration order here decides the
        # order parked blocks are re-accepted (and hence send order at the
        # caller), so it must be canonical, not hash-seed dependent.
        for dep_digest in sorted(deps):
            entry = self._pending.get(dep_digest)
            if entry is None:
                continue
            entry.missing.discard(delivered)
            if not entry.missing:
                del self._pending[dep_digest]
                ready.append((entry.block, entry.src, entry.retrieved))
        self._gauge_pending.set(len(self._pending))
        return ready

    def drop_pending(self, digest: Digest) -> None:
        """Forget a pending block (it was delivered through another path or
        proved invalid).  Parents left without any dependent have their
        request state cancelled too — nothing needs them anymore."""
        entry = self._pending.pop(digest, None)
        if entry is None:
            return
        self._gauge_pending.set(len(self._pending))
        for parent in entry.missing:
            deps = self._dependents.get(parent)
            if deps is not None:
                deps.discard(digest)
                if not deps:
                    del self._dependents[parent]
                    self._forget_request(parent)

    def gc_below(self, horizon: int) -> int:
        """Round GC: drop pending blocks below ``horizon`` (their rounds are
        being pruned from the store — they can never be accepted) along
        with any request state their missing parents held.  Returns the
        number of pending blocks dropped."""
        stale = [
            d for d, entry in self._pending.items() if entry.block.round < horizon
        ]
        for digest in stale:
            self.drop_pending(digest)
        return len(stale)
