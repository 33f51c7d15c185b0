"""The block retrieval mechanism (§IV-A).

CBC and PBC lack totality, so a replica can receive a block ``B`` whose
ancestors it never delivered.  Retrieval patches the hole:

    "when a replica p_i receives a block B through the VAL step of CBC from
    another replica p_j, p_i checks whether it has already delivered all
    parent blocks of B.  If not, p_i sends a request to retrieve the
    missing blocks by including their hashes in the request. [...]  This
    block retrieval process continues until p_i has delivered all the
    ancestors of B.  Then, p_i participates in the CBC process of B."

This manager tracks *pending* blocks (received, parents missing), asks for
their missing parents, answers peers' requests from the local store, and
keeps asking until every parent is delivered:

* **One ask per digest, then the recovery tick.**  A parked block's
  missing parents are asked of the replica that sent it (if non-faulty it
  holds every ancestor).  The owning node's periodic recovery tick calls
  :meth:`on_retry_timer`: every digest asked before the previous tick and
  still missing goes out again, in one request, to the next peer of a
  fixed rotation that skips this replica.  A digest missing for ``n - 1``
  ticks has been asked of every other replica, so of every honest holder,
  whatever the first-choice responder does.  There is no per-digest timer
  and no randomness.
* **Fresh evidence re-asks at once** — a parked block re-broadcast by its
  proposer (stall recovery) re-asks its still-missing parents from its
  sender (:meth:`revive`), without restamping the open asks.
* **Responder-side hardening** — oversized requests are clamped, answers
  are chunked to ``max_response_blocks`` blocks per message, and repeat
  requesters are rate-limited by a per-peer token bucket.
* **Digest pinning is verified** — a response body is only accepted if it
  hashes to a digest we actually asked for; a garbage or unsolicited body
  is dropped before it touches the accept path.

All state (``_pending`` / ``_dependents`` / ``_asked``) is pruned on
delivery, when the last block needing a digest is dropped, and on round GC
(:meth:`gc_below`), so a long-running replica's retrieval footprint is
bounded by its live horizon.  The owning node funnels every received block
body through :meth:`note_pending` / :meth:`satisfied_by` and re-enters its
accept path for whatever becomes complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

#: Blocks per RetrievalResponse message (larger answers are chunked).
DEFAULT_MAX_RESPONSE_BLOCKS = 16

#: Responder-side token bucket: burst capacity and refill rate (tokens/s).
#: One token buys one request, i.e. up to ``MAX_REQUEST_DIGESTS`` lookups.
#: Sized for the legitimate worst case — a healed straggler unwinding many
#: rounds of ancestry has hundreds of digests open — while still bounding
#: what a request-flooding peer can extract: at most ``refill`` requests/s
#: steady state, so ``refill * MAX_REQUEST_DIGESTS`` lookups/s, instead of
#: saturating the responder's CPU and uplink.
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


class RetrievalManager:
    """Per-replica retrieval state machine."""

    #: Explorer fingerprint exclusions (see ``BaseDagNode.FINGERPRINT_SKIP``):
    #: the environment (``store`` is fingerprinted once via the owning node)
    #: and reporting counters that mirror history rather than influence
    #: behaviour.
    FINGERPRINT_SKIP = frozenset({
        "net", "obs", "store",
        "requests_sent", "responses_sent", "blocks_served",
        "abandoned_count", "rate_limited_count",
        "oversized_requests", "garbage_rejected",
    })

    def __init__(
        self,
        net: NetworkAPI,
        store: DagStore,
        enabled: bool = True,
        obs: Optional[Observability] = None,
        max_response_blocks: int = DEFAULT_MAX_RESPONSE_BLOCKS,
        rate_burst: float = DEFAULT_RATE_BURST,
        rate_refill: float = DEFAULT_RATE_REFILL,
    ) -> None:
        self.net = net
        self.store = store
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
        self._ctr_abandoned = metrics.counter("retrieval.abandoned")
        self._ctr_rate_limited = metrics.counter("retrieval.rate_limited")
        self._ctr_oversized = metrics.counter("retrieval.oversized_requests")
        self._ctr_garbage = metrics.counter("retrieval.garbage_responses")
        # Gauges are per replica: a shared one would export whichever
        # replica wrote last.
        replica = net.node_id
        self._gauge_pending = metrics.gauge("retrieval.pending", replica=replica)
        self._gauge_inflight = metrics.gauge("retrieval.inflight", replica=replica)
        #: blocks waiting for parents, keyed by their digest
        self._pending: Dict[Digest, _Pending] = {}
        #: reverse index: missing parent digest -> dependent block digests
        self._dependents: Dict[Digest, Set[Digest]] = {}
        #: open asks: digest -> time of its latest request.  Responses are
        #: only honored for these (an unsolicited "gift" block is not
        #: digest-authenticated).
        self._asked: Dict[Digest, float] = {}
        #: time of the previous recovery tick (none yet)
        self._last_tick = float("-inf")
        #: the rotation's latest re-ask target; the next one follows it
        self._rotation = net.node_id
        #: responder-side token buckets: src -> (tokens, last_refill_time)
        self._rate: Dict[int, Tuple[float, float]] = {}
        #: statistics for the ablation bench / tests
        self.requests_sent = 0
        self.responses_sent = 0
        self.blocks_served = 0
        #: asks released because no parked block needed them any more
        self.abandoned_count = 0
        self.rate_limited_count = 0
        self.oversized_requests = 0
        self.garbage_rejected = 0

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
        # the hash seed into request contents, breaking the
        # bit-identical-replay guarantee across processes (the explorer
        # shards subtrees to worker processes and replays prefixes there).
        self._ask([d for d in sorted(entry.missing) if d not in self._asked], src)
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
            "asked": frozenset(self._asked),
        }

    def pending_count(self) -> int:
        return len(self._pending)

    def inflight_count(self) -> int:
        return len(self._asked)

    def revive(self, pending_digest: Digest) -> None:
        """Re-ask a parked block's still-missing parents from its sender now.

        Called on fresh evidence that the pending block is live — its
        proposer re-broadcasting it (stall recovery).  The asks keep their
        stamps, so the tick's rotation runs on whatever the sender does.
        """
        entry = self._pending.get(pending_digest)
        if entry is not None:
            # Sorted for the same cross-process determinism reason as in
            # :meth:`note_pending`.
            self._ask(sorted(entry.missing), entry.src)

    # -- issuing requests --------------------------------------------------------

    def _ask(self, digests: Sequence[Digest], dst: int, retry: bool = False) -> None:
        """Ask ``dst`` for ``digests`` now, at most ``MAX_REQUEST_DIGESTS``
        per request.

        Only a tick re-ask (``retry``) restamps its digests; any other ask
        stamps just the digests not yet open.  Otherwise a peer re-sending
        a parked block's VAL every period (:meth:`revive`) would keep its
        parents forever young, and the rotation would never move them on
        to another replica.
        """
        if not self.enabled or not digests:
            return
        now = self.net.now()
        for d in digests:
            if retry:
                self._asked[d] = now
            else:
                self._asked.setdefault(d, now)
        self._gauge_inflight.set(len(self._asked))
        for start in range(0, len(digests), MAX_REQUEST_DIGESTS):
            chunk = tuple(digests[start : start + MAX_REQUEST_DIGESTS])
            self.requests_sent += 1
            self._ctr_requests.inc()
            if retry:
                self._ctr_retries.inc()
            self.net.send(dst, RetrievalRequest(digests=chunk))
            if self.obs.enabled:
                self.obs.journal.emit(
                    now, "retrieval.request", self.net.node_id,
                    dst=dst, blocks=len(chunk), retry=retry,
                )

    def on_retry_timer(self) -> None:
        """The recovery tick's retrieval half: re-ask every stale digest.

        A digest is stale when it was last asked no later than the previous
        tick, i.e. at least one tick period ago.  All of them go to one
        peer, the next of a rotation over every replica but this one.
        """
        stale = sorted(d for d, at in self._asked.items() if at <= self._last_tick)
        self._last_tick = self.net.now()
        if not stale:
            return
        n, me = self.net.n, self.net.node_id
        self._rotation = (self._rotation + 1) % n
        if self._rotation == me:
            self._rotation = (self._rotation + 1) % n
        self._ask(stale, self._rotation, retry=True)

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
        if block.digest != compute_block_digest(block):
            return False
        object.__setattr__(block, "_digest_checked", True)
        return True

    def on_response(self, src: int, response: RetrievalResponse) -> List[Tuple[Block, int]]:
        """Hand back the retrieved bodies for the node's accept path.

        Only digests with an open ask are honored, and each body is
        checked to hash to its claimed digest (digest pinning) — garbage
        and unsolicited bodies are dropped here, before the accept path.
        The ask is *not* closed yet: that happens on actual delivery
        (:meth:`satisfied_by`), so a body that fails downstream validation
        is still asked again on the next tick.
        """
        out: List[Tuple[Block, int]] = []
        for block in response.blocks:
            if block.digest not in self._asked:
                continue  # unsolicited block: not digest-pinned, ignore
            if not self._digest_pinned(block):
                self.garbage_rejected += 1
                self._ctr_garbage.inc()
                continue  # mislabeled garbage body
            out.append((block, src))
        return out

    def _close_ask(self, digest: Digest) -> bool:
        """Close the ask for a digest (delivered or moot); True if one was open."""
        if self._asked.pop(digest, None) is None:
            return False
        self._gauge_inflight.set(len(self._asked))
        return True

    # -- progress on deliveries ------------------------------------------------

    def satisfied_by(self, delivered: Digest) -> List[Tuple[Block, int, bool]]:
        """Called when any block is delivered; returns ``(block, src,
        retrieved)`` triples whose parent sets just became complete (ready
        for re-acceptance).  The delivered digest's ask is closed here —
        late duplicate responses for it are ignored from now on."""
        self._close_ask(delivered)
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
        proved invalid).  Parents left without any dependent have their ask
        closed too — nothing needs them anymore — and count as abandoned."""
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
                    if self._close_ask(parent):
                        self.abandoned_count += 1
                        self._ctr_abandoned.inc()

    def gc_below(self, horizon: int) -> int:
        """Round GC: drop pending blocks below ``horizon`` (their rounds are
        being pruned from the store — they can never be accepted) along
        with any ask their missing parents held.  Returns the number of
        pending blocks dropped."""
        stale = [
            d for d, entry in self._pending.items() if entry.block.round < horizon
        ]
        for digest in stale:
            self.drop_pending(digest)
        return len(stale)
