"""The shared DAG-consensus engine.

Every protocol in this repository — LightDAG1, LightDAG2, DAG-Rider, Tusk,
Bullshark — is an instance of the same skeleton (§II-B):

1. advance through rounds, proposing one block per round once ``n - f``
   distinct slots of the previous round have been delivered;
2. broadcast each block with some broadcast primitive (the paper's whole
   point is *which* primitive);
3. learn each wave's leader slot — from Global-Perfect-Coin shares carried
   in the wave's last-round blocks, or from a predefined schedule;
4. hand every delivery and every known leader to the one commit rule
   (:mod:`repro.core.commit`: direct commit, Algorithm 1's cascade, commit
   scope) and append what it returns to the ledger.

:class:`BaseDagNode` implements all of that plus the §IV-A retrieval
integration.  What distinguishes a protocol is **data** — the class
attributes listed on :class:`BaseDagNode` — from which this class builds
the broadcast managers, routes VAL/ECHO/READY and parameterizes the commit
rule.  Only behaviour the paper describes as different is left to methods:
LightDAG2's Rules 2–4 and Bullshark's leader wait.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..broadcast.cbc import CbcManager
from ..broadcast.messages import (
    BlockEcho,
    BlockReady,
    BlockVal,
    RetrievalRequest,
    RetrievalResponse,
)
from ..broadcast.pbc import PbcManager
from ..broadcast.rbc import RbcManager
from ..config import ProtocolConfig, SystemConfig, resolve_threshold
from ..crypto.backend import CryptoBackend, make_backend
from ..crypto.coin import CoinShare, GlobalPerfectCoin, make_coin
from ..crypto.hashing import Digest, short_hex
from ..crypto.keys import KeyChain
from ..dag.block import Block, EMPTY_BATCH, TxBatch, make_block
from ..dag.ledger import CommitRecord, Ledger
from ..dag.rounds import WaveStructure
from ..dag.store import DagStore
from ..dag.validation import validate_block_structure
from ..errors import InvalidBlockError, UnknownBlockError
from ..net.interfaces import Message, NetworkAPI, Node
from ..obs import NULL_OBS, Observability
from .commit import Commit, CommitRule
from .retrieval import RetrievalManager

#: Signature of the payload hook: ``payload_source(now) -> TxBatch``.
PayloadSource = Callable[[float], TxBatch]
#: Signature of the commit hook: ``on_commit(record) -> None``.
CommitCallback = Callable[[CommitRecord], None]

#: Timer tag for the deferred-proposal tick (see ``_schedule_advance``).
ADVANCE_TAG = "__advance__"

#: Timer tag for the periodic recovery tick: stale retrieval re-asks and
#: the stall check.
STALL_CHECK_TAG = "__stall_check__"

#: Period of the recovery tick (seconds).
STALL_CHECK_PERIOD = 0.5

#: Silence (no delivery/proposal progress) before a stall re-broadcast,
#: once at least one block has ever been delivered.
STALL_AFTER = 2 * STALL_CHECK_PERIOD

#: More patient threshold before the *first* delivery: a slow first wave
#: (high-latency models, large-n CPU queues) is startup, not a stall, and
#: must not trigger re-broadcast storms at every check.
STALL_STARTUP_GRACE = 8 * STALL_CHECK_PERIOD


class BaseDagNode(Node):
    """Common engine; subclasses say what differs, mostly as data.

    Subclass contract (class attributes)
    ------------------------------------
    WAVE_LENGTH / WAVE_OVERLAP:
        The :class:`~repro.dag.rounds.WaveStructure` parameters.
    BROADCAST:
        The broadcast primitive (``"pbc"``, ``"cbc"`` or ``"rbc"``) of each
        wave position ``e = 1 .. WAVE_LENGTH``; each one named is built and
        reachable as ``node.pbc`` / ``node.cbc`` / ``node.rbc`` (else None).
    SUPPORT_DEPTH:
        Rounds between a wave's first round (the leader round) and the
        round whose references directly commit the leader (1 for
        LightDAG1/Tusk, 3 for DAG-Rider).
    SUPPORT_THRESHOLD:
        Supporters a direct commit needs: ``"f+1"``, ``"2f+1"``, ``"n-f"``,
        or ``"config"`` for ``ProtocolConfig.commit_threshold``.
    LEADER_SOURCE:
        ``"coin"`` (each block of a wave's last round carries its author's
        GPC share) or ``"predefined"`` (:meth:`predefined_leader`; blocks
        carry no share).
    STRICT_STORE:
        Whether a second block in a slot is a fatal violation (True for
        every CBC/RBC protocol; LightDAG2 sets False).
    HANDLERS:
        Message class → name of the method handling it (LightDAG2 adds its
        notices); anything unlisted reaches ``_on_other_message``.

    Subclass contract (methods)
    ---------------------------
    ``_participate`` (default: endorse at most one block per slot),
    ``_parent_allowed``, ``_can_propose_extra``, ``_build_block``,
    ``_inspect_body``, ``_after_deliver``, ``_on_other_message``,
    ``_gc_state`` and, for predefined leaders, ``predefined_leader``.
    """

    WAVE_LENGTH = 3
    WAVE_OVERLAP = False
    BROADCAST = ("cbc", "cbc", "cbc")
    SUPPORT_DEPTH = 1
    SUPPORT_THRESHOLD = "f+1"
    LEADER_SOURCE = "coin"
    STRICT_STORE = True

    HANDLERS = {
        BlockVal: "_on_val",
        BlockEcho: "_on_echo",
        BlockReady: "_on_ready",
        RetrievalRequest: "_on_retrieval_request",
        RetrievalResponse: "_on_retrieval_response",
    }
    #: ``on_message``'s table, message class -> handler function: one per
    #: node class, filled by ``_resolve_handler`` on first sight of a class.
    _dispatch: Dict[type, Callable] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._dispatch = {}

    #: Attributes the model-checking explorer (:mod:`repro.check.explorer`)
    #: excludes when fingerprinting a replica's state: the immutable
    #: environment (configs, wave geometry, crypto backend, network facade)
    #: and the harness callbacks.  Everything else on the instance is
    #: protocol state and *must* participate in the canonical state hash —
    #: adding an attribute here hides it from revisit pruning, so only list
    #: things that provably cannot influence future behaviour.
    FINGERPRINT_SKIP = frozenset({
        "net", "obs", "system", "protocol", "wave", "backend",
        "payload_source", "on_commit", "on_deliver_hook", "_obs_emit",
    })

    def __init__(
        self,
        net: NetworkAPI,
        system: SystemConfig,
        protocol: ProtocolConfig,
        keychain: KeyChain,
        payload_source: Optional[PayloadSource] = None,
        on_commit: Optional[CommitCallback] = None,
        on_deliver: Optional[Callable[[Block, float], None]] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(net)
        #: optional observation hook fired on every delivery (tracing)
        self.on_deliver_hook = on_deliver
        self.system = system
        self.protocol = protocol
        self.obs = obs if obs is not None else NULL_OBS
        #: pre-bound journal emit for hot paths (None when the journal is
        #: off), so ``block.*`` and ``trace.*`` sites alike pay one
        #: attribute read + branch, not three.
        self._obs_emit = self.obs.journal.emit if self.obs.journal.enabled else None
        metrics = self.obs.metrics
        self._ctr_rounds = metrics.counter("core.rounds_advanced")
        self._ctr_delivered = metrics.counter("core.blocks_delivered")
        self._ctr_committed = metrics.counter("core.blocks_committed")
        self._ctr_coin_reveals = metrics.counter("core.coin_reveals")
        self._ctr_stall_rebroadcasts = metrics.counter("core.stall_rebroadcasts")
        self._ctr_commit_kind = {
            "direct": metrics.counter("core.wave_commits", kind="direct"),
            "cascade": metrics.counter("core.wave_commits", kind="cascade"),
        }
        self.wave = WaveStructure(self.WAVE_LENGTH, overlap=self.WAVE_OVERLAP)
        self.backend: CryptoBackend = make_backend(
            system.crypto, net.node_id, system, keychain
        )
        self.coin: GlobalPerfectCoin = make_coin(system.crypto, keychain, system.seed)
        self.store = DagStore(system.n, strict=self.STRICT_STORE)
        self.ledger = Ledger()
        self.retrieval = RetrievalManager(
            net, self.store, enabled=protocol.retrieval_enabled, obs=self.obs
        )
        self.payload_source = payload_source or (lambda now: EMPTY_BATCH)
        self.on_commit = on_commit

        self.next_round = 1
        #: Stall-detection clock: time of the last forward progress
        #: (delivery, own proposal, or stall re-broadcast).  ``None`` until
        #: armed — sim start is not a delivery, so the clock only starts
        #: once we have something of our own worth re-broadcasting.
        self._stall_clock: Optional[float] = None
        self._delivered_any = False
        self._my_latest_block: Optional[Block] = None
        #: wave -> leader slot, filled by coin reveals or the predefined
        #: schedule; shared with (and garbage-collected by) the commit rule
        self.revealed_leaders: Dict[int, int] = {}
        #: waves of the predefined schedule already in ``revealed_leaders``
        self._predefined_waves = 0
        threshold = self.SUPPORT_THRESHOLD
        if threshold == "config":
            threshold = protocol.commit_threshold
        self.commit = CommitRule(
            self.store,
            self.wave,
            self.revealed_leaders,
            self.ledger.committed_digests,
            support_depth=self.SUPPORT_DEPTH,
            support_threshold=resolve_threshold(threshold, system),
            gc_depth=protocol.gc_depth,
        )
        #: digest -> round for every authenticated body seen (dedup gate)
        #: and every rejected digest.  Round-stamped so :meth:`_gc_state`
        #: can drop entries below the commit horizon — as plain sets these
        #: grow with total blocks ever seen, which unbounds long runs.
        self._known: Dict[Digest, int] = {}
        self._invalid: Dict[Digest, int] = {}
        self._advance_scheduled = False
        self._quorum = system.quorum

        # One manager per primitive BROADCAST names (None for the others:
        # constructing one registers its metrics), all delivering here.
        deliver, kinds = self._on_deliver, self.BROADCAST
        self.pbc = PbcManager(net, deliver, obs=self.obs) if "pbc" in kinds else None
        self.cbc = (
            CbcManager(net, system.quorum, deliver, obs=self.obs)
            if "cbc" in kinds else None
        )
        self.rbc = (
            RbcManager(
                net, system.quorum, system.validity_quorum, deliver, obs=self.obs
            )
            if "rbc" in kinds else None
        )
        #: manager of wave position e at index e - 1, one stride long: with
        #: overlapping waves position WAVE_LENGTH *is* the next position 1.
        self._round_managers = tuple(
            getattr(self, kind) for kind in self.BROADCAST[: self.wave.stride]
        )

    # ------------------------------------------------------------------ hooks

    def _manager_for_round(self, round_: int):
        """The broadcast manager handling blocks of ``round_``."""
        managers = self._round_managers
        return managers[(round_ - 1) % len(managers)]

    def _broadcast_block(self, block: Block) -> None:
        self._manager_for_round(block.round).broadcast(block)

    def _participate(self, block: Block, src: int, parents: List[Block]) -> None:
        """Vote/echo policy, called once a block is structurally valid and
        all its ancestors are delivered (§IV-A gate already passed);
        ``parents`` are its parent blocks, in ``block.parents`` order.

        Default: endorse at most one block per slot — the honest-replica
        discipline CBC's and RBC's consistency proofs rest on.  PBC rounds
        deliver without votes."""
        manager = self._manager_for_round(block.round)
        if manager is self.rbc:
            manager.echo(block)  # RbcManager keeps the once-per-slot gate
        elif manager is self.cbc and not manager.has_voted_in_slot(block.slot):
            manager.vote(block)

    def predefined_leader(self, wave_num: int) -> int:
        """``LEADER_SOURCE = "predefined"``: the leader slot of a wave."""
        raise NotImplementedError

    def _parent_allowed(self, block: Block) -> bool:
        """May ``block`` be chosen as a parent of our next proposal?"""
        return True

    def _can_propose_extra(self, round_: int) -> bool:
        """Additional proposal preconditions (Bullshark's leader wait,
        LightDAG2's coin-reveal wait at wave boundaries)."""
        return True

    def _after_deliver(self, block: Block) -> None:
        """Protocol-specific reaction to a delivery (before commit checks)."""

    def _on_other_message(self, src: int, msg: Message) -> None:
        """A message of no class ``HANDLERS`` lists (ignored)."""

    def _build_block(self, round_: int, parents: List[Digest], payload: TxBatch) -> Block:
        """Assemble the outgoing block (LightDAG2 adds Byzantine proofs)."""
        return self._make_block(round_, parents, payload)

    def _make_block(
        self, round_: int, parents: List[Digest], payload: TxBatch, **fields
    ) -> Block:
        """Sign a block of ours; in a wave's last round it carries our coin
        share for that wave (:meth:`_share_wave`).  Every block this
        replica authors is made here."""
        wave_num = self._share_wave(round_)
        share = None if wave_num is None else self.coin.make_share(wave_num)
        return make_block(
            round_, self.node_id, parents, payload,
            coin_share=share, signer=self.backend, **fields,
        )

    def _share_wave(self, round_: int) -> Optional[int]:
        """The wave whose coin share a block of ``round_`` must carry: the
        one ending at ``round_``, under a coin; None if no share is due."""
        if self.LEADER_SOURCE != "coin":
            return None
        return self.wave.wave_of_last_round(round_)

    # -------------------------------------------------------------- lifecycle

    def on_start(self) -> None:
        self._stall_clock = None  # disarmed until our first own proposal
        self.net.set_timer(STALL_CHECK_PERIOD, STALL_CHECK_TAG)
        self._try_advance()

    def on_message(self, src: int, msg: Message) -> None:
        handler = self._dispatch.get(msg.__class__)
        if handler is None:
            handler = self._resolve_handler(msg.__class__)
        handler(self, src, msg)

    @classmethod
    def _resolve_handler(cls, msg_cls: type) -> Callable:
        """First ``HANDLERS`` entry along the message class's MRO (a
        subclass of a listed message routes as its base), else
        ``_on_other_message``; cached per node class."""
        name = next(
            (cls.HANDLERS[base] for base in msg_cls.__mro__ if base in cls.HANDLERS),
            "_on_other_message",
        )
        handler = cls._dispatch[msg_cls] = getattr(cls, name)
        return handler

    def _on_val(self, src: int, msg: BlockVal) -> None:
        self._on_block_body(src, msg.block)

    def _on_echo(self, src: int, msg: BlockEcho) -> None:
        # _manager_for_round, inlined: one call per echo is the hot path.
        managers = self._round_managers
        manager = managers[(msg.round - 1) % len(managers)]
        if manager is not self.pbc:  # PBC rounds have no ECHO step
            manager.on_echo(src, msg)

    def _on_ready(self, src: int, msg: BlockReady) -> None:
        manager = self._manager_for_round(msg.round)
        if manager is self.rbc:  # only RBC rounds have a READY step
            manager.on_ready(src, msg)

    def _on_retrieval_request(self, src: int, msg: RetrievalRequest) -> None:
        self.retrieval.on_request(src, msg)

    def _on_retrieval_response(self, src: int, msg: RetrievalResponse) -> None:
        deliveries = list(self.retrieval.on_response(src, msg))
        if len(deliveries) > 1:
            # A chunked response carries many author signatures at
            # once: one randomized batch verification seeds the
            # deal's verified-claims memo, so the per-block check in
            # _on_block_body is a set lookup.  A failed batch is
            # simply not cached — the per-block path then localizes
            # and attributes the forgery exactly as without batching.
            self.backend.verify_batch(
                [
                    (block.author, block.digest, block.signature)
                    for block, _origin in deliveries
                    if block.digest not in self._known
                    and block.digest not in self._invalid
                ]
            )
        for block, origin in deliveries:
            self._on_block_body(origin, block, retrieved=True)

    def on_timer(self, tag: str, data=None) -> None:
        if tag == ADVANCE_TAG:
            self._advance_scheduled = False
            self._try_advance()
        elif tag == STALL_CHECK_TAG:
            # The one recovery tick: re-ask stale retrievals, then
            # re-broadcast our latest block if we have stalled.
            self.retrieval.on_retry_timer()
            self._recover_from_stall()
            self.net.set_timer(STALL_CHECK_PERIOD, STALL_CHECK_TAG)

    def _schedule_advance(self) -> None:
        """Defer proposing to a zero-delay timer so every delivery arriving
        at the *same simulated instant* is incorporated as a parent before
        the proposal goes out (otherwise the quorum-completing delivery
        systematically orphans its same-timestamp siblings)."""
        if not self._advance_scheduled:
            self._advance_scheduled = True
            self.net.set_timer(0.0, ADVANCE_TAG)

    # -------------------------------------------------------------- accepting

    def _on_block_body(self, src: int, block: Block, retrieved: bool = False) -> None:
        """Entry point for every block body (VAL or digest-pinned retrieval).

        An authenticated body is also how coin shares arrive: one that
        carries the wrong share, or none where one is due, is rejected
        like a bad signature; a valid share goes to the coin.  A replica
        that missed a share gets it back with the block, by retrieval."""
        if block.digest in self._invalid:
            return
        if block.digest in self._known:
            manager = self._manager_for_round(block.round)
            if retrieved:
                if not manager.is_delivered(block.digest):
                    # A body we saw as a VAL but could not deliver (echo
                    # quorum missing at us) arriving again as a retrieval
                    # response is digest-pinned: deliverable directly (§IV-A).
                    self._try_accept(block, src, retrieved=True)
            else:
                # Duplicate VAL = a peer's stall-recovery re-broadcast;
                # refresh our endorsement so lost echoes are replaced (also
                # when delivered here: a healed cut's other side may need
                # exactly ours), and re-ask a parked block's parents now.
                manager.refresh_vote(block)
                if self.retrieval.is_pending(block.digest):
                    self.retrieval.revive(block.digest)
            return
        if not 0 <= block.author < self.system.n or block.round < 1:
            self._invalid[block.digest] = block.round
            return
        if not self.backend.verify(block.author, block.digest, block.signature):
            self._invalid[block.digest] = block.round
            return
        if not self._carries_due_share(block):
            self._invalid[block.digest] = block.round
            return
        self._known[block.digest] = block.round
        if self._obs_emit is not None:
            # Carry the parent digests so the analysis layer can walk a
            # committed block's causal ancestry from the journal alone.
            self._obs_emit(
                self.net.now(), "trace.body", self.node_id,
                round=block.round, author=block.author,
                digest=short_hex(block.digest), src=src,
                retrieved=retrieved,
                parents=[short_hex(p) for p in block.parents],
            )
        if block.coin_share is not None:
            self._add_coin_share(block.coin_share)
        self._inspect_body(block)
        self._manager_for_round(block.round).on_val(src, block)
        self._try_accept(block, src, retrieved=retrieved)

    def _carries_due_share(self, block: Block) -> bool:
        """Does ``block`` carry exactly the share its round calls for: its
        author's valid share for the wave ending there, else none?"""
        share = block.coin_share
        wave_num = self._share_wave(block.round)
        if share is None:
            return wave_num is None
        return (
            share.wave == wave_num
            and share.replica == block.author
            and self.coin.check_share(share)
        )

    def _inspect_body(self, block: Block) -> None:
        """Hook run on every authenticated body before acceptance —
        LightDAG2 harvests embedded Byzantine proofs here."""

    def _try_accept(self, block: Block, src: int, retrieved: bool = False) -> None:
        """Park the block while a parent is undelivered (§IV-A); once none
        is, validate its structure and participate.  The parents are
        resolved here, once, and handed down."""
        try:
            parents = self.store.parents_of(block)
        except UnknownBlockError:
            # (never False: ``missing`` is read off the same store, now)
            self.retrieval.note_pending(
                block, src, self.store.missing(block.parents), retrieved=retrieved
            )
            return
        try:
            validate_block_structure(
                block,
                self.store,
                self.system,
                min_parents=self._quorum,
                parents=parents,
            )
        except InvalidBlockError:
            self._invalid[block.digest] = block.round
            self.retrieval.drop_pending(block.digest)
            return
        self._participate(block, src, parents)
        manager = self._manager_for_round(block.round)
        if retrieved:
            # Digest-pinned retrieval response: deliver directly, without
            # waiting for an echo/ready quorum we may have missed entirely
            # (the §IV-A catch-up path; see CbcManager.deliver_retrieved).
            manager.deliver_retrieved(block.digest)
        else:
            manager.mark_ready(block.digest)

    # -------------------------------------------------------------- delivery

    def _on_deliver(self, block: Block) -> None:
        """Broadcast-manager callback: the block is delivered (§II-B sense)."""
        if not self.store.add(block):
            return
        now = self.net.now()
        self._stall_clock = now
        self._delivered_any = True
        self._ctr_delivered.inc()
        if self._obs_emit is not None:
            self._obs_emit(
                now, "block.deliver", self.node_id,
                round=block.round, author=block.author,
                digest=short_hex(block.digest),
            )
        if self.on_deliver_hook is not None:
            self.on_deliver_hook(block, now)
        self.retrieval.drop_pending(block.digest)
        for dep, src, was_retrieved in self.retrieval.satisfied_by(block.digest):
            if self._obs_emit is not None:
                self._obs_emit(
                    now, "trace.unblocked", self.node_id,
                    digest=short_hex(dep.digest), round=dep.round,
                    author=dep.author, by=short_hex(block.digest),
                )
            # Re-resolves the parents: one pruned since the block was
            # parked sends it back to retrieval.
            self._try_accept(dep, src, retrieved=was_retrieved)
        self._after_deliver(block)
        if self.LEADER_SOURCE == "predefined":
            self._predefine_leaders(block.round + 1)
        self._apply_commits(self.commit.block_delivered(block))
        self._schedule_advance()

    # -------------------------------------------------------------- proposing

    def _try_advance(self) -> None:
        while self._can_propose(self.next_round):
            self._propose(self.next_round)
            self.next_round += 1

    def _can_propose(self, round_: int) -> bool:
        # Most advance-timer wake-ups: fewer occupied slots than a quorum.
        if self.store.round_author_count(round_ - 1) < self._quorum:
            return False
        ready = 0
        for author in self.store.authors_in_round(round_ - 1):
            candidate = self.store.block_in_slot(round_ - 1, author)
            if candidate is not None and self._parent_allowed(candidate):
                ready += 1
        if ready < self._quorum:
            return False
        return self._can_propose_extra(round_)

    def _choose_parents(self, round_: int) -> List[Digest]:
        parents = []
        for author in sorted(self.store.authors_in_round(round_ - 1)):
            candidate = self.store.block_in_slot(round_ - 1, author)
            if candidate is not None and self._parent_allowed(candidate):
                parents.append(candidate.digest)
        return parents

    def _propose(self, round_: int) -> None:
        now = self.net.now()
        parents = self._choose_parents(round_)
        payload = self.payload_source(now)
        block = self._build_block(round_, parents, payload)
        self._my_latest_block = block
        # Proposing is forward progress too: (re-)arm the stall clock so
        # detection counts from our first own proposal, never from t=0.
        self._stall_clock = now
        self._ctr_rounds.inc()
        if self._obs_emit is not None:
            # The batch's submit-time sum rides along, so the analysis
            # derives the client queue wait (txs * t - sum) / txs exactly.
            self._obs_emit(
                now, "block.propose", self.node_id,
                round=round_, author=self.node_id,
                digest=short_hex(block.digest), txs=payload.count,
                submit_sum=payload.submit_time_sum,
            )
        self._broadcast_block(block)

    # -------------------------------------------------------------- the coin

    def _add_coin_share(self, share: CoinShare) -> None:
        """Count a verified share carried by an authenticated body."""
        wave_num = share.wave
        if wave_num in self.revealed_leaders:
            return
        leader = self.coin.add_share(share)
        if leader is not None:
            self.revealed_leaders[wave_num] = leader
            self._ctr_coin_reveals.inc()
            if self._obs_emit is not None:
                self._obs_emit(
                    self.net.now(), "coin.reveal", self.node_id,
                    wave=wave_num, leader=leader,
                )
            self._apply_commits(self.commit.leader_known(wave_num))
            self._schedule_advance()

    def _predefine_leaders(self, through_round: int) -> None:
        """Predefined leaders are "revealed" as soon as their wave can have
        started: fill the table for every wave whose first round is at or
        before ``through_round``.  Nothing can commit on the news alone —
        such a wave has no supporters yet — so the rule is not told."""
        wave_num = self._predefined_waves + 1
        while self.wave.first_round(wave_num) <= through_round:
            self.revealed_leaders[wave_num] = self.predefined_leader(wave_num)
            wave_num += 1
        self._predefined_waves = wave_num - 1

    def _recover_from_stall(self) -> None:
        """Stall recovery: if nothing has progressed for a while, some of
        our outbound traffic may have been lost (partition, drops) —
        re-broadcast the latest proposal.  Receivers that have it refresh
        their echoes; receivers that missed it join its broadcast now.

        The clock arms at our first own proposal (never at sim start),
        uses a generous grace period until the first-ever delivery, and
        resets on each re-broadcast so a genuine stall costs one
        re-broadcast per window, not one per sync tick."""
        if self._my_latest_block is None or self._stall_clock is None:
            return
        now = self.net.now()
        threshold = STALL_AFTER if self._delivered_any else STALL_STARTUP_GRACE
        if now - self._stall_clock > threshold:
            self._stall_clock = now
            self._ctr_stall_rebroadcasts.inc()
            if self._obs_emit is not None:
                self._obs_emit(
                    now, "stall.rebroadcast", self.node_id,
                    round=self._my_latest_block.round,
                )
            self._broadcast_block(self._my_latest_block)

    # -------------------------------------------------------------- committing

    def leader_block_of(self, wave_num: int) -> Optional[Block]:
        """The (unique, in strict mode) delivered block in a wave's leader
        slot, or None."""
        candidates = self.commit.candidates(wave_num)
        return candidates[0] if candidates else None

    def _apply_commits(self, commits: Iterable[Commit]) -> None:
        """Append what the commit rule decided, one leader at a time (the
        rule computes each scope against the ledger as the previous leader
        left it).  A direct commit closes its cascade: prune after it."""
        for commit in commits:
            self._commit_leader(commit)
            if commit.kind == "direct":
                self._maybe_prune()

    def _commit_leader(self, commit: Commit) -> None:
        leader, wave_num, kind, blocks = commit
        k = self.ledger.begin_leader()
        now = self.net.now()
        emit = self._obs_emit
        for block in blocks:
            record = self.ledger.append(block, now, leader.digest, k)
            if emit is not None:
                emit(
                    now, "block.commit", self.node_id,
                    round=block.round, author=block.author,
                    digest=short_hex(block.digest), wave=wave_num,
                )
            if self.on_commit is not None:
                self.on_commit(record)
        self._ctr_commit_kind[kind].inc()
        self._ctr_committed.inc(len(blocks))
        if emit is not None:
            emit(
                now, "wave.commit", self.node_id,
                wave=wave_num, kind=kind, leader=leader.author, blocks=len(blocks),
            )

    def _maybe_prune(self) -> None:
        """Physically drop history far below the settled frontier.

        The horizon ``H = first_round(s) - gc_depth - WAVE_LENGTH`` (``s``
        the settled wave) lies below every commit scope still to come: the
        rule never commits a wave ``<= s`` again (direct commits skip them,
        and a cascade walks down only to the last committed wave, which is
        at least ``s``), so every later leader has round ``>= first_round(s)
        + stride`` and its walk's floor ``leader.round - gc_depth`` is above
        ``H``.  That is what lets the ledger shed committed digests below
        ``H`` (:meth:`~repro.dag.ledger.Ledger.shed_below`)."""
        gc_depth = self.protocol.gc_depth
        settled = self.commit.last_settled_wave
        if gc_depth is None or settled < 1:
            return
        horizon = (
            self.wave.first_round(settled)
            - gc_depth
            - self.WAVE_LENGTH
        )
        if horizon > 1:
            self.store.prune_below(horizon)
            # Retrieval state below the horizon is equally dead: a pending
            # block whose round is being pruned can never be accepted.
            self.retrieval.gc_below(horizon)
            self._gc_state(horizon)

    def _gc_state(self, horizon: int) -> None:
        """Prune per-node bookkeeping below the GC horizon.

        Subclass hook (extensions must call ``super()``): runs right after
        the store/retrieval prune, so anything keyed by a round below
        ``horizon`` — or by a digest no longer in the store — refers to
        history that can never be validated, voted on, or committed again.
        Without this, round-/digest-keyed maps grow without bound on long
        runs even with ``gc_depth`` set.
        """
        # Broadcast-layer state (instance trackers, vote bookkeeping) and
        # the body dedup/reject maps: everything below the horizon belongs
        # to settled waves and can never deliver or vote again.  A
        # straggler message for a pruned digest re-enters through the
        # normal paths (re-verify, empty instance stub) and is re-pruned
        # on the next sweep.
        for manager in (self.pbc, self.cbc, self.rbc):
            if manager is not None:
                manager.gc_below(horizon)
        for mapping in (self._known, self._invalid):
            for digest in [d for d, r in mapping.items() if r < horizon]:
                del mapping[digest]
        # Wave-keyed commit bookkeeping: waves strictly below the settled
        # frontier are decided forever.  The frontier wave itself must
        # survive — the cascade anchors on it.
        self.commit.forget_settled()
        # Committed digests below the horizon: no later scope walk asks.
        self.ledger.shed_below(horizon)

    # -------------------------------------------------------------- metrics

    @property
    def committed_blocks(self) -> int:
        return len(self.ledger)

    @property
    def current_round(self) -> int:
        return self.next_round - 1
