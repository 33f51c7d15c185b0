"""The shared DAG-consensus engine.

Every protocol in this repository — LightDAG1, LightDAG2, DAG-Rider, Tusk,
Bullshark — is an instance of the same skeleton (§II-B):

1. advance through rounds, proposing one block per round once ``n - f``
   distinct slots of the previous round have been delivered;
2. broadcast each block with some broadcast primitive (the paper's whole
   point is *which* primitive);
3. learn each wave's leader slot — from Global-Perfect-Coin shares carried
   in the wave's last round, or from a predefined schedule;
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

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set

from ..broadcast.cbc import CbcManager
from ..broadcast.messages import (
    BlockEcho,
    BlockReady,
    BlockVal,
    CoinShareMsg,
    CoinShareRequest,
    RetrievalRequest,
    RetrievalResponse,
)
from ..broadcast.pbc import PbcManager
from ..broadcast.rbc import RbcManager
from ..config import ProtocolConfig, SystemConfig, resolve_threshold
from ..crypto.backend import CryptoBackend, make_backend
from ..crypto.coin import GlobalPerfectCoin, make_coin
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
from .retrieval import RETRY_TAG, RetrievalManager

#: Signature of the payload hook: ``payload_source(now) -> TxBatch``.
PayloadSource = Callable[[float], TxBatch]
#: Signature of the commit hook: ``on_commit(record) -> None``.
CommitCallback = Callable[[CommitRecord], None]

#: Timer tag for the deferred-proposal tick (see ``_schedule_advance``).
ADVANCE_TAG = "__advance__"

#: Timer tag for the periodic recovery check (coin shares, stalls).
COIN_SYNC_TAG = "__coin_sync__"

#: Period of the recovery check (seconds).
COIN_SYNC_PERIOD = 0.5

#: Silence (no delivery/proposal progress) before a stall re-broadcast,
#: once at least one block has ever been delivered.
STALL_AFTER = 2 * COIN_SYNC_PERIOD

#: More patient threshold before the *first* delivery: a slow first wave
#: (high-latency models, large-n CPU queues) is startup, not a stall, and
#: must not trigger re-broadcast storms at every sync tick.
STALL_STARTUP_GRACE = 8 * COIN_SYNC_PERIOD


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
        ``"coin"`` (GPC shares ride with each wave's last round) or
        ``"predefined"`` (:meth:`predefined_leader`; no shares sent or
        recovered).
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
        CoinShareMsg: "_on_coin_share",
        CoinShareRequest: "_on_coin_share_request",
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
        #: pre-bound journal emit for hot paths (None when disabled), so
        #: per-delivery sites pay one attribute read + branch, not three.
        self._obs_emit = self.obs.journal.emit if self.obs.enabled else None
        #: causal tracer (None unless tracing was requested) — same idiom:
        #: span sites pay one attribute read + branch when tracing is off.
        self._trace = self.obs.trace if self.obs.trace.enabled else None
        metrics = self.obs.metrics
        self._ctr_rounds = metrics.counter("core.rounds_advanced")
        self._ctr_delivered = metrics.counter("core.blocks_delivered")
        self._ctr_committed = metrics.counter("core.blocks_committed")
        self._ctr_coin_reveals = metrics.counter("core.coin_reveals")
        self._ctr_coin_requests = metrics.counter("core.coin_share_requests")
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
        if self._trace is not None:
            self.ledger.bind_trace(self._trace, net.node_id)
        self.retrieval = RetrievalManager(
            net,
            self.store,
            seed=system.seed,
            enabled=protocol.retrieval_enabled,
            obs=self.obs,
            fanout_width=system.validity_quorum,
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
        self._sent_share_waves: Set[int] = set()
        #: Highest wave whose coin share we legitimately broadcast; rounds
        #: never skip, so every wave up to here has been sent.  Lets the
        #: share-request responder keep answering for waves whose
        #: ``_sent_share_waves`` entry was garbage-collected.
        self._max_share_wave = 0
        self._quorum = system.quorum
        #: per-wave timestamp of the last coin-share recovery request
        self._coin_requested: Dict[int, float] = {}

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
        """Assemble the outgoing block (LightDAG2 adds proofs/determinations)."""
        return make_block(round_, self.node_id, parents, payload, signer=self.backend)

    # -------------------------------------------------------------- lifecycle

    def on_start(self) -> None:
        self._coin_requested.clear()
        self._stall_clock = None  # disarmed until our first own proposal
        self.net.set_timer(COIN_SYNC_PERIOD, COIN_SYNC_TAG)
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

    def _on_coin_share_request(self, src: int, msg: CoinShareRequest) -> None:
        # Shares are deterministic per (replica, wave): recompute and
        # answer.  Only waves we have legitimately reached are served —
        # revealing a future wave's share early would hand the
        # adversary coin foreknowledge.  (Past waves stay servable even
        # after their _sent_share_waves entry is pruned — a straggler
        # may still need them.)
        if msg.wave <= self._max_share_wave:
            self.net.send(src, CoinShareMsg(self.coin.make_share(msg.wave)))

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
        if tag == RETRY_TAG:
            self.retrieval.on_retry_timer(data, self._holders_of(data))
        elif tag == ADVANCE_TAG:
            self._advance_scheduled = False
            self._try_advance()
        elif tag == COIN_SYNC_TAG:
            if self.LEADER_SOURCE == "coin":
                self._recover_coin_shares()
            self._recover_from_stall()
            self.net.set_timer(COIN_SYNC_PERIOD, COIN_SYNC_TAG)

    def _schedule_advance(self) -> None:
        """Defer proposing to a zero-delay timer so every delivery arriving
        at the *same simulated instant* is incorporated as a parent before
        the proposal goes out (otherwise the quorum-completing delivery
        systematically orphans its same-timestamp siblings)."""
        if not self._advance_scheduled:
            self._advance_scheduled = True
            self.net.set_timer(0.0, ADVANCE_TAG)

    def _holders_of(self, digest: Digest) -> FrozenSet[int]:
        """Replicas believed to hold a block body: the echoers of its
        digest so far (a snapshot, see ``InstanceTracker.echoers_of``)."""
        return (self.cbc or self.rbc).echoers_of(digest)

    # -------------------------------------------------------------- accepting

    def _on_block_body(self, src: int, block: Block, retrieved: bool = False) -> None:
        """Entry point for every block body (VAL or digest-pinned retrieval)."""
        if block.digest in self._invalid:
            return
        if block.digest in self._known:
            manager = self._manager_for_round(block.round)
            if not manager.is_delivered(block.digest):
                if retrieved:
                    # A body we saw as a VAL but could not deliver (echo
                    # quorum missing at us) arriving again as a retrieval
                    # response is digest-pinned: deliverable directly (§IV-A).
                    self._try_accept(block, src, retrieved=True)
                else:
                    # Duplicate VAL = a peer's stall-recovery re-broadcast;
                    # refresh our endorsement so lost echoes are replaced,
                    # and treat it as fresh evidence for any abandoned
                    # parent retrievals of this still-parked block.
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
        self._known[block.digest] = block.round
        if self._trace is not None:
            # Carry the parent digests so the analysis layer can walk a
            # committed block's causal ancestry from the journal alone.
            self._trace.emit(
                self.net.now(), "trace.body", self.node_id,
                round=block.round, author=block.author,
                digest=short_hex(block.digest), src=src,
                retrieved=retrieved,
                parents=[short_hex(p) for p in block.parents],
            )
        self._inspect_body(block)
        self._manager_for_round(block.round).on_val(src, block)
        self._try_accept(block, src, retrieved=retrieved)

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
            if self._trace is not None:
                self._trace.emit(
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
        parents = self._choose_parents(round_)
        payload = self.payload_source(self.net.now())
        block = self._build_block(round_, parents, payload)
        self._my_latest_block = block
        # Proposing is forward progress too: (re-)arm the stall clock so
        # detection counts from our first own proposal, never from t=0.
        self._stall_clock = self.net.now()
        self._ctr_rounds.inc()
        if self._obs_emit is not None:
            self._obs_emit(
                self.net.now(), "block.propose", self.node_id,
                round=round_, author=self.node_id,
                digest=short_hex(block.digest), txs=payload.count,
            )
        self._broadcast_block(block)
        self._broadcast_coin_shares(round_)

    def _broadcast_coin_shares(self, round_: int) -> None:
        """Ship the GPC share for every wave whose *last* round this is."""
        if self.LEADER_SOURCE != "coin":
            return
        for wave_num, e in self.wave.waves_containing(round_):
            if e == self.WAVE_LENGTH and wave_num not in self._sent_share_waves:
                self._sent_share_waves.add(wave_num)
                self._max_share_wave = max(self._max_share_wave, wave_num)
                self.net.broadcast(CoinShareMsg(self.coin.make_share(wave_num)))

    # -------------------------------------------------------------- the coin

    def _on_coin_share(self, src: int, msg: CoinShareMsg) -> None:
        if msg.wave in self.revealed_leaders:
            return
        leader = self.coin.add_share(msg.share)
        if leader is not None:
            self.revealed_leaders[msg.wave] = leader
            self._ctr_coin_reveals.inc()
            if self._obs_emit is not None:
                self._obs_emit(
                    self.net.now(), "coin.reveal", self.node_id,
                    wave=msg.wave, leader=leader,
                )
            self._apply_commits(self.commit.leader_known(msg.wave))
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

    def _recover_coin_shares(self) -> None:
        """Coin-share recovery: if blocks prove a wave completed at other
        replicas but we never revealed its coin (missed shares — partition,
        crash window, dropped messages), ask peers to resend theirs.

        Without this, a straggler's commit cascade defers forever on the
        missing reveal (the paper avoids the problem by embedding shares in
        blocks, which retrieval then recovers — see DESIGN.md §3)."""
        horizon = self.store.highest_round()
        now = self.net.now()
        wave_num = self.commit.last_settled_wave + 1
        requested = 0
        while self.wave.last_round(wave_num) <= horizon and requested < 8:
            if wave_num not in self.revealed_leaders:
                last = self._coin_requested.get(wave_num, -1e9)
                if now - last >= 2 * COIN_SYNC_PERIOD:
                    self._coin_requested[wave_num] = now
                    self._ctr_coin_requests.inc()
                    if self._obs_emit is not None:
                        self._obs_emit(
                            now, "coin.recover_request", self.node_id, wave=wave_num
                        )
                    self.net.broadcast(
                        CoinShareRequest(wave_num), include_self=False
                    )
                    requested += 1
            wave_num += 1

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
        journal = self.obs.journal if self.obs.enabled else None
        for block in blocks:
            record = self.ledger.append(block, now, leader.digest, k)
            if journal is not None:
                journal.emit(
                    now, "block.commit", self.node_id,
                    round=block.round, author=block.author,
                    digest=short_hex(block.digest), wave=wave_num,
                )
            if self.on_commit is not None:
                self.on_commit(record)
        self._ctr_commit_kind[kind].inc()
        self._ctr_committed.inc(len(blocks))
        if journal is not None:
            journal.emit(
                now, "wave.commit", self.node_id,
                wave=wave_num, kind=kind, leader=leader.author, blocks=len(blocks),
            )

    def _maybe_prune(self) -> None:
        """Physically drop history far below the settled frontier."""
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
        # Wave-keyed coin/commit bookkeeping: waves strictly below the
        # settled frontier are decided forever.  The frontier wave itself
        # must survive — the cascade anchors on it and the share recovery
        # starts at last_settled_wave + 1.
        self.commit.forget_settled()
        floor_wave = self.commit.last_settled_wave
        for wave_num in [w for w in self._coin_requested if w < floor_wave]:
            del self._coin_requested[wave_num]
        self._sent_share_waves = {
            w for w in self._sent_share_waves if w >= floor_wave
        }

    # -------------------------------------------------------------- metrics

    @property
    def committed_blocks(self) -> int:
        return len(self.ledger)

    @property
    def current_round(self) -> int:
        return self.next_round - 1
