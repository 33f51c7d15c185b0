"""LightDAG2 (§V): PBC-CBC-PBC waves with equivocation containment.

A LightDAG2 wave is three rounds — Plain Broadcast, Consistent Broadcast,
Plain Broadcast (paper rounds ⟨w,0..2⟩; we use 1-based ``e ∈ {1,2,3}``).
PBC permits Byzantine equivocation, so a slot may hold several blocks
(``B^j`` with repropose/arrival index ``j``); the rules of §V contain the
damage:

* **Rule 1** — a block references ≥ n−f previous-round blocks, at most one
  per slot (enforced by :func:`~repro.dag.validation.validate_block_structure`).
* **Rule 2** — a replica never *votes* (CBC-echoes) for two blocks that
  directly reference contradictory previous-round blocks; instead it sends
  the conflicting block to the proposer, who assembles a Byzantine proof,
  blacklists the equivocator, and **reproposes** without its blocks.
* **Rule 3** — voting is monotone in waves; a verified Byzantine proof
  blacklists its culprit everywhere: never reference the culprit again,
  embed the proof in the next own block, refuse votes for blocks that
  still reference the culprit (forwarding the proof to their proposers).
* **Rule 4** — first-round blocks name the unique block of the newest
  non-empty leader slot, so they wait for the previous wave's coin.  The
  wait is kept; the slot annotations themselves are not carried (see
  below).

Commit rule: the wave's leader *slot* (round ⟨w,1⟩) is named by the GPC
revealed from shares riding in round-⟨w,3⟩ blocks; a candidate block in
it commits directly when **n − f** distinct-author round-⟨w,3⟩ blocks
reference it (two parent hops).  Best latency = 1 (PBC) + 2 (CBC) + 1
(PBC) = 4 steps, Table I.

Implementation note on Rule 4 and safety (recorded in DESIGN.md): block
references are hash-concrete, so a candidate's ancestor closure is already
replica-independent; our commit path orders the *digest closure*
deterministically — if both blocks of an equivocated slot are referenced,
both commit, adjacently, in (round, author, j) order — which preserves
Theorem 6's ledger-prefix safety without Rule 4 annotations to
disambiguate.  Nothing would read them, so blocks do not carry them: not in
the digest, the codec or the size model.  Rule 2 still makes contradictory
references un-deliverable in CBC rounds, which is what bounds how much
equivocated data can ever reach the ledger.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..broadcast.messages import ByzantineProofMsg, ContradictionNotice
from ..crypto.hashing import Digest
from ..dag.block import Block, TxBatch
from .base import BaseDagNode
from .proofs import MAX_PROOF_DEPTH, ByzantineProof


class LightDag2Node(BaseDagNode):
    """One LightDAG2 replica."""

    WAVE_LENGTH = 3
    WAVE_OVERLAP = False
    BROADCAST = ("pbc", "cbc", "pbc")
    SUPPORT_DEPTH = 2  # leader in ⟨w,1⟩, support from ⟨w,3⟩
    SUPPORT_THRESHOLD = "n-f"  # §III-D
    STRICT_STORE = False

    HANDLERS = {
        **BaseDagNode.HANDLERS,
        ContradictionNotice: "_on_contradiction",
        ByzantineProofMsg: "_on_proof_msg",
    }

    #: wave position of the CBC round in ``BROADCAST``
    CBC_E = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: replicas proven Byzantine (Rule 3 exclusion set)
        self.blacklist: Set[int] = set()
        #: verified proofs by culprit
        self.proofs: Dict[int, ByzantineProof] = {}
        #: culprits whose proof still has to ride in one of our blocks
        self._proofs_to_embed: List[int] = []
        #: Rule 2 bookkeeping — PBC slot -> first block digest we endorsed
        self.voted_refs: Dict[Tuple[int, int], Digest] = {}
        #: blocks we proposed, for ContradictionNotice lookups
        self.my_blocks: Dict[Digest, Block] = {}
        #: Rule 3 first bullet — newest wave we CBC-proposed/voted in
        self._max_cbc_wave = 0
        #: CBC blocks awaiting reproposal once enough clean parents exist
        self._pending_repropose: Dict[Digest, Block] = {}
        #: originals we already reproposed, with the blacklist snapshot the
        #: reproposal was computed against — several voters send notices
        #: about the same conflict concurrently, and D′ must go out once,
        #: not once per notice.
        self._reproposed_for: Dict[Digest, frozenset] = {}
        #: next repropose index per round
        self._repropose_counter: Dict[int, int] = {}
        #: counters for the experiment reports
        self.reproposals = 0
        self.contradictions_sent = 0

    # ----------------------------------------------------------- round shape

    @staticmethod
    def round_kind(round_: int) -> int:
        """Position ``e ∈ {1,2,3}`` of a round within its wave."""
        return (round_ - 1) % 3 + 1

    @staticmethod
    def wave_of(round_: int) -> int:
        return (round_ - 1) // 3 + 1

    # ------------------------------------------------------------- messages

    def _inspect_body(self, block: Block) -> None:
        """Harvest embedded Byzantine proofs (Rule 3: proofs propagate by
        riding in blocks, Lemma 8's recognition mechanism)."""
        for proof in block.byz_proofs:
            if isinstance(proof, ByzantineProof):
                self._register_proof(proof)

    # --------------------------------------------------------------- voting

    def _participate(self, block: Block, src: int, parents: List[Block]) -> None:
        """Rules 2 and 3 — decide whether to echo a CBC block."""
        if self.round_kind(block.round) != self.CBC_E:
            return  # PBC rounds deliver without votes
        wave = self.wave_of(block.round)
        if wave < self._max_cbc_wave:
            return  # Rule 3, first bullet: never vote in older waves

        blacklist = self.blacklist
        voted_refs = self.voted_refs
        contradicted: Optional[Digest] = None
        unbound = []  # (slot, digest) of parents nothing is endorsed for yet
        for parent in parents:
            # Rule 3, third bullet: refuse blocks referencing proven
            # culprits — wherever the culprit sits among the parents, this
            # comes before any Rule 2 objection.
            if parent.author in blacklist and not parent.is_genesis:
                proof = self.proofs[parent.author]
                self.net.send(
                    block.author,
                    ByzantineProofMsg(
                        culprit=proof.culprit,
                        block_a=proof.block_a,
                        block_b=proof.block_b,
                        objected=block.digest,
                    ),
                )
                return
            endorsed = voted_refs.get(parent.slot)
            if endorsed is None:
                if not parent.is_genesis:
                    unbound.append((parent.slot, parent.digest))
            elif endorsed != parent.digest and contradicted is None:
                contradicted = endorsed

        if contradicted is not None:
            # Rule 2: refuse contradictory references, notify the proposer.
            self.contradictions_sent += 1
            self.net.send(
                block.author,
                ContradictionNotice(
                    objected=block.digest,
                    conflicting_block=self.store.get(contradicted),
                ),
            )
            return

        # All clear: vote, and bind our endorsements (Rule 2 bookkeeping).
        self._max_cbc_wave = max(self._max_cbc_wave, wave)
        voted_refs.update(unbound)
        self.cbc.vote(block)

    # ------------------------------------------------- proofs & reproposals

    def _register_proof(self, proof: ByzantineProof) -> bool:
        """Verify and adopt a Byzantine proof (idempotent per culprit)."""
        if proof.culprit in self.blacklist:
            return True
        if not proof.verify(self.backend):
            return False
        self.proofs[proof.culprit] = proof
        self.blacklist.add(proof.culprit)
        # Deeper than peers decode: convicts, travels as a notice, rides in no block.
        if proof.depth <= MAX_PROOF_DEPTH:
            self._proofs_to_embed.append(proof.culprit)
        return True

    def _on_contradiction(self, src: int, notice: ContradictionNotice) -> None:
        """Rule 2, proposer side: assemble the proof and repropose."""
        original = self.my_blocks.get(notice.objected)
        if original is None:
            return
        c0 = notice.conflicting_block
        if not self.backend.verify(c0.author, c0.digest, c0.signature):
            return
        c1: Optional[Block] = None
        for parent_digest in original.parents:
            parent = self.store.get_optional(parent_digest)
            if (
                parent is not None
                and parent.slot == c0.slot
                and parent.digest != c0.digest
            ):
                c1 = parent
                break
        if c1 is None:
            return  # bogus or stale notice
        proof = ByzantineProof(culprit=c0.author, block_a=c0, block_b=c1)
        if not self._register_proof(proof):
            return
        self._repropose(original)

    def _on_proof_msg(self, src: int, msg: ByzantineProofMsg) -> None:
        """Rule 3, proposer side: a voter refused our block because it
        references a proven culprit — adopt the proof and repropose."""
        proof = ByzantineProof(
            culprit=msg.culprit, block_a=msg.block_a, block_b=msg.block_b
        )
        if not self._register_proof(proof):
            return
        original = self.my_blocks.get(msg.objected)
        if original is not None and self.round_kind(original.round) == self.CBC_E:
            self._repropose(original)

    def _repropose(self, original: Block) -> None:
        """Rule 2: propose D′ in the same slot, clean of culprit references,
        carrying the proof(s).  At most one reproposal per (original,
        blacklist state): a burst of notices about one conflict yields one
        D′; only a *newly* exposed culprit justifies another."""
        if original.author != self.node_id:
            return
        snapshot = frozenset(self.blacklist)
        if self._reproposed_for.get(original.digest) == snapshot:
            return
        round_ = original.round
        parents = self._choose_parents(round_)
        if len(parents) < self._quorum:
            # Not enough clean parents yet; retry as deliveries arrive.
            self._pending_repropose[original.digest] = original
            return
        self._pending_repropose.pop(original.digest, None)
        self._reproposed_for[original.digest] = snapshot
        self._repropose_counter[round_] = self._repropose_counter.get(round_, 0) + 1
        j = self._repropose_counter[round_]
        block = self._make_block(
            round_,
            parents,
            original.payload,
            repropose_index=j,
            byz_proofs=self._drain_proof_embeds(),
        )
        self.my_blocks[block.digest] = block
        self.reproposals += 1
        if self._obs_emit is not None:
            self._obs_emit(
                self.net.now(), "trace.repropose", self.node_id,
                round=round_, digest=block.digest.hex()[:8],
                original=original.digest.hex()[:8], index=j,
            )
        self.cbc.broadcast(block)

    def _drain_proof_embeds(self) -> Tuple[ByzantineProof, ...]:
        proofs = tuple(self.proofs[c] for c in self._proofs_to_embed)
        self._proofs_to_embed.clear()
        return proofs

    def _after_deliver(self, block: Block) -> None:
        if self._pending_repropose and block.round >= 1:
            for original in list(self._pending_repropose.values()):
                if original.round == block.round + 1:
                    self._repropose(original)

    def _gc_state(self, horizon: int) -> None:
        """Prune the Rule 2/3 bookkeeping alongside the store.

        Everything below the horizon is un-revotable: a CBC block whose
        parents were pruned can never finish validation (it parks in
        retrieval, which GCs it at the same horizon), so endorsements,
        proposal copies, and repropose state about those rounds are dead.
        ``voted_refs`` keys are *parent* slots — one round below the blocks
        endorsing them — hence the ``horizon - 1`` cutoff: any parent still
        in the store keeps its endorsement.
        """
        super()._gc_state(horizon)
        for slot in [s for s in self.voted_refs if s[0] < horizon - 1]:
            del self.voted_refs[slot]
        doomed = [d for d, b in self.my_blocks.items() if b.round < horizon]
        for digest in doomed:
            del self.my_blocks[digest]
        if self._reproposed_for:
            self._reproposed_for = {
                d: snap
                for d, snap in self._reproposed_for.items()
                if d in self.my_blocks
            }
        for digest in [
            d for d, b in self._pending_repropose.items() if b.round < horizon
        ]:
            del self._pending_repropose[digest]
        for round_ in [r for r in self._repropose_counter if r < horizon]:
            del self._repropose_counter[round_]

    # ------------------------------------------------------------ proposing

    def _parent_allowed(self, block: Block) -> bool:
        return block.is_genesis or block.author not in self.blacklist

    def _can_propose_extra(self, round_: int) -> bool:
        """First-round blocks wait for the previous wave's coin: Rule 4
        has them name the newest leader slot's block, so this is the
        timing the rule imposes even though blocks carry no annotation.

        The coin is asked, not ``revealed_leaders``: GC drops settled
        waves from that table, and a replica whose commit frontier passed
        the wave before it could propose (later rounds came by retrieval)
        would otherwise wait for it forever."""
        if self.round_kind(round_) == 1:
            wave = self.wave_of(round_)
            if wave > 1 and self.coin.leader_of(wave - 1) is None:
                return False
        return True

    def _build_block(self, round_: int, parents: List[Digest], payload: TxBatch) -> Block:
        block = self._make_block(
            round_, parents, payload, byz_proofs=self._drain_proof_embeds()
        )
        self.my_blocks[block.digest] = block
        if self.round_kind(round_) == self.CBC_E:
            self._max_cbc_wave = max(self._max_cbc_wave, self.wave_of(round_))
        return block
