"""Behavioural (Byzantine) adversaries: equivocation against LightDAG2.

§VI-A: "Regarding LightDAG2, the adversary schedules one Byzantine replica
each time, to broadcast contradictory blocks in the first round of a wave,
enticing each replica to repropose blocks in the second round.  This
results in more than n blocks being generated in the second round."

:class:`EquivocatingLightDag2Node` is a LightDAG2 replica that, in the
first PBC round of each wave from ``start_wave`` on, builds *two* blocks
with identical references but different content and sends one to each half
of the replica set.  Everything else (voting, coin shares, commits) stays
honest — the paper's adversary only attacks efficiency, and an equivocator
that also stopped participating would simply be a crash fault.

The attack is self-limiting by design (Theorem 10): the first CBC round
after the equivocation produces contradiction notices → a Byzantine proof
→ every honest replica blacklists the equivocator within about a wave
(Lemma 8).  The node watches for its own exposure and stops equivocating
once caught (continuing would be wasted effort — its blocks are no longer
referenced).  Staggering ``start_wave`` across the ``t`` corrupted
replicas reproduces the paper's one-attack-per-wave schedule.
"""

from __future__ import annotations

from ..core.lightdag2 import LightDag2Node
from ..core.proofs import ByzantineProof
from ..dag.block import TxBatch


class EquivocatingLightDag2Node(LightDag2Node):
    """A LightDAG2 replica that equivocates in first-round PBC broadcasts."""

    def __init__(self, *args, start_wave: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.start_wave = start_wave
        self.equivocations = 0
        self._caught = False

    # -- exposure detection ------------------------------------------------------

    def _register_proof(self, proof: ByzantineProof) -> bool:
        adopted = super()._register_proof(proof)
        if adopted and proof.culprit == self.node_id:
            self._caught = True
        return adopted

    @property
    def caught(self) -> bool:
        return self._caught

    # -- the attack ----------------------------------------------------------------

    def _should_equivocate(self, round_: int) -> bool:
        return (
            not self._caught
            and self.round_kind(round_) == 1
            and self.wave_of(round_) >= self.start_wave
        )

    def _propose(self, round_: int) -> None:
        if not self._should_equivocate(round_):
            super()._propose(round_)
            return
        self.equivocations += 1
        parents = self._choose_parents(round_)
        payload = self.payload_source(self.net.now())
        block_a = self._build_block(round_, parents, payload)
        # The twin differs only in payload identity — enough to change the
        # digest, which is all equivocation is.
        twin_payload = TxBatch(
            count=payload.count,
            tx_size=payload.tx_size,
            submit_time_sum=payload.submit_time_sum + 1e-9,
            sample=payload.sample,
        )
        block_b = self._make_block(round_, parents, twin_payload)
        self.my_blocks[block_b.digest] = block_b
        half = self.net.n // 2
        assignments = {
            dst: (block_a if dst < half else block_b) for dst in range(self.net.n)
        }
        self.pbc.equivocate(assignments)

