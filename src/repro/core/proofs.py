"""Byzantine proofs: transferable evidence of equivocation (§V).

A Byzantine proof is a pair of distinct blocks signed by the same replica
for the same slot — irrefutable evidence of equivocation under the PKI
assumption.  Proofs are created by Rule 2 (a CBC proposer that received a
:class:`~repro.broadcast.messages.ContradictionNotice`), travel embedded in
reproposed blocks and in :class:`~repro.broadcast.messages.ByzantineProofMsg`
notices, and trigger Rule 3's exclusion at every replica that verifies one
(Lemma 8: all replicas recognize the culprit within roughly one wave).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..crypto.hashing import Digest, hash_fields
from ..dag.block import Block

#: Blocks inside a proof may carry proofs of their own.  The codec refuses a
#: frame that nests deeper, and a replica never embeds a proof that would.
MAX_PROOF_DEPTH = 8


@dataclass(frozen=True)
class ByzantineProof:
    """Evidence that ``culprit`` equivocated: two signed blocks, one slot."""

    culprit: int
    block_a: Block
    block_b: Block

    @cached_property
    def digest(self) -> Digest:
        """Stable identity; contributes to the embedding block's hash."""
        # Order-normalize so (a, b) and (b, a) are the same proof.
        lo, hi = sorted((self.block_a.digest, self.block_b.digest))
        return hash_fields("byzproof", self.culprit, lo, hi)

    @cached_property
    def depth(self) -> int:
        """Proofs nested in this one, itself included."""
        blocks = (self.block_a, self.block_b)
        return 1 + max((p.depth for b in blocks for p in b.byz_proofs), default=0)

    def verify(self, backend) -> bool:
        """Check the proof is genuine.

        Requires: both blocks claim the culprit as author, occupy the same
        slot, differ in content, and carry valid culprit signatures.  A
        replica must never blacklist on an unverified proof — otherwise a
        Byzantine replica could frame honest ones.
        """
        a, b = self.block_a, self.block_b
        if a.author != self.culprit or b.author != self.culprit:
            return False
        if a.slot != b.slot:
            return False
        if a.digest == b.digest:
            return False
        if not backend.verify(self.culprit, a.digest, a.signature):
            return False
        if not backend.verify(self.culprit, b.digest, b.signature):
            return False
        return True


def proof_from_blocks(block_a: Block, block_b: Block) -> ByzantineProof:
    """Build a proof from two conflicting blocks (author taken from them)."""
    return ByzantineProof(culprit=block_a.author, block_a=block_a, block_b=block_b)
