"""Wire messages exchanged by the broadcast layer and the protocols.

Each message is a frozen dataclass implementing
:meth:`~repro.net.interfaces.Message.wire_size`.  Authenticity of the
*sender* comes from the channel (the runtimes hand handlers a trusted
``src``, like authenticated TCP in the Golang prototype); *transferable*
authenticity — anything forwarded or used as a proof, i.e. blocks — is
covered by the author signature carried inside :class:`repro.dag.block.Block`.
Echo/ready messages still pay signature bytes in the size model to match
what a real deployment would send.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..crypto.hashing import Digest
from ..dag.block import Block
from ..net import sizes
from ..net.interfaces import Message, SizedMessage

#: Precomputed constant sizes — echo-class messages all cost the same
#: bytes, and the simulator asks per delivery (Θ(n²) per round).
_VOTE_SIZE = (
    sizes.HEADER_OVERHEAD
    + 2 * sizes.INT_SIZE
    + sizes.DIGEST_SIZE
    + sizes.SIGNATURE_SIZE
)


@dataclass(frozen=True)
class BlockVal(SizedMessage):
    """First step of every broadcast: the proposer ships the block body.

    Serves as PBC's only message, CBC's VAL step, and RBC's initial send.
    """

    block: Block

    def _compute_wire_size(self) -> int:
        return sizes.HEADER_OVERHEAD + self.block.wire_size()


@dataclass(frozen=True)
class BlockEcho(Message):
    """CBC/RBC ECHO: endorse one block digest for a slot instance."""

    round: int
    author: int
    digest: Digest

    def wire_size(self) -> int:
        return _VOTE_SIZE


@dataclass(frozen=True)
class BlockReady(Message):
    """RBC READY: third-step amplification vote (Bracha)."""

    round: int
    author: int
    digest: Digest

    def wire_size(self) -> int:
        return _VOTE_SIZE


#: Hard bound on digests a responder will honor per RetrievalRequest.
#: Requests beyond it are clamped (and counted) at the responder, and the
#: wire codec refuses to decode messages claiming more — a Byzantine peer
#: cannot make an honest replica enumerate an unbounded digest list.
MAX_REQUEST_DIGESTS = 128


@dataclass(frozen=True)
class RetrievalRequest(Message):
    """§IV-A block retrieval: ask a peer for missing block bodies.

    A first ask carries one incomplete block's missing parents; a
    recovery-tick re-ask batches every stale digest, chunked at
    :data:`MAX_REQUEST_DIGESTS`.  Responders clamp anything above that.
    """

    digests: Tuple[Digest, ...]

    def wire_size(self) -> int:
        # Cheap closed form; not worth a memo slot.
        return sizes.HEADER_OVERHEAD + len(self.digests) * sizes.DIGEST_SIZE


@dataclass(frozen=True)
class RetrievalResponse(SizedMessage):
    """§IV-A block retrieval: the peer ships requested blocks it has.

    Responders chunk large answers — no single response carries more than
    ``RetrievalManager.max_response_blocks`` bodies (16), bounding the burst
    a response injects into the bandwidth model and what a Byzantine
    "helper" can shove at a requester in one message.
    Requesters only accept bodies whose *recomputed* digest matches an
    open request (digest pinning; see ``RetrievalManager.on_response``).
    """

    blocks: Tuple[Block, ...]

    def _compute_wire_size(self) -> int:
        return sizes.HEADER_OVERHEAD + sum(b.wire_size() for b in self.blocks)


@dataclass(frozen=True)
class ContradictionNotice(SizedMessage):
    """LightDAG2 Rule 2: ``p_x`` tells proposer ``p_y`` that ``p_y``'s CBC
    block references a block contradicting one ``p_x`` already voted for.

    Carries the full conflicting block ``C⁰`` so ``p_y`` can assemble the
    Byzantine proof (``C⁰`` plus its own referenced ``C¹``).
    """

    #: Digest of the CBC block being objected to.
    objected: Digest
    #: The previously-voted-for conflicting block (C⁰ in Fig. 9).
    conflicting_block: Block

    def _compute_wire_size(self) -> int:
        return (
            sizes.HEADER_OVERHEAD
            + sizes.DIGEST_SIZE
            + self.conflicting_block.wire_size()
        )


@dataclass(frozen=True)
class ByzantineProofMsg(SizedMessage):
    """LightDAG2 Rule 3: forward a Byzantine proof to a CBC proposer whose
    block still references the culprit's blocks."""

    culprit: int
    block_a: Block
    block_b: Block
    #: Digest of the CBC block whose vote is being withheld (for context).
    objected: Digest

    def _compute_wire_size(self) -> int:
        return (
            sizes.HEADER_OVERHEAD
            + sizes.INT_SIZE
            + sizes.DIGEST_SIZE
            + self.block_a.wire_size()
            + self.block_b.wire_size()
        )
