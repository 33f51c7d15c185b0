"""Retrieval-withholding adversary: attack the §IV-A recovery path.

The paper's §V analysis leans on block retrieval recovering quickly when
the *first-choice* responder (the replica that sent the incomplete block)
is faulty.  :class:`WithholdingResponder` is that faulty responder made
concrete: a replica that participates honestly in every broadcast and
vote, but sabotages retrieval —

* ``ignore`` mode: silently drops every :class:`RetrievalRequest` it
  receives (the paper's "faulty responder" read literally), or
* ``garbage`` mode: answers each request with fabricated bodies — junk
  blocks *labeled with the requested digests* and signed by the attacker —
  which exercises the requester's digest-pinning check (a body is only
  accepted if its content re-hashes to the requested digest).

Because the withholder is otherwise live, honest replicas keep choosing
it as a first-choice responder; recovery then depends entirely on the
requester's re-asks on its recovery tick, which rotate over every other
replica and so reach an honest holder within ``n - 1`` ticks — what
:class:`~repro.core.retrieval.RetrievalManager` must guarantee (and what
``tests/core/test_retrieval_adversarial.py`` asserts end to end).

It is a *behavioural* adversary: like the equivocator, it is installed as
an alternative node class for the corrupted replica indices (the harness
builds it over whatever protocol class the run uses via
:func:`withholding_node_class`).
"""

from __future__ import annotations

from typing import Type

from ..broadcast.messages import RetrievalRequest, RetrievalResponse
from ..core.base import BaseDagNode
from ..dag.block import EMPTY_BATCH, Block
from ..net.interfaces import Message


class WithholdingResponder:
    """Mixin over a :class:`BaseDagNode` subclass: sabotage retrieval.

    Class attribute ``WITHHOLD_MODE`` selects the behaviour:
    ``"ignore"`` (default) or ``"garbage"``.
    """

    WITHHOLD_MODE = "ignore"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: retrieval requests received and sabotaged
        self.withheld_requests = 0

    def on_message(self, src: int, msg: Message) -> None:
        if isinstance(msg, RetrievalRequest):
            self.withheld_requests += 1
            if self.WITHHOLD_MODE == "garbage":
                self.net.send(src, self._garbage_response(msg))
            return  # ignore mode: never answer
        super().on_message(src, msg)

    def _garbage_response(self, request: RetrievalRequest) -> RetrievalResponse:
        """Junk bodies labeled with the requested digests and signed by us.

        The label matches an open request at the victim, and the signature
        verifies (it is our own, over the claimed digest) — only the
        requester's content-rehash (digest pinning) can reject these.
        """
        junk = tuple(
            Block(
                round=1,
                author=self.node_id,
                parents=(),
                payload=EMPTY_BATCH,
                digest=digest,
                signature=self.backend.sign(digest),
            )
            for digest in request.digests
        )
        return RetrievalResponse(blocks=junk)


def withholding_node_class(
    base_cls: Type[BaseDagNode], mode: str = "ignore"
) -> Type[BaseDagNode]:
    """A ``base_cls`` variant whose retrieval responder is Byzantine."""
    if mode not in ("ignore", "garbage"):
        raise ValueError(f"unknown withholding mode {mode!r}")
    return type(
        f"Withholding{base_cls.__name__}",
        (WithholdingResponder, base_cls),
        {"WITHHOLD_MODE": mode},
    )
