"""``BaseDagNode.on_message`` dispatches on the message class.

The table replaced an ``isinstance`` ladder; that ladder is kept
here, as the oracle, and every message type must end where it sent it.
"""

import pytest

from repro.baselines.bullshark import BullsharkNode
from repro.broadcast.cbc import CbcManager
from repro.broadcast.messages import (
    BlockEcho,
    BlockReady,
    BlockVal,
    ByzantineProofMsg,
    ContradictionNotice,
    RetrievalRequest,
    RetrievalResponse,
)
from repro.broadcast.rbc import RbcManager
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.backend import HmacBackend
from repro.crypto.keys import TrustedDealer
from repro.dag.block import genesis_block, make_block
from repro.net.interfaces import Message

from ..conftest import FakeNet

SYSTEM = SystemConfig(n=4, crypto="hmac", seed=0)
CHAINS = TrustedDealer(SYSTEM).deal()

#: Node methods and collaborator methods a message can end in.
NODE_TERMINALS = (
    "_on_block_body", "_on_contradiction", "_on_proof_msg",
    "_on_other_message",
)


def old_ladder(node, msg):
    """Where the pre-table ``on_message`` (and LightDAG2's old
    ``_on_other_message``) sent ``msg``: a terminal's name, or None when the
    message was dropped."""
    if isinstance(msg, BlockVal):
        return "_on_block_body"
    elif isinstance(msg, BlockEcho):
        manager = node._manager_for_round(msg.round)
        return "on_echo" if manager is not node.pbc else None
    elif isinstance(msg, BlockReady):
        manager = node._manager_for_round(msg.round)
        return "on_ready" if manager is node.rbc else None
    elif isinstance(msg, RetrievalRequest):
        return "on_request"
    elif isinstance(msg, RetrievalResponse):
        return "on_response"
    elif isinstance(node, LightDag2Node) and isinstance(msg, ContradictionNotice):
        return "_on_contradiction"
    elif isinstance(node, LightDag2Node) and isinstance(msg, ByzantineProofMsg):
        return "_on_proof_msg"
    return "_on_other_message"


def spied(cls):
    """A node of a fresh subclass of ``cls`` whose terminals only record."""
    calls = []

    def recorder(name, result=None):
        def record(*args, **kwargs):
            calls.append(name)
            return result
        return record

    spy_cls = type(
        "Spied" + cls.__name__, (cls,),
        {name: recorder(name) for name in NODE_TERMINALS if hasattr(cls, name)},
    )
    node = spy_cls(FakeNet(0, 4), SYSTEM, ProtocolConfig(batch_size=5), CHAINS[0])
    for manager in (node.cbc, node.rbc):
        if manager is not None:
            manager.on_echo = recorder("on_echo")
            manager.on_ready = recorder("on_ready")
    node.retrieval.on_request = recorder("on_request")
    node.retrieval.on_response = recorder("on_response", result=[])
    return node, calls


def sample_messages():
    parents = [genesis_block(a).digest for a in range(4)]
    block = make_block(1, 1, parents, signer=HmacBackend(1, SYSTEM))
    twin = make_block(1, 1, parents, repropose_index=1, signer=HmacBackend(1, SYSTEM))
    votes = [
        cls(round=round_, author=1, digest=block.digest)
        for cls in (BlockEcho, BlockReady)
        for round_ in (1, 2, 3)
    ]
    return [
        BlockVal(block),
        *votes,
        RetrievalRequest(digests=(block.digest,)),
        RetrievalResponse(blocks=(block,)),
        ContradictionNotice(objected=block.digest, conflicting_block=twin),
        ByzantineProofMsg(culprit=1, block_a=block, block_b=twin, objected=block.digest),
    ]


@pytest.mark.parametrize("cls", [LightDag2Node, LightDag1Node, BullsharkNode])
def test_every_message_ends_where_the_ladder_sent_it(cls):
    for msg in sample_messages():
        node, calls = spied(cls)
        expected = old_ladder(node, msg)
        node.on_message(1, msg)
        assert calls == ([expected] if expected else []), (cls.__name__, msg)


def test_the_sample_covers_every_wire_message():
    from repro.broadcast import messages

    wire = {
        value
        for value in vars(messages).values()
        if isinstance(value, type)
        and issubclass(value, Message)
        and value.__module__ == messages.__name__
    }
    assert {type(m) for m in sample_messages()} == wire


def test_a_message_subclass_routes_as_its_base():
    class TaggedEcho(BlockEcho):
        pass

    node, calls = spied(LightDag1Node)
    node.on_message(1, TaggedEcho(round=1, author=1, digest=b"\x01" * 32))
    assert calls == ["on_echo"]
    # cached for the node class that saw it, not for its parent class
    assert TaggedEcho in type(node)._dispatch
    assert TaggedEcho not in LightDag1Node._dispatch


def test_an_unknown_message_reaches_the_fallback_hook():
    class Gossip(Message):
        def wire_size(self):
            return 1

    for cls in (LightDag1Node, LightDag2Node):
        node, calls = spied(cls)
        node.on_message(1, Gossip())
        assert calls == ["_on_other_message"]


def test_tables_are_per_node_class():
    assert LightDag2Node._dispatch is not LightDag1Node._dispatch
    node, _ = spied(LightDag2Node)
    assert type(node)._dispatch is not LightDag2Node._dispatch


class TestLateEchoes:
    """An echo past the point where it could matter: no second delivery,
    no exception, on both echo-counting managers."""

    @staticmethod
    def managers():
        delivered = []
        net = FakeNet(0, 4)
        return delivered, [
            CbcManager(net, quorum=3, on_deliver=delivered.append),
            RbcManager(net, quorum=3, amplify_threshold=2, on_deliver=delivered.append),
        ]

    @staticmethod
    def deliver(manager, block):
        manager.on_val(1, block)
        manager.mark_ready(block.digest)
        for src in range(3):
            manager.on_echo(src, BlockEcho(block.round, block.author, block.digest))
            if isinstance(manager, RbcManager):
                manager.on_ready(src, BlockReady(block.round, block.author, block.digest))

    def test_echo_after_delivery_does_not_redeliver(self):
        delivered, managers = self.managers()
        block = make_block(2, 1, [genesis_block(a).digest for a in range(4)])
        for manager in managers:
            delivered.clear()
            self.deliver(manager, block)
            assert delivered == [block]
            late = BlockEcho(block.round, block.author, block.digest)
            assert manager.on_echo(3, late) is False
            assert manager.on_echo(0, late) is False
            if isinstance(manager, RbcManager):
                ready = BlockReady(block.round, block.author, block.digest)
                assert manager.on_ready(3, ready) is False
            assert delivered == [block]

    def test_echo_for_a_collected_digest_is_a_stub(self):
        delivered, managers = self.managers()
        block = make_block(2, 1, [genesis_block(a).digest for a in range(4)])
        for manager in managers:
            delivered.clear()
            self.deliver(manager, block)
            manager.gc_below(5)
            assert manager.tracker.peek(block.digest) is None
            for src in range(4):
                late = BlockEcho(block.round, block.author, block.digest)
                assert manager.on_echo(src, late) is False
            assert delivered == [block]
            stub = manager.tracker.peek(block.digest)
            assert stub.body is None and not stub.delivered
            assert manager.gc_below(5) >= 1  # and the next sweep removes it
