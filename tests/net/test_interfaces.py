"""Tests for repro.net.interfaces: the runtime-agnostic contract."""

from dataclasses import dataclass

from repro.net.interfaces import Message, Node

from ..conftest import FakeNet


@dataclass(frozen=True)
class Ping(Message):
    def wire_size(self) -> int:
        return 8


class Echo(Node):
    def __init__(self, net):
        super().__init__(net)
        self.seen = []

    def on_message(self, src, msg):
        self.seen.append((src, msg))


class TestNetworkApiDefaults:
    def test_broadcast_includes_self(self):
        net = FakeNet(node_id=1, n=4)
        net.broadcast(Ping())
        assert sorted(dst for dst, _ in net.sent) == [0, 1, 2, 3]

    def test_broadcast_exclude_self(self):
        net = FakeNet(node_id=1, n=4)
        net.broadcast(Ping(), include_self=False)
        assert sorted(dst for dst, _ in net.sent) == [0, 2, 3]


class TestNodeDefaults:
    def test_node_id_delegates(self):
        node = Echo(FakeNet(node_id=3, n=4))
        assert node.node_id == 3

    def test_default_on_start_and_timer_are_noops(self):
        node = Echo(FakeNet())
        node.on_start()
        node.on_timer("anything", {"data": 1})
        assert node.seen == []

    def test_message_requires_wire_size(self):
        import pytest

        with pytest.raises(TypeError):
            Message()  # abstract
