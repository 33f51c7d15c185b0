"""Shared fixtures and test doubles for the repro test suite."""

from __future__ import annotations

from typing import Any, List, Tuple

import pytest

from repro.adversary.base import Adversary
from repro.config import ProtocolConfig, SystemConfig
from repro.crypto.keys import KeyChain, TrustedDealer
from repro.net.interfaces import Message, NetworkAPI


def count_calls(monkeypatch, owner, name: str, log: list) -> None:
    """Rebind ``owner.name`` (a module function, a method, or a classmethod
    called on its class) to a wrapper that appends each call's positional
    arguments to ``log`` and then makes the call."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        log.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def applied_ids(replica) -> list:
    """The ids of the commands ``replica`` applies from now on, in order,
    collected through its result listener."""
    ids: list = []
    replica.on_result(lambda command, result: ids.append(command.command_id))
    return ids


class DelayMatching(Adversary):
    """Delay every message ``predicate(src, dst, msg)`` accepts by ``delay``."""

    def __init__(self, predicate, delay: float) -> None:
        super().__init__()
        self.predicate, self.delay, self.delayed_count = predicate, delay, 0

    def on_send(self, src, dst, msg, now):
        hit = self.predicate(src, dst, msg)
        self.delayed_count += hit
        return self.delay if hit else 0.0


class FakeNet(NetworkAPI):
    """A NetworkAPI that records effects instead of delivering them.

    Unit tests for broadcast managers and protocol nodes inspect
    ``sent`` / ``timers`` directly; ``advance(dt)`` moves the fake clock.
    """

    def __init__(self, node_id: int = 0, n: int = 4) -> None:
        self._node_id = node_id
        self._n = n
        self._now = 0.0
        self.sent: List[Tuple[int, Message]] = []
        self.timers: List[Tuple[float, str, Any]] = []

    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def n(self) -> int:
        return self._n

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        self._now += dt

    def send(self, dst: int, msg: Message) -> None:
        self.sent.append((dst, msg))

    def set_timer(self, delay: float, tag: str, data: Any = None) -> None:
        self.timers.append((self._now + delay, tag, data))

    # -- assertion helpers ---------------------------------------------------

    def sent_to(self, dst: int) -> List[Message]:
        return [m for d, m in self.sent if d == dst]

    def broadcasts_of(self, msg_type: type) -> List[Message]:
        """Messages of a type sent to every replica (one copy per dst)."""
        by_msg: dict = {}
        for dst, msg in self.sent:
            if isinstance(msg, msg_type):
                by_msg.setdefault(id(msg), (msg, set()))[1].add(dst)
        return [m for m, dsts in by_msg.values() if len(dsts) == self._n]

    def clear(self) -> None:
        self.sent.clear()
        self.timers.clear()


@pytest.fixture
def fake_net() -> FakeNet:
    return FakeNet(node_id=0, n=4)


@pytest.fixture
def system4() -> SystemConfig:
    """The smallest Byzantine-tolerant system: n=4, f=1."""
    return SystemConfig(n=4, crypto="hmac", seed=0)


@pytest.fixture
def system7() -> SystemConfig:
    return SystemConfig(n=7, crypto="hmac", seed=0)


@pytest.fixture
def protocol_cfg() -> ProtocolConfig:
    return ProtocolConfig(batch_size=10)


@pytest.fixture
def chains4(system4) -> List[KeyChain]:
    return TrustedDealer(system4).deal()


@pytest.fixture
def chains7(system7) -> List[KeyChain]:
    return TrustedDealer(system7).deal()
