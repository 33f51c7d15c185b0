"""Tests for the echoer snapshots returned by ``echoers_of``."""

import pytest

from repro.broadcast.cbc import CbcManager
from repro.broadcast.messages import BlockEcho
from repro.broadcast.rbc import RbcManager
from repro.crypto.hashing import hash_fields

from ..conftest import FakeNet

DIGEST = hash_fields("view-digest")
ECHO = BlockEcho(round=1, author=0, digest=DIGEST)


def managers(n):
    """A CBC and an RBC manager of an n-replica cluster."""
    net, f = FakeNet(node_id=0, n=n), (n - 1) // 3
    return [
        CbcManager(net, quorum=n - f, on_deliver=lambda block: None),
        RbcManager(net, quorum=n - f, amplify_threshold=f + 1,
                   on_deliver=lambda block: None),
    ]


class TestEchoersOf:
    @pytest.mark.parametrize("n", [4, 64, 100])
    def test_equals_the_voters_so_far(self, n):
        for manager in managers(n):
            voters = set()
            for src in (n - 1, 0, n // 2, n - 1, 1):  # one duplicate
                manager.on_echo(src, ECHO)
                voters.add(src)
                assert manager.echoers_of(DIGEST) == voters

    def test_unknown_digest_is_empty(self):
        for manager in managers(4):
            assert manager.echoers_of(DIGEST) == frozenset()
            assert manager.tracker.peek(DIGEST) is None  # asking created nothing

    def test_returned_set_does_not_change_with_later_echoes(self):
        for manager in managers(4):
            manager.on_echo(0, ECHO)
            manager.on_echo(1, ECHO)
            snapshot = manager.echoers_of(DIGEST)
            manager.on_echo(2, ECHO)
            assert snapshot == {0, 1}
            assert manager.echoers_of(DIGEST) == {0, 1, 2}

    def test_view_is_read_only(self):
        for manager in managers(4):
            manager.on_echo(0, ECHO)
            view = manager.echoers_of(DIGEST)
            assert isinstance(view, frozenset)
            with pytest.raises(AttributeError):
                view.add(7)  # type: ignore[attr-defined]
            assert manager.echoers_of(DIGEST) == {0}
