"""Protocols as data: what a protocol class may and may not define.

The five protocols share one broadcast wiring and one commit rule in
``BaseDagNode``; a subclass says what differs with class attributes.  These
tests pin that shape so a wiring or commit override cannot quietly return.
"""

import pytest

from repro.baselines.bullshark import BullsharkNode
from repro.baselines.dagrider import DagRiderNode
from repro.baselines.tusk import TuskNode
from repro.check.mutants import MUTANT_REGISTRY
from repro.config import ProtocolConfig, SystemConfig
from repro.core.base import BaseDagNode
from repro.core.lightdag1 import LightDag1NoMergeNode, LightDag1Node
from repro.crypto.keys import TrustedDealer
from repro.harness.runner import PROTOCOL_REGISTRY

from ..conftest import FakeNet

EVERY_CLASS = sorted({**PROTOCOL_REGISTRY, **MUTANT_REGISTRY}.items())

#: Defined once, in BaseDagNode (wiring) — the commit rule's methods live
#: in repro.core.commit and are not node methods at all.
WIRING = {
    "_manager_for_round", "_broadcast_block", "_on_deliver",
    "_apply_commits", "_commit_leader", "_maybe_prune", "_make_block",
    "_share_wave", "_carries_due_share", "_add_coin_share", "_recover_from_stall",
    "_predefine_leaders", "on_message",
}


def methods_of(cls):
    return {name for name, value in vars(cls).items() if callable(value)}


@pytest.mark.parametrize("name,cls", EVERY_CLASS)
def test_attributes_are_consistent(name, cls):
    assert len(cls.BROADCAST) == cls.WAVE_LENGTH
    assert set(cls.BROADCAST) <= {"pbc", "cbc", "rbc"}
    if cls.WAVE_OVERLAP:
        # the shared boundary round is one round: one primitive
        assert cls.BROADCAST[0] == cls.BROADCAST[-1]
    assert cls.SUPPORT_THRESHOLD in ("f+1", "2f+1", "n-f", "config")
    assert cls.LEADER_SOURCE in ("coin", "predefined")
    assert 1 <= cls.SUPPORT_DEPTH < cls.WAVE_LENGTH


@pytest.mark.parametrize("name,cls", EVERY_CLASS)
def test_no_protocol_overrides_the_wiring(name, cls):
    for klass in cls.__mro__:
        if klass is BaseDagNode:
            break
        assert not methods_of(klass) & WIRING, klass


def test_attribute_only_protocols_define_no_methods():
    for cls in (LightDag1Node, LightDag1NoMergeNode, DagRiderNode, TuskNode):
        assert methods_of(cls) == set(), cls


@pytest.mark.parametrize("name,cls", EVERY_CLASS)
def test_managers_follow_the_broadcast_attribute(name, cls):
    system = SystemConfig(n=4, crypto="hmac", seed=0)
    node = cls(FakeNet(0, 4), system, ProtocolConfig(), TrustedDealer(system).deal()[0])
    for kind in ("pbc", "cbc", "rbc"):
        assert (getattr(node, kind) is not None) == (kind in cls.BROADCAST)
    for wave in (1, 2, 3):
        for e, kind in enumerate(cls.BROADCAST, start=1):
            round_ = node.wave.round_of(wave, e)
            assert node._manager_for_round(round_) is getattr(node, kind)


def test_predefined_leaders_send_and_recover_no_coin_shares():
    from repro.broadcast.messages import BlockVal
    from repro.core.base import STALL_CHECK_TAG

    system = SystemConfig(n=4, crypto="hmac", seed=0)
    net = FakeNet(0, 4)
    node = BullsharkNode(net, system, ProtocolConfig(), TrustedDealer(system).deal()[0])
    assert all(node._share_wave(r) is None for r in range(1, 20))
    node.on_start()
    net.advance(10.0)
    node.on_timer(STALL_CHECK_TAG)
    # The stall check re-broadcasts the round-1 proposal; no block of a
    # predefined-leader protocol carries a share.
    vals = [m for _, m in net.sent if isinstance(m, BlockVal)]
    assert len(vals) == 8  # round-1 proposal + its re-broadcast, 4 copies each
    assert all(m.block.coin_share is None for m in vals)
