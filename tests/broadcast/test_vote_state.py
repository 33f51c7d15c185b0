"""Differential test of the bitmask vote tally against the set-based one.

``SetCbc``/``SetRbc`` below are the tally ``CbcManager``/``RbcManager``
had when an instance kept its voters in two Python sets, reduced to what
a vote can change: deliveries, READY sends, quorum traces and the
introspection calls.  They are the reference; the managers in ``src/``
must be indistinguishable from them after every step of any interleaving
of bodies, protocol ready signals, votes (duplicate and late ones
included), retrievals and GC sweeps, at every cluster size whose mask
crosses an int-digit or machine-word boundary (31, 64, 100).
"""

import math
from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.broadcast.cbc import CbcManager
from repro.broadcast.messages import BlockEcho, BlockReady
from repro.broadcast.rbc import RbcManager
from repro.dag.block import genesis_block, make_block
from repro.obs import Observability
from repro.obs.journal import EventJournal

from ..conftest import FakeNet

PARENTS = [genesis_block(a).digest for a in range(4)]
#: Two blocks of one round and one of a later round, so a GC sweep can
#: take some instances and leave others.
BLOCKS = [make_block(r, a, PARENTS) for r, a in ((2, 0), (2, 1), (7, 0))]
DIGESTS = [block.digest for block in BLOCKS]
HORIZONS = [1, 3, 8]


# -- the reference: voters kept as sets ------------------------------------------


class SetInstance:
    def __init__(self) -> None:
        self.body = None
        self.ready = False
        self.delivered = False
        self.echoers = set()
        self.readiers = set()
        self.sent_ready = False
        self.round = -1


class SetTally:
    """What both set-based managers shared (``InstanceTracker``)."""

    def __init__(self, quorum: int, amplify_threshold: int) -> None:
        self.quorum = quorum
        self.amplify_threshold = amplify_threshold
        self.instances: Dict[bytes, SetInstance] = {}
        self.delivered: List[bytes] = []
        self.readies_sent: List[bytes] = []
        self.amplified = 0
        self.quorums: List[tuple] = []

    def state(self, digest) -> SetInstance:
        return self.instances.setdefault(digest, SetInstance())

    def state_for_vote(self, digest, round_) -> SetInstance:
        inst = self.state(digest)
        if inst.body is None and round_ > inst.round:
            inst.round = round_
        return inst

    def on_val(self, src, block) -> None:
        inst = self.state(block.digest)
        if inst.body is None:
            inst.body = block
        inst.round = block.round

    def try_deliver(self, inst, predicate_met) -> bool:
        if inst.delivered or not inst.ready or inst.body is None or not predicate_met:
            return False
        inst.delivered = True
        self.delivered.append(inst.body.digest)
        return True

    def deliver_retrieved(self, digest) -> bool:
        inst = self.state(digest)
        inst.ready = True
        return self.try_deliver(inst, True)

    def gc_below(self, horizon) -> int:
        stale = [d for d, inst in self.instances.items() if 0 <= inst.round < horizon]
        for digest in stale:
            del self.instances[digest]
        return len(stale)

    def is_delivered(self, digest) -> bool:
        inst = self.instances.get(digest)
        return inst is not None and inst.delivered

    def echo_mask(self, digest) -> int:
        inst = self.instances.get(digest)
        return sum(1 << voter for voter in inst.echoers) if inst else 0


class SetCbc(SetTally):
    def on_echo(self, src, echo) -> bool:
        inst = self.state_for_vote(echo.digest, echo.round)
        echoers = inst.echoers
        if len(echoers) + 1 == self.quorum and src not in echoers:
            self.quorums.append((echo.digest.hex()[:8], "echo"))
        echoers.add(src)
        if inst.delivered or len(echoers) < self.quorum:
            return False
        return self.try_deliver(inst, True)

    def mark_ready(self, digest) -> bool:
        inst = self.state(digest)
        inst.ready = True
        return self.try_deliver(inst, len(inst.echoers) >= self.quorum)

    def complete(self, digest) -> bool:
        inst = self.instances.get(digest)
        return inst is not None and len(inst.echoers) >= self.quorum


class SetRbc(SetTally):
    def on_echo(self, src, echo) -> bool:
        inst = self.state_for_vote(echo.digest, echo.round)
        echoers = inst.echoers
        echoers.add(src)
        if len(echoers) >= self.quorum and not inst.sent_ready:
            self.send_ready(echo.digest, inst)
        if inst.delivered or len(inst.readiers) < self.quorum:
            return False
        return self.try_deliver(inst, True)

    def on_ready(self, src, ready) -> bool:
        inst = self.state_for_vote(ready.digest, ready.round)
        readiers = inst.readiers
        if len(readiers) + 1 == self.quorum and src not in readiers:
            self.quorums.append((ready.digest.hex()[:8], "ready"))
        readiers.add(src)
        if len(readiers) >= self.amplify_threshold and not inst.sent_ready:
            self.send_ready(ready.digest, inst, amplified=True)
        if inst.delivered or len(readiers) < self.quorum:
            return False
        return self.try_deliver(inst, True)

    def send_ready(self, digest, inst, amplified=False) -> None:
        inst.sent_ready = True
        self.readies_sent.append(digest)
        self.amplified += amplified

    def mark_ready(self, digest) -> bool:
        inst = self.state(digest)
        inst.ready = True
        return self.try_deliver(inst, len(inst.readiers) >= self.quorum)

    def complete(self, digest) -> bool:
        inst = self.instances.get(digest)
        return inst is not None and len(inst.readiers) >= self.quorum


# -- the managers under test, seen through the same window ---------------------------


class Subject:
    """A manager from ``src/`` with the reference's attributes on top: what
    it delivered, sent and traced, read back from its collaborators."""

    def __init__(self, primitive: str, n: int, quorum: int, amplify_threshold: int):
        self.net = FakeNet(node_id=0, n=n)
        self.journal = EventJournal()
        self.obs = Observability(journal=self.journal)
        self._delivered: List = []
        if primitive == "cbc":
            self.manager = CbcManager(
                self.net, quorum, self._delivered.append, obs=self.obs
            )
            self.complete = self.manager.echo_complete
        else:
            self.manager = RbcManager(
                self.net, quorum, amplify_threshold, self._delivered.append,
                obs=self.obs,
            )
            self.complete = self.manager.ready_complete

    def __getattr__(self, name):
        return getattr(self.manager, name)

    def echo_mask(self, digest) -> int:
        inst = self.manager.tracker.peek(digest)
        return inst.echoers if inst else 0

    @property
    def delivered(self):
        return [block.digest for block in self._delivered]

    @property
    def readies_sent(self):
        return [
            msg.digest for dst, msg in self.net.sent
            if dst == 0 and isinstance(msg, BlockReady)
        ]

    @property
    def amplified(self):
        return self.obs.metrics.counter_total("broadcast.ready_amplifications")

    @property
    def quorums(self):
        return [
            (event.data["digest"], event.data["kind"])
            for event in self.journal.events if event.type == "trace.quorum"
        ]


def apply(target, op):
    """Make one call on a manager or on its reference; returns its result."""
    name, block, src = op
    if name == "gc":
        return target.gc_below(src)
    if name == "val":
        return target.on_val(block.author, block)
    if name == "mark_ready":
        return target.mark_ready(block.digest)
    if name == "retrieved":
        return target.deliver_retrieved(block.digest)
    if name == "echo":
        return target.on_echo(src, BlockEcho(block.round, block.author, block.digest))
    assert name == "ready"
    return target.on_ready(src, BlockReady(block.round, block.author, block.digest))


def window(target):
    """Everything a step may have changed, as the protocol can see it."""
    return (
        target.delivered, target.readies_sent, target.amplified, target.quorums,
        [
            (target.echo_mask(d), target.complete(d), target.is_delivered(d))
            for d in DIGESTS
        ],
    )


@st.composite
def schedules(draw):
    """(primitive, n, ops): for each block a body, a ready signal, a run
    of distinct voters of each kind that may or may not reach the
    quorum, some repeats of them and perhaps a retrieval; plus GC sweeps;
    in any order."""
    primitive = draw(st.sampled_from(["cbc", "rbc"]))
    n = draw(st.sampled_from([4, 7, 31, 64, 100]))
    kinds = ["echo"] if primitive == "cbc" else ["echo", "ready"]
    strides = [s for s in range(1, n) if math.gcd(s, n) == 1]
    ops = []
    for block in BLOCKS:
        for name in ("val", "mark_ready"):
            if draw(st.integers(0, 4)):
                ops.append((name, block, None))
        if not draw(st.integers(0, 4)):
            ops.append(("retrieved", block, None))
        for kind in kinds:
            count, first = draw(st.integers(0, n)), draw(st.integers(0, n - 1))
            stride = draw(st.sampled_from(strides))
            voters = [(first + i * stride) % n for i in range(count)]
            repeats = draw(st.lists(st.sampled_from(voters), max_size=4) if voters
                           else st.just([]))
            ops.extend((kind, block, src) for src in voters + repeats)
    for horizon in draw(st.lists(st.sampled_from(HORIZONS), max_size=3)):
        ops.append(("gc", None, horizon))
    return primitive, n, draw(st.permutations(ops))


@settings(max_examples=150, deadline=None)
@given(schedules())
def test_bitmask_tally_is_indistinguishable_from_the_set_tally(schedule):
    primitive, n, ops = schedule
    f = (n - 1) // 3
    subject = Subject(primitive, n, quorum=n - f, amplify_threshold=f + 1)
    reference = (SetCbc if primitive == "cbc" else SetRbc)(n - f, f + 1)
    for step, op in enumerate(ops):
        assert apply(subject, op) == apply(reference, op), (step, op[0])
        assert window(subject) == window(reference), (step, op[0])
