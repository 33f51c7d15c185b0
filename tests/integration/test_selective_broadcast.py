"""Selective-VAL Byzantine broadcasters: the attack §IV-A exists for.

CBC has no totality: a Byzantine broadcaster can send its VAL to just
enough replicas to complete the echo quorum, leaving the rest without the
body.  The deprived replicas must not diverge — when a descendant block
arrives referencing the withheld block, the parent-missing path retrieves
it (digest-pinned) before anything is accepted, so commits stay identical.
"""

import pytest

from repro.broadcast.messages import BlockVal
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.dag.ledger import check_prefix_consistency
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulation


class SelectiveValNode(LightDag1Node):
    """Byzantine: sends block bodies to a quorum only (echoes still flow).

    The chosen quorum excludes the lowest-id honest replicas, so those
    replicas repeatedly face echo-complete-but-no-body slots and must rely
    on retrieval through descendants.
    """

    def _broadcast_block(self, block):
        # The broadcaster votes for its own block, so quorum-1 other
        # recipients suffice — replica 1 never gets the body.
        n = self.net.n
        recipients = set(range(n - (self.system.quorum - 1), n)) | {self.node_id}
        for dst in range(n):
            if dst in recipients:
                self.net.send(dst, BlockVal(block))


class SelectiveValNode2(LightDag2Node):
    """Same behaviour for LightDAG2 (PBC and CBC rounds alike)."""

    def _broadcast_block(self, block):
        n = self.net.n
        recipients = set(range(n - (self.system.quorum - 1), n)) | {self.node_id}
        for dst in range(n):
            if dst in recipients:
                self.net.send(dst, BlockVal(block))


def build_sim(byz_cls, honest_cls, n=4, seed=3):
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=5)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()

    def factory(i):
        cls = byz_cls if i == 0 else honest_cls
        return lambda net: cls(net, system, protocol, chains[i])

    return Simulation(
        [factory(i) for i in range(n)],
        latency_model=FixedLatency(0.05),
        seed=seed,
    )


@pytest.mark.parametrize(
    "byz_cls,honest_cls",
    [(SelectiveValNode, LightDag1Node), (SelectiveValNode2, LightDag2Node)],
)
class TestSelectiveBroadcast:
    def test_deprived_replicas_stay_consistent(self, byz_cls, honest_cls):
        sim = build_sim(byz_cls, honest_cls)
        sim.run(until=6.0)
        honest = sim.nodes[1:]
        check_prefix_consistency([n.ledger for n in honest])
        assert all(len(n.ledger) > 20 for n in honest)

    def test_withheld_blocks_retrieved_through_descendants(self, byz_cls, honest_cls):
        sim = build_sim(byz_cls, honest_cls)
        sim.run(until=6.0)
        # Replica 1 never receives node 0's VALs directly (recipients are
        # {0, 2, 3}) and must retrieve them through descendants.
        deprived = [
            node for node in sim.nodes[1:]
            if node.retrieval.requests_sent > 0
        ]
        assert deprived, "no replica ever needed retrieval — attack not exercised"
        # And the withheld author's committed blocks are present everywhere.
        reference = sim.nodes[3]
        byz_committed = [
            r.digest for r in reference.ledger if r.author == 0
        ]
        assert byz_committed, "the selective broadcaster's blocks never committed"
        for node in sim.nodes[1:]:
            for digest in byz_committed[: len(node.ledger)]:
                if digest in node.ledger.committed_digests:
                    assert digest in node.store

    def test_commit_rate_not_collapsed(self, byz_cls, honest_cls):
        attacked = build_sim(byz_cls, honest_cls)
        attacked.run(until=6.0)
        clean = build_sim(honest_cls, honest_cls)
        clean.run(until=6.0)
        assert (
            len(attacked.nodes[1].ledger) > 0.5 * len(clean.nodes[1].ledger)
        )
