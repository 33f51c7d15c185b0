"""Invariant-oracle tests: clean runs pass, corrupted state is caught.

An oracle is only as good as its ability to fire; each corruption test
plants exactly one inconsistency in otherwise-valid post-run state and
asserts the right oracle names it.
"""

import pytest

from repro.broadcast.messages import BlockVal
from repro.check import (
    audit_cross_replica,
    audit_ledger,
    audit_lightdag2,
    audit_retrieval,
    deep_audit,
)
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.core.lightdag2 import LightDag2Node
from repro.core.proofs import proof_from_blocks
from repro.crypto.backend import HmacBackend
from repro.crypto.hashing import short_hex
from repro.crypto.keys import TrustedDealer
from repro.dag.block import TxBatch, make_block
from repro.errors import InvariantViolation
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.simulator import Simulation

from ..core.test_lightdag2 import feed_round1, genesis_parents, make_node, signed


def run_sim(node_cls=LightDag2Node, n=4, seed=3, duration=4.0, gc_depth=None):
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=5, gc_depth=gc_depth)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    sim = Simulation(
        [
            (lambda net, i=i: node_cls(net, system, protocol, chains[i]))
            for i in range(n)
        ],
        latency_model=UniformLatency(0.02, 0.06),
        seed=seed,
    )
    sim.run(until=duration)
    return sim


class TestCleanRunsPass:
    @pytest.mark.parametrize("node_cls", [LightDag1Node, LightDag2Node])
    def test_deep_audit_clean(self, node_cls):
        sim = run_sim(node_cls=node_cls)
        assert deep_audit(sim.nodes) == []
        assert all(len(node.ledger) > 0 for node in sim.nodes)

    def test_deep_audit_clean_under_gc(self):
        sim = run_sim(node_cls=LightDag2Node, duration=6.0, gc_depth=10)
        node = sim.nodes[0]
        assert node.store.lowest_retained_round() > 1  # GC actually ran
        assert deep_audit(sim.nodes) == []


def clean_node(gc_depth=None):
    """Replica 0 after a clean run whose ledger audits clean."""
    sim = run_sim(duration=6.0 if gc_depth else 4.0, gc_depth=gc_depth)
    node = sim.nodes[0]
    assert audit_ledger(node, "replica 0") == []
    return node


class TestLedgerOracle:
    """One hand-forged ledger column per violation :func:`audit_ledger`
    can report; the ledger stores header columns, so the forgeries edit
    those in place."""

    def test_non_dense_positions_caught(self):
        node = clean_node()
        node.ledger.columns.round.pop()  # one column a position short
        found = audit_ledger(node, "replica 0")
        assert any(
            "not dense" in v and "column round" in v for v in found
        )

    def test_decreasing_leader_index_caught(self):
        node = clean_node()
        cols = node.ledger.columns
        assert cols.leader_index[-1] > 0
        cols.leader_index[-1] = 0
        found = audit_ledger(node, "replica 0")
        assert any("leader_index decreases" in v for v in found)

    def test_two_via_leaders_for_one_index_caught(self):
        node = clean_node()
        cols = node.ledger.columns
        idx = next(
            i for i, (via, digest) in enumerate(zip(cols.via_leader, cols.digest))
            if via != digest
        )
        index = cols.leader_index[idx]
        other = next(
            via for k, via in zip(cols.leader_index, cols.via_leader) if k != index
        )
        cols.via_leader[idx] = other  # committed, but under another index
        found = audit_ledger(node, "replica 0")
        assert any(
            f"two via_leader digests under leader index {index}" in v
            for v in found
        )

    def test_via_leader_not_in_ledger_caught(self):
        node = clean_node()
        node.ledger.columns.via_leader[1] = b"\x07" * 32
        found = audit_ledger(node, "replica 0")
        assert any(
            "position 1 committed via leader" in v and "not in the ledger" in v
            for v in found
        )

    def test_invalid_signature_caught(self):
        node = clean_node()
        # A genuine signature, but over another block.
        signatures = node.ledger.columns.signature
        signatures[0] = signatures[1]
        found = audit_ledger(node, "replica 0")
        assert any("at position 0 has an invalid signature" in v for v in found)

    def test_parent_committed_later_caught(self):
        node = clean_node()
        cols = node.ledger.columns
        cols.parents[0] = (cols.digest[5],)
        found = audit_ledger(node, "replica 0")
        assert any(
            "position 0 references a parent committed later (position 5)" in v
            for v in found
        )

    def test_uncommitted_parent_caught(self):
        node = clean_node()
        # A parent that was never committed (a fresh signed block).
        stranger = make_block(
            1, 0, genesis_parents(), TxBatch(1, 64),
            repropose_index=7, signer=node.backend,
        )
        node.ledger.columns.parents[2] = (stranger.digest,)
        found = audit_ledger(node, "replica 0")
        assert any(
            f"references uncommitted parent {short_hex(stranger.digest)}" in v
            for v in found
        )

    def test_uncommitted_parent_inside_gc_window_caught(self):
        node = clean_node(gc_depth=10)
        assert node.store.lowest_retained_round() > 1  # GC actually ran
        # The newest delivered block is uncommitted and far above every
        # committed leader's GC floor.
        fresh = max(
            (
                block
                for r in range(node.store.lowest_retained_round(),
                               node.store.highest_round() + 1)
                for block in node.store.blocks_in_round(r)
                if block.digest not in node.ledger
            ),
            key=lambda block: block.round,
        )
        node.ledger.columns.parents[len(node.ledger) - 2] = (fresh.digest,)
        found = audit_ledger(node, "replica 0")
        assert any(
            f"uncommitted parent {short_hex(fresh.digest)} at round "
            f"{fresh.round}, inside the leader's GC window" in v
            for v in found
        )

    def test_shed_digests_do_not_reach_the_audit(self):
        """Under GC the ledger forgets committed digests below its shed
        horizon; the audit reads the digest column, so it still finds
        every committed parent."""
        node = clean_node(gc_depth=10)
        ledger = node.ledger
        assert ledger.shed_horizon > 1
        shed = [
            d for d, r in zip(ledger.columns.digest, ledger.columns.round)
            if r < ledger.shed_horizon
        ]
        assert shed and not any(d in ledger for d in shed)


class TestRetrievalOracle:
    def test_clean_state_passes(self):
        sim = run_sim()
        for i, node in enumerate(sim.nodes):
            assert audit_retrieval(node, f"replica {i}") == []

    def test_requested_but_stored_caught(self):
        sim = run_sim()
        node = sim.nodes[0]
        stored = node.ledger.record_at(0).digest
        node.retrieval._asked[stored] = 0.0
        found = audit_retrieval(node, "replica 0")
        assert any("already delivered" in v for v in found)

    def test_ask_without_dependent_caught(self):
        """An open ask that no parked block needs would be re-asked on
        every tick forever."""
        sim = run_sim()
        node = sim.nodes[0]
        node.retrieval._asked[b"\x03" * 32] = 0.0
        found = audit_retrieval(node, "replica 0")
        assert any("no parked block needs it" in v for v in found)

    def test_orphan_dependents_caught(self):
        sim = run_sim()
        node = sim.nodes[0]
        node.retrieval._dependents[b"\x01" * 32] = {b"\x02" * 32}
        found = audit_retrieval(node, "replica 0")
        assert any("dependents" in v for v in found)


class TestLightDag2Oracle:
    def test_blacklist_without_proof_caught(self, ):
        sim = run_sim()
        node = sim.nodes[0]
        node.blacklist.add(2)
        found = audit_lightdag2(node, "replica 0")
        assert any("blacklist" in v for v in found)

    def test_endorsement_in_wrong_round_kind_caught(self):
        system = SystemConfig(n=4, crypto="hmac", seed=0)
        chains = TrustedDealer(system).deal()
        node = make_node(system, chains)
        feed_round1(node, system)
        node.voted_refs[(2, 1)] = b"\x03" * 32  # round 2 is the CBC round
        found = audit_lightdag2(node, "replica 0")
        assert any("first-PBC-round" in v for v in found)

    def test_rule3_violation_caught(self):
        """An own block embedding a proof against a culprit while still
        referencing the culprit's block is a Rule 3 violation."""
        system = SystemConfig(n=4, crypto="hmac", seed=0)
        chains = TrustedDealer(system).deal()
        node = make_node(system, chains)
        blocks = feed_round1(node, system, equivocator=3)
        proof = proof_from_blocks(blocks[(3, 0)], blocks[(3, 1)])
        assert node._register_proof(proof)
        bad = make_block(
            2, 0,
            [blocks[(1, 0)].digest, blocks[(2, 0)].digest, blocks[(3, 0)].digest],
            byz_proofs=(proof,), signer=HmacBackend(0, system),
        )
        node.my_blocks[bad.digest] = bad
        found = audit_lightdag2(node, "replica 0")
        assert any("references the culprit" in v for v in found)

    def test_foreign_pending_repropose_caught(self):
        system = SystemConfig(n=4, crypto="hmac", seed=0)
        chains = TrustedDealer(system).deal()
        node = make_node(system, chains)
        foreign = signed(system, 1, 2, genesis_parents())
        node._pending_repropose[foreign.digest] = foreign
        found = audit_lightdag2(node, "replica 0")
        assert any("not an own block" in v for v in found)


class TestCrossReplicaOracle:
    def test_agreeing_replicas_pass(self):
        sim = run_sim()
        assert audit_cross_replica(sim.nodes, list(range(len(sim.nodes)))) == []

    def test_forked_tail_caught(self):
        sim = run_sim()
        a, b = sim.nodes[0], sim.nodes[1]
        # Extend both ledgers at the same position with different blocks.
        fork_a = make_block(99, 0, [], TxBatch(0, 64), signer=a.backend)
        fork_b = make_block(99, 1, [], TxBatch(0, 64), signer=b.backend)
        shorter = min((a, b), key=lambda n: len(n.ledger))
        longer = a if shorter is b else b
        while len(shorter.ledger) < len(longer.ledger):
            rec = longer.ledger.record_at(len(shorter.ledger))
            shorter.ledger.append(
                longer.store.get(rec.digest), rec.commit_time, rec.via_leader,
                shorter.ledger.begin_leader(),
            )
        a.ledger.append(fork_a, 9.0, fork_a.digest, a.ledger.begin_leader())
        b.ledger.append(fork_b, 9.0, fork_b.digest, b.ledger.begin_leader())
        found = audit_cross_replica([a, b], ["replica 0", "replica 1"])
        assert any("diverge" in v for v in found)

    def test_digest_disagreement_caught(self):
        sim = run_sim()
        a, b = sim.nodes[0], sim.nodes[1]
        assert min(len(a.ledger), len(b.ledger)) > 2
        # Same commit metadata, another block at position 1.
        digests = b.ledger.columns.digest
        digests[1] = digests[2]
        found = audit_cross_replica([a, b], ["replica 0", "replica 1"])
        assert any(
            "safety violation: ledgers 0 and 1 diverge at position 1" in v
            for v in found
        )

    def test_metadata_disagreement_caught(self):
        sim = run_sim()
        a, b = sim.nodes[0], sim.nodes[1]
        shared = min(len(a.ledger), len(b.ledger))
        assert shared > 2
        b.ledger.columns.via_leader[1] = b"\x07" * 32
        found = audit_cross_replica([a, b], ["replica 0", "replica 1"])
        assert any(
            "commit-metadata disagreement at position 1" in v for v in found
        )

    def test_leader_index_disagreement_caught(self):
        sim = run_sim()
        a, b = sim.nodes[0], sim.nodes[1]
        cols = b.ledger.columns
        # The last position of the first leader claims the second index.
        pos = next(
            p for p in range(len(cols.leader_index) - 1)
            if cols.leader_index[p + 1] != cols.leader_index[p]
        )
        assert pos < min(len(a.ledger), len(b.ledger))
        cols.leader_index[pos] += 1
        found = audit_cross_replica([a, b], ["replica 0", "replica 1"])
        assert any(
            f"commit-metadata disagreement at position {pos}" in v for v in found
        )

    def test_leader_sequence_divergence_caught(self):
        sim = run_sim()
        a, b = sim.nodes[0], sim.nodes[1]
        cols = b.ledger.columns
        # Replace leader 1 everywhere it appears in b's via_leader column.
        first = cols.leader_index.index(1)
        leader = cols.via_leader[first]
        forged = b"\x07" * 32
        for pos, via in enumerate(cols.via_leader):
            if via == leader:
                cols.via_leader[pos] = forged
        found = audit_cross_replica([a, b], ["replica 0", "replica 1"])
        assert any(
            "committed-leader sequence diverges at leader index 1" in v
            for v in found
        )


class TestDeepAuditComposition:
    def test_raises_with_all_findings(self):
        sim = run_sim()
        node = sim.nodes[0]
        node.blacklist.add(2)
        node.retrieval._dependents[b"\x01" * 32] = {b"\x02" * 32}
        with pytest.raises(InvariantViolation) as exc:
            deep_audit(sim.nodes)
        assert "blacklist" in str(exc.value)
        assert "dependents" in str(exc.value)

    def test_collect_mode_returns_without_raising(self):
        sim = run_sim()
        sim.nodes[0].blacklist.add(2)
        found = deep_audit(sim.nodes, raise_on_violation=False)
        assert len(found) == 1

    def test_journals_verdict(self):
        from repro.obs import EventJournal, MetricsRegistry, Observability

        sim = run_sim()
        obs = Observability(MetricsRegistry(), EventJournal())
        deep_audit(sim.nodes, obs=obs, now=4.0)
        audits = [e for e in obs.journal if e.type == "oracle.audit"]
        assert len(audits) == 1
        assert audits[0].data["violations"] == 0
