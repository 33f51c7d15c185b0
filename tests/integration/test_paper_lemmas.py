"""Executable paper lemmas: the proofs' premises checked on real runs.

The correctness analysis (§IV-C, §V-C) rests on structural invariants of
the DAG.  Rather than trusting the implementation to satisfy them, these
tests re-derive each invariant from the *observed* post-run state across
all replicas — under jitter, crash, and equivocation:

* CBC consistency (§III-B.1): across all honest replicas, at most one
  delivered block per LightDAG1 slot.
* Lemma 1: directly committed leaders are totally ordered by ancestry.
* Lemma 4 / Rule 2: no delivered LightDAG2 CBC blocks reference
  contradictory previous-round blocks; hence third-round blocks never
  reach contradictory first-round blocks.
* Ancestor completeness (§IV-A): every committed block's parents are
  committed at lower-or-equal positions (the prefix property Algorithm 1's
  sorting needs).
"""

import pytest

from repro.adversary.byzantine import EquivocatingLightDag2Node
from repro.adversary.schedule import FaultSchedule
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.dag.traversal import is_ancestor
from repro.net.latency import UniformLatency
from repro.net.simulator import Simulation


class RecordingLightDag1(LightDag1Node):
    """Tracks which waves this replica committed *directly* (Lemma 1)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.directly_committed = []  # (wave, leader_block)

    def _commit_leader(self, commit):
        super()._commit_leader(commit)
        if commit.kind == "direct":
            self.directly_committed.append((commit.wave, commit.leader))


def random_delays(max_delay, seed):
    return FaultSchedule.from_spec(f"delay@0+inf:max={max_delay}").adversary(seed)


def run_cluster(node_classes, seed=1, until=8.0, adversary=None, crashes=()):
    n = len(node_classes)
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=5)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    sim = Simulation(
        [
            (lambda net, i=i, cls=node_classes[i]: cls(net, system, protocol, chains[i]))
            for i in range(n)
        ],
        latency_model=UniformLatency(0.01, 0.08),
        adversary=adversary,
        seed=seed,
    )
    for victim in crashes:
        sim.crash(victim)
    sim.run(until=until)
    return sim


class TestCbcConsistencyAcrossReplicas:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_delivered_block_per_slot_globally(self, seed):
        """§III-B.1 consistency, cross-replica: the union of every honest
        replica's delivered blocks holds at most one block per slot."""
        sim = run_cluster([RecordingLightDag1] * 4, seed=seed,
                          adversary=random_delays(0.15, seed))
        slot_digests = {}
        for node in sim.nodes:
            for round_ in range(1, node.store.highest_round() + 1):
                for author in node.store.authors_in_round(round_):
                    block = node.store.block_in_slot(round_, author)
                    slot_digests.setdefault((round_, author), set()).add(block.digest)
        assert all(len(d) == 1 for d in slot_digests.values())


class TestLemma1:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_directly_committed_leaders_totally_ordered(self, seed):
        """Lemma 1: if L and L' are directly committed (by *any* replicas),
        one is an ancestor of the other."""
        sim = run_cluster([RecordingLightDag1] * 4, seed=seed,
                          adversary=random_delays(0.1, seed))
        direct = []  # union over replicas
        for node in sim.nodes:
            direct.extend(node.directly_committed)
        assert direct, "no direct commits happened at all"
        reference = sim.nodes[0]
        by_wave = sorted(direct, key=lambda pair: pair[0])
        for (w1, l1), (w2, l2) in zip(by_wave, by_wave[1:]):
            if w1 == w2:
                assert l1.digest == l2.digest  # CBC consistency on leaders
            else:
                assert is_ancestor(l1.digest, l2, reference.store), (w1, w2)


class TestLemma4AndRule2:
    def collect_contradictions(self, sim, byzantine):
        """For every LightDAG2 CBC round, check no two blocks delivered
        anywhere reference different blocks of one previous-round slot."""
        endorsed = {}
        violations = []
        for i, node in enumerate(sim.nodes):
            if i in byzantine:
                continue
            for round_ in range(2, node.store.highest_round() + 1):
                if LightDag2Node.round_kind(round_) != LightDag2Node.CBC_E:
                    continue
                for author in node.store.authors_in_round(round_):
                    for block in node.store.blocks_in_slot(round_, author):
                        for parent_digest in block.parents:
                            parent = node.store.get_optional(parent_digest)
                            if parent is None or parent.is_genesis:
                                continue
                            key = (round_, parent.slot)
                            previous = endorsed.setdefault(key, parent_digest)
                            if previous != parent_digest:
                                violations.append(key)
        return violations

    @pytest.mark.parametrize("seed", [7, 11])
    def test_no_contradictory_references_in_delivered_cbc(self, seed):
        """Rule 2's round-level guarantee, under an active equivocator."""
        classes = [LightDag2Node] * 3 + [
            lambda net, system, protocol, keychain: EquivocatingLightDag2Node(
                net, system, protocol, keychain, start_wave=2
            )
        ]
        sim = run_cluster(classes, seed=seed, until=10.0)
        violations = self.collect_contradictions(sim, byzantine={3})
        assert violations == []

    @pytest.mark.parametrize("seed", [7])
    def test_lemma4_third_round_reaches_unique_candidates(self, seed):
        """Lemma 4: for each wave's leader-round slot, all third-round
        blocks (anywhere) reach at most one block of that slot."""
        classes = [LightDag2Node] * 3 + [
            lambda net, system, protocol, keychain: EquivocatingLightDag2Node(
                net, system, protocol, keychain, start_wave=2
            )
        ]
        sim = run_cluster(classes, seed=seed, until=10.0)
        for node in sim.nodes[:3]:
            top = node.store.highest_round()
            for round3 in range(3, top + 1, 3):  # e=3 rounds
                round1 = round3 - 2
                reached = {}
                for author in node.store.authors_in_round(round3):
                    for block in node.store.blocks_in_slot(round3, author):
                        for p in block.parents:
                            mid = node.store.get_optional(p)
                            if mid is None:
                                continue
                            for q in mid.parents:
                                first = node.store.get_optional(q)
                                if first is None or first.round != round1:
                                    continue
                                seen = reached.setdefault(first.slot, q)
                                assert seen == q, (round3, first.slot)


class TestAncestorCompleteness:
    @pytest.mark.parametrize("node_cls", [LightDag1Node, LightDag2Node])
    def test_committed_parents_precede_children(self, node_cls):
        """Every committed block's non-genesis parents are committed at
        strictly earlier ledger positions (Algorithm 1's sort invariant)."""
        sim = run_cluster([node_cls] * 4, seed=13)
        for node in sim.nodes:
            position_of = {
                record.digest: record.position for record in node.ledger
            }
            for record in node.ledger:
                for parent_digest in record.parents:
                    parent = node.store.get_optional(parent_digest)
                    if parent is None or parent.is_genesis:
                        continue
                    if parent_digest in position_of:
                        assert position_of[parent_digest] < record.position
