"""The commit rule (repro.core.commit) on synthetic DAGs — no Simulation.

Blocks are built by hand and fed straight into a ``DagStore``; the rule is
told about deliveries and leaders and the test plays the ledger (a set of
committed digests).  Covers direct commit, the Fig. 5/6 cascade cases, a
late coin, an equivocated leader slot, the ``gc_depth`` floor, the two
mutant parameterisations, the order-independence property, and the import
boundary that keeps the rule a function of the DAG alone.
"""

import ast
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro.core.commit as commit_module
from repro.check.mutants import MUTANT_REGISTRY
from repro.core.commit import CommitRule
from repro.core.lightdag1 import LightDag1Node
from repro.dag.block import TxBatch, genesis_block, make_block
from repro.dag.rounds import WaveStructure
from repro.dag.store import DagStore

N, F = 4, 1
GENESIS = [genesis_block(a).digest for a in range(N)]

#: LightDAG1's shape: overlapping 3-round waves (first rounds 1, 3, 5, …),
#: support from the next round, f+1 supporters.
LIGHTDAG1 = dict(wave=WaveStructure(3, overlap=True), support_depth=1,
                 support_threshold=F + 1)
#: LightDAG2's shape: PBC-CBC-PBC waves (first rounds 1, 4, 7, …), support
#: from two rounds up, n−f supporters, several blocks per slot allowed.
LIGHTDAG2 = dict(wave=WaveStructure(3), support_depth=2,
                 support_threshold=N - F)


class Harness:
    """A store, a leader table, a committed set and the rule over them."""

    def __init__(self, shape=LIGHTDAG1, strict=True, **rule_kwargs):
        self.store = DagStore(N, strict=strict)
        self.leaders = {}
        self.committed = set()
        self.rule = CommitRule(
            self.store, shape["wave"], self.leaders, self.committed,
            support_depth=shape["support_depth"],
            support_threshold=shape["support_threshold"], **rule_kwargs,
        )
        #: every Commit the rule returned, in order
        self.log = []

    def _take(self, commits):
        for commit in commits:
            self.log.append(commit)
            self.committed.update(b.digest for b in commit.blocks)

    def deliver(self, *blocks):
        for block in blocks:
            assert self.store.add(block)
            self._take(self.rule.block_delivered(block))

    def reveal(self, wave, leader):
        self.leaders[wave] = leader
        self._take(self.rule.leader_known(wave))

    @property
    def leader_sequence(self):
        return [(c.wave, c.leader.digest) for c in self.log]

    @property
    def block_order(self):
        return [b.digest for c in self.log for b in c.blocks]

    @property
    def kinds(self):
        return [(c.wave, c.kind) for c in self.log]


def round_of(round_, parents, authors=range(N)):
    """One block per author, all with the same parents."""
    return [make_block(round_, a, parents) for a in authors]


def digests(blocks):
    return [b.digest for b in blocks]


# ------------------------------------------------------------ direct commit


class TestDirectCommit:
    def test_commits_with_threshold_support_in_section_4b_order(self):
        h = Harness()
        r1 = round_of(1, GENESIS)
        h.reveal(1, 2)
        h.deliver(*r1)
        assert h.log == []
        r2 = round_of(2, digests(r1))
        h.deliver(r2[0])
        assert h.log == []  # one supporter < f+1
        h.deliver(r2[1])
        assert h.kinds == [(1, "direct")]
        # the leader's only non-genesis ancestor is itself
        assert h.block_order == [r1[2].digest]
        assert h.rule.committed_leader_waves == {1}
        assert h.rule.last_settled_wave == 1

    def test_support_counts_authors_not_blocks(self):
        h = Harness()
        r1 = round_of(1, GENESIS)
        h.reveal(1, 0)
        h.deliver(*r1)
        # Only one round-2 block references the leader.
        h.deliver(make_block(2, 0, digests(r1)))
        h.deliver(make_block(2, 1, digests(r1[1:])))
        h.deliver(make_block(2, 2, digests(r1[1:])))
        assert h.rule.support(1, r1[0]) == 1
        assert h.log == []

    def test_leader_revealed_after_support_commits_on_the_reveal(self):
        h = Harness()
        r1 = round_of(1, GENESIS)
        r2 = round_of(2, digests(r1))
        h.deliver(*r1, *r2)
        assert h.log == []
        h.reveal(1, 3)
        assert h.leader_sequence == [(1, r1[3].digest)]

    def test_scope_sorts_by_round_author_and_skips_committed(self):
        h = Harness()
        r1 = round_of(1, GENESIS)
        r2 = round_of(2, digests(r1))
        r3 = round_of(3, digests(r2))
        r4 = round_of(4, digests(r3))
        h.reveal(1, 0)
        h.reveal(2, 1)
        h.deliver(*r1, *r2, *r3, *r4)
        assert h.kinds == [(1, "direct"), (2, "direct")]
        first, second = h.log
        assert digests(first.blocks) == [r1[0].digest]
        assert digests(second.blocks) == digests(r1[1:] + r2 + [r3[1]])

    def test_unknown_and_empty_leader_slots_do_nothing(self):
        h = Harness()
        r1 = round_of(1, GENESIS, authors=[0, 1, 2])
        r2 = round_of(2, digests(r1))
        h.deliver(*r1, *r2)
        h.reveal(1, 3)  # replica 3 never proposed in round 1
        assert h.log == []


# ----------------------------------------------------- cascade (Fig. 5 / 6)


def two_wave_dag(wave1_leader_referenced):
    """Rounds 1-4 where wave 1's leader (author 0) has a single supporter
    (author 0's own round-2 block) and wave 2's leader is author 1 of
    round 3, which does or does not have that supporter as a parent."""
    r1 = round_of(1, GENESIS)
    r2 = [make_block(2, 0, digests(r1))] + round_of(2, digests(r1[1:]), [1, 2, 3])
    r3_parents = digests(r2) if wave1_leader_referenced else digests(r2[1:])
    r3 = round_of(3, r3_parents)
    r4 = round_of(4, digests(r3))
    return r1, r2, r3, r4


class TestCascade:
    def test_fig5_skipped_leader_commits_indirectly_before_its_committer(self):
        h = Harness()
        r1, r2, r3, r4 = two_wave_dag(wave1_leader_referenced=True)
        h.reveal(1, 0)
        h.reveal(2, 1)
        h.deliver(*r1, *r2, *r3, *r4)
        assert h.kinds == [(1, "cascade"), (2, "direct")]
        assert h.leader_sequence == [(1, r1[0].digest), (2, r3[1].digest)]
        assert h.block_order[0] == r1[0].digest
        assert h.block_order[-1] == r3[1].digest
        assert len(set(h.block_order)) == len(h.block_order) == 4 + 4 + 1

    def test_fig6_unreferenced_leader_stays_skipped_for_good(self):
        h = Harness()
        r1, r2, r3, r4 = two_wave_dag(wave1_leader_referenced=False)
        h.reveal(1, 0)
        h.reveal(2, 1)
        h.deliver(*r1, *r2, *r3, *r4)
        assert h.kinds == [(2, "direct")]
        assert r1[0].digest not in h.block_order
        # Wave 1 is settled: rechecking it later changes nothing.
        assert list(h.rule.block_delivered(r2[0])) == []
        assert h.rule.last_settled_wave == 2
        assert h.rule.committed_leader_waves == {2}

    def test_late_coin_defers_the_whole_cascade_until_it_reveals(self):
        h = Harness()
        r1, r2, r3, r4 = two_wave_dag(wave1_leader_referenced=True)
        h.reveal(2, 1)
        h.deliver(*r1, *r2, *r3, *r4)
        # Wave 2 has its support, but whether wave 1's leader goes first
        # cannot be decided before wave 1's coin is known.
        assert h.log == []
        assert h.rule._deferred == {2}
        h.reveal(1, 0)
        assert h.kinds == [(1, "cascade"), (2, "direct")]
        assert h.rule._deferred == set()

    def test_late_coin_of_a_directly_committable_wave_commits_it_first(self):
        h = Harness()
        r1 = round_of(1, GENESIS)
        r2 = round_of(2, digests(r1))
        r3 = round_of(3, digests(r2))
        r4 = round_of(4, digests(r3))
        h.reveal(2, 1)
        h.deliver(*r1, *r2, *r3, *r4)
        assert h.log == []
        h.reveal(1, 0)
        assert h.kinds == [(1, "direct"), (2, "direct")]


    def test_skipped_leader_is_judged_by_the_next_committed_leader_above_it(self):
        """Regression (the rule before it moved here tested every skipped
        leader against the *directly* committed one): wave 1's leader has
        one supporter and is an ancestor of wave 3's leader but not of
        wave 2's.  A replica that commits wave 2 directly skips it; one that
        sees wave 3's support first (a wave-2 supporter arrives late) must
        skip it too, or the two ledgers order round 1 differently."""
        r1 = round_of(1, GENESIS)
        x = make_block(2, 0, digests(r1))  # the leader's only supporter
        r2 = [x] + round_of(2, digests(r1[1:]), [1, 2, 3])
        r3 = [make_block(3, 0, digests([x, r2[1], r2[2]]))]
        r3 += round_of(3, digests(r2[1:]), [1, 2, 3])  # wave 2's leader: r3[1]
        r4 = [
            make_block(4, 0, digests([r3[0], r3[1], r3[2]])),
            make_block(4, 1, digests([r3[0], r3[2], r3[3]])),
            make_block(4, 2, digests([r3[0], r3[2], r3[3]])),
            make_block(4, 3, digests([r3[1], r3[2], r3[3]])),  # arrives late
        ]
        r5 = round_of(5, digests(r4[:3]))
        r6 = round_of(6, digests(r5))

        def replica():
            h = Harness()
            for wave, leader in ((1, 0), (2, 1), (3, 2)):
                h.reveal(wave, leader)
            h.deliver(*r1, *r2, *r3)
            return h

        prompt = replica()
        prompt.deliver(*r4, *r5, *r6)
        laggard = replica()
        laggard.deliver(*r4[:3], *r5, *r6, r4[3])
        assert prompt.kinds == [(2, "direct"), (3, "direct")]
        assert laggard.kinds == [(2, "cascade"), (3, "direct")]
        assert prompt.leader_sequence == laggard.leader_sequence
        assert prompt.block_order == laggard.block_order


# ----------------------------------------------------- equivocated leader slot


class TestEquivocatedLeaderSlot:
    def build(self):
        """LightDAG2 wave 1 where replica 0 equivocates in round 1 and every
        round-2 block references the twin ``b`` (Rule 2 lets delivered CBC
        blocks agree on one of them)."""
        a = make_block(1, 0, GENESIS)
        b = make_block(1, 0, GENESIS, TxBatch(count=1, tx_size=1))
        rest = round_of(1, GENESIS, [1, 2, 3])
        r2 = round_of(2, digests([b] + rest))
        r3 = round_of(3, digests(r2))
        return a, b, rest, r2, r3

    def test_the_supported_candidate_commits_whatever_arrived_first(self):
        for first_twin in (0, 1):
            h = Harness(LIGHTDAG2, strict=False)
            a, b, rest, r2, r3 = self.build()
            h.reveal(1, 0)
            h.deliver(*((a, b) if first_twin == 0 else (b, a)), *rest, *r2)
            h.deliver(*r3[:2])
            assert h.log == []  # two supporters < n-f
            h.deliver(r3[2])
            assert h.leader_sequence == [(1, b.digest)]
            assert a.digest not in h.block_order

    def test_cascade_picks_the_candidate_inside_the_committers_closure(self):
        h = Harness(LIGHTDAG2, strict=False)
        a, b, rest, r2, r3 = self.build()
        # Wave 1 gets only two supporting authors; wave 2 commits directly.
        r4 = round_of(4, digests(r3[:2] + [make_block(3, 3, digests(r2[1:]))]))
        r5 = round_of(5, digests(r4))
        r6 = round_of(6, digests(r5))
        h.reveal(1, 0)
        h.reveal(2, 2)
        h.deliver(a, b, *rest, *r2, *r3[:2], *r4, *r5, *r6)
        assert h.kinds == [(1, "cascade"), (2, "direct")]
        assert h.leader_sequence[0] == (1, b.digest)
        assert a.digest not in h.block_order


# ------------------------------------------------------------------ gc_depth


class TestGcDepth:
    def chain(self, rounds):
        layers = [round_of(1, GENESIS)]
        for r in range(2, rounds + 1):
            layers.append(round_of(r, digests(layers[-1])))
        return layers

    def first_commit_is_wave_four(self, **rule_kwargs):
        """Eight rounds in which wave 4's leader (round 7) is the first to
        commit: the leaders of waves 1-3 are known but withheld."""
        h = Harness(**rule_kwargs)
        h.reveal(4, 0)
        for w in (1, 2, 3):
            h.leaders[w] = 3
        for layer in self.chain(8):
            h.deliver(*(b for b in layer if not (b.round in (1, 3, 5) and b.author == 3)))
        assert h.kinds == [(4, "direct")]
        return {b.round for b in h.log[0].blocks}

    def test_scope_stops_at_the_deterministic_floor(self):
        assert self.first_commit_is_wave_four(gc_depth=4) == set(range(7 - 4, 8))

    def test_without_gc_depth_the_whole_uncommitted_ancestry_commits(self):
        assert self.first_commit_is_wave_four() == set(range(1, 8))

    def test_forget_settled_keeps_the_frontier_wave(self):
        layers = self.chain(8)
        h = Harness()
        for w in (1, 2, 3):
            h.reveal(w, 0)
        for layer in layers:
            h.deliver(*layer)
        assert h.rule.last_settled_wave == 3
        h.rule.forget_settled()
        assert sorted(h.leaders) == [3]
        assert h.rule.committed_leader_waves == {3}


# ------------------------------------------------------------------- mutants


class TestMutantParameterisations:
    def test_threshold_one_commits_on_a_single_supporter(self):
        h = Harness({**LIGHTDAG1, "support_threshold": 1})
        r1 = round_of(1, GENESIS)
        h.reveal(1, 0)
        h.deliver(*r1, make_block(2, 0, digests(r1)))
        assert h.kinds == [(1, "direct")]

    def test_cascade_off_never_commits_a_skipped_leader(self):
        h = Harness(cascade=False)
        r1, r2, r3, r4 = two_wave_dag(wave1_leader_referenced=True)
        h.reveal(1, 0)
        h.reveal(2, 1)
        h.deliver(*r1, *r2, *r3, *r4)
        assert h.kinds == [(2, "direct")]

    def test_mutants_are_lightdag1_with_one_rule_parameter_changed(self):
        """The registry's mutants re-parameterize the rule and define
        nothing else; tests/check holds the oracles that catch them."""
        from ..conftest import FakeNet
        from repro.config import ProtocolConfig, SystemConfig
        from repro.crypto.keys import TrustedDealer

        system = SystemConfig(n=N, crypto="hmac", seed=0)
        chains = TrustedDealer(system).deal()

        def rule_of(cls):
            rule = cls(FakeNet(0, N), system, ProtocolConfig(), chains[0]).commit
            return rule.support_depth, rule.support_threshold, rule.cascade

        assert rule_of(LightDag1Node) == (1, 2, True)
        assert rule_of(MUTANT_REGISTRY["lightdag1-unsafe-support"]) == (1, 1, True)
        assert rule_of(MUTANT_REGISTRY["lightdag1-no-cascade"]) == (1, 2, False)
        for cls in MUTANT_REGISTRY.values():
            assert [k for k, v in vars(cls).items() if callable(v)] == ["__init__"]


# ------------------------------------------------- order independence (property)


@st.composite
def dag_and_two_orders(draw, shape, equivocate):
    """A quorum-respecting DAG (every block references ≥ n−f slots of the
    previous round), a leader per wave, and two causally valid schedules of
    the same deliver/reveal events.

    Each round has a *slow* slot most of the next round leaves out — what
    asynchrony does to a replica whose block misses the n−f cut — because
    skipped and barely-referenced leaders are where cascades disagree."""
    wave = shape["wave"]
    rounds = draw(st.integers(min_value=4, max_value=9))
    layers = [[genesis_block(a) for a in range(N)]]
    events, deps = [], {}
    for r in range(1, rounds + 1):
        previous = {}
        for block in layers[-1]:
            previous.setdefault(block.author, block)  # twins: children agree
        slots = sorted(previous)
        slow = draw(st.sampled_from(slots))
        authors = draw(st.lists(st.integers(0, N - 1), min_size=N - F,
                                max_size=N, unique=True))
        layer = []
        for author in sorted(authors):
            skipped = draw(st.sampled_from([slow, slow, None] + slots))
            kept = [s for s in slots if s != skipped or len(slots) == N - F]
            parents = [previous[s] for s in kept]
            twins = 2 if equivocate and wave.wave_of_first_round(r) and draw(
                st.booleans()) else 1
            for j in range(twins):
                block = make_block(r, author, digests(parents),
                                   TxBatch(count=j, tx_size=1))
                layer.append(block)
                events.append(("deliver", block))
                deps[block.digest] = {p.digest for p in parents if p.round > 0}
        layers.append(layer)
    last_wave = max(w for w in range(1, rounds + 1) if wave.first_round(w) <= rounds)
    for w in range(1, last_wave + 1):
        events.append(("reveal", (w, draw(st.integers(0, N - 1)))))

    def schedule():
        pending = list(draw(st.permutations(events)))
        done, order = set(), []
        while pending:
            for event in pending:
                kind, what = event
                if kind == "reveal" or deps[what.digest] <= done:
                    break
            pending.remove(event)
            order.append(event)
            if kind == "deliver":
                done.add(what.digest)
        return order

    return schedule(), schedule()


def play(shape, strict, order):
    h = Harness(shape, strict=strict)
    for kind, what in order:
        if kind == "deliver":
            h.deliver(what)
        else:
            h.reveal(*what)
    return h


class TestOrderIndependence:
    """Same blocks, same reveals ⇒ same ledger, in any causal order — the
    "same DAG prefix ⇒ same output" form of cross-replica agreement."""

    @settings(max_examples=150, deadline=None)
    @given(dag_and_two_orders(LIGHTDAG1, equivocate=False))
    def test_strict_store_lightdag1_shape(self, orders):
        a, b = (play(LIGHTDAG1, True, order) for order in orders)
        assert a.leader_sequence == b.leader_sequence
        assert a.block_order == b.block_order

    @settings(max_examples=150, deadline=None)
    @given(dag_and_two_orders(LIGHTDAG2, equivocate=True))
    def test_permissive_store_lightdag2_shape_with_equivocated_slots(self, orders):
        a, b = (play(LIGHTDAG2, False, order) for order in orders)
        assert a.leader_sequence == b.leader_sequence
        assert a.block_order == b.block_order


# ------------------------------------------------------------ import boundary


def test_commit_module_sees_only_the_dag():
    """The seam: ordering may read the DAG and hash types, nothing else —
    no network, broadcast, observability, coin or config."""
    allowed = ("repro.dag", "repro.crypto.hashing")
    tree = ast.parse(Path(commit_module.__file__).read_text())
    package = commit_module.__package__.split(".")  # ["repro", "core"]
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            imported.append(".".join(base + ([node.module] if node.module else [])))
    for name in imported:
        top = name.split(".")[0]
        if top == "repro":
            assert name.startswith(allowed), name
        else:
            assert top in sys.stdlib_module_names, name
    assert any(name.startswith("repro.dag") for name in imported)
