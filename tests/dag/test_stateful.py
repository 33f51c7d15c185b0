"""Hypothesis stateful testing of the DagStore + Ledger pair.

A rule-based machine grows a random-but-valid DAG (honest proposals and
occasional equivocations), commits random leaders, and checks the
structural invariants after every step:

* slot indexes and digest indexes agree;
* per-round author counts equal the distinct slots filled;
* committed positions are unique, dense, and monotone in commit time;
* commit batches partition the DAG (no block committed twice);
* pruning never touches retained rounds or committed bookkeeping;
* the ledger keeps every committed block's header fields and payload
  count after the store has pruned the block.
"""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.dag.block import TxBatch, genesis_block, make_block
from repro.dag.ledger import Ledger
from repro.dag.store import DagStore
from repro.dag.traversal import uncommitted_ancestors

N = 4


class DagMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = DagStore(n=N, strict=False)
        self.ledger = Ledger()
        self.top_round = 0
        self.block_count = N  # genesis
        self.pruned_below = 1
        #: digest -> (round, author, parents, tx count) of every commit
        self.committed_headers = {}

    # -- growth rules -----------------------------------------------------------

    @rule(authors=st.sets(st.integers(min_value=0, max_value=N - 1), min_size=3))
    def grow_round(self, authors):
        round_ = self.top_round + 1
        parents = [
            self.store.block_in_slot(self.top_round, a).digest
            for a in sorted(self.store.authors_in_round(self.top_round))
        ]
        if len(parents) < 3:
            return
        for author in sorted(authors):
            block = make_block(round_, author, parents, payload=TxBatch(author, 8))
            self.store.add(block)
            self.block_count += 1
        self.top_round = round_

    @rule(author=st.integers(min_value=0, max_value=N - 1),
          j=st.integers(min_value=1, max_value=3))
    @precondition(lambda self: self.top_round >= 1)
    def equivocate(self, author, j):
        """Add a twin block in an existing slot (permissive store)."""
        parents = [
            self.store.block_in_slot(self.top_round - 1, a).digest
            for a in sorted(self.store.authors_in_round(self.top_round - 1))
        ]
        if len(parents) < 3:
            return
        block = make_block(self.top_round, author, parents, repropose_index=j)
        if self.store.add(block):
            self.block_count += 1

    # -- commit rule --------------------------------------------------------------

    @rule(author=st.integers(min_value=0, max_value=N - 1))
    @precondition(lambda self: self.top_round >= 2)
    def commit_leader(self, author):
        leader = self.store.block_in_slot(self.top_round - 1, author)
        if leader is None or leader.digest in self.ledger:
            return
        k = self.ledger.begin_leader()
        for block in uncommitted_ancestors(
            leader, self.store, self.ledger.committed_digests
        ):
            if block.round < self.pruned_below:
                continue
            self.ledger.append(block, float(self.top_round), leader.digest, k)
            self.committed_headers[block.digest] = (
                block.round, block.author, block.parents, block.payload.count
            )

    # -- gc rule -------------------------------------------------------------------

    @rule()
    @precondition(lambda self: self.top_round >= 6)
    def prune_old_history(self):
        horizon = self.top_round - 4
        removed = self.store.prune_below(horizon)
        self.block_count -= removed
        self.pruned_below = max(self.pruned_below, horizon)

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def indexes_agree(self):
        total = 0
        for round_ in range(0, self.top_round + 1):
            if round_ and round_ < self.pruned_below:
                assert self.store.round_author_count(round_) == 0
                continue
            for author in self.store.authors_in_round(round_):
                blocks = self.store.blocks_in_slot(round_, author)
                assert blocks, (round_, author)
                for block in blocks:
                    assert self.store.get(block.digest) is block
                total += len(blocks)
        assert total == self.block_count

    @invariant()
    def ledger_positions_dense_and_unique(self):
        positions = [record.position for record in self.ledger]
        assert positions == list(range(len(self.ledger)))
        digests = self.ledger.digest_sequence()
        assert len(digests) == len(set(digests))

    @invariant()
    def ledger_keeps_headers_not_blocks(self):
        for record in self.ledger:
            assert self.committed_headers[record.digest] == (
                record.round, record.author, record.parents, record.count
            )
        assert self.ledger.total_transactions() == sum(
            header[3] for header in self.committed_headers.values()
        )

    @invariant()
    def commit_times_monotone(self):
        times = [record.commit_time for record in self.ledger]
        assert times == sorted(times)


TestDagMachine = DagMachine.TestCase
TestDagMachine.settings = __import__("hypothesis").settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
