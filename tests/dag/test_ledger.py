"""Tests for repro.dag.ledger: total order, positions, safety checking."""

import pytest

from repro.dag.block import Block, TxBatch, make_block
from repro.dag.ledger import CommitRecord, Ledger, LedgerEntry, check_prefix_consistency
from repro.errors import ProtocolError


def block_at(round_, author, txs=0):
    return make_block(round_, author, [], payload=TxBatch(txs, 128))


class TestAppend:
    def test_positions_increment(self):
        ledger = Ledger()
        k = ledger.begin_leader()
        r0 = ledger.append(block_at(1, 0), 1.0, b"L", k)
        r1 = ledger.append(block_at(1, 1), 1.0, b"L", k)
        assert (r0.position, r1.position) == (0, 1)

    def test_double_commit_rejected(self):
        ledger = Ledger()
        k = ledger.begin_leader()
        block = block_at(1, 0)
        ledger.append(block, 1.0, b"L", k)
        with pytest.raises(ProtocolError):
            ledger.append(block, 2.0, b"L", k)

    def test_membership(self):
        ledger = Ledger()
        block = block_at(1, 0)
        assert block.digest not in ledger
        ledger.append(block, 1.0, b"L", ledger.begin_leader())
        assert block.digest in ledger

    def test_leader_indices(self):
        ledger = Ledger()
        assert ledger.begin_leader() == 0
        assert ledger.begin_leader() == 1
        assert ledger.leader_count == 2

    def test_record_metadata(self):
        ledger = Ledger()
        k = ledger.begin_leader()
        block = block_at(2, 3)
        record = ledger.append(block, 5.5, b"LEAD", k)
        assert isinstance(record, CommitRecord) and record.block is block
        assert record.commit_time == 5.5
        assert record.via_leader == b"LEAD"
        assert record.leader_index == k

    def test_entry_keeps_the_header_not_the_block(self):
        ledger = Ledger()
        k = ledger.begin_leader()
        block = make_block(3, 2, [b"p" * 32, b"q" * 32], payload=TxBatch(7, 128))
        ledger.append(block, 4.0, b"LEAD", k)
        entry = ledger.record_at(0)
        assert isinstance(entry, LedgerEntry)
        assert not hasattr(entry, "__dict__")
        assert (entry.position, entry.commit_time, entry.via_leader,
                entry.leader_index) == (0, 4.0, b"LEAD", k)
        assert (entry.digest, entry.round, entry.author, entry.parents,
                entry.signature, entry.count) == (
            block.digest, 3, 2, block.parents, block.signature, 7)
        assert not any(isinstance(value, (Block, TxBatch)) for value in entry)

    def test_columns_hold_numbers_unboxed_and_headers_by_reference(self):
        ledger = Ledger()
        k = ledger.begin_leader()
        block = make_block(3, 2, [b"p" * 32], payload=TxBatch(7, 128))
        ledger.append(block, 4.0, b"LEAD", k)
        cols = ledger.columns
        assert [cols.commit_time.typecode, cols.round.typecode,
                cols.author.typecode, cols.count.typecode,
                cols.leader_index.typecode] == ["d", "i", "i", "i", "i"]
        assert cols.digest[0] is block.digest
        assert cols.parents[0] is block.parents
        assert cols.signature[0] is block.signature

    def test_positions_are_dense_by_construction(self):
        """The position is the column index: ``append`` takes none, so a
        gap or a repeat cannot be written."""
        ledger = Ledger()
        k = ledger.begin_leader()
        records = [ledger.append(block_at(1, a), 1.0, b"L", k) for a in range(4)]
        assert [r.position for r in records] == [0, 1, 2, 3]
        assert [e.position for e in ledger] == [0, 1, 2, 3]
        assert {len(column) for column in ledger.columns} == {4}


class TestShedding:
    def make_ledger(self, rounds):
        ledger = Ledger()
        k = ledger.begin_leader()
        blocks = [block_at(r, a) for a, r in enumerate(rounds)]
        for block in blocks:
            ledger.append(block, 1.0, b"L", k)
        return ledger, blocks

    def test_sheds_digests_below_the_horizon_in_place(self):
        # Positions are only roughly round-ordered.
        ledger, blocks = self.make_ledger([1, 2, 4, 3, 5, 2, 6])
        view = ledger.committed_digests
        ledger.shed_below(4)
        assert ledger.committed_digests is view
        assert {b.round for b in blocks if b.digest in view} == {4, 5, 6}
        # Only the set forgets: the columns keep every position.
        assert ledger.digest_sequence() == [b.digest for b in blocks]
        ledger.shed_below(6)
        assert [b.round for b in blocks if b.digest in ledger] == [6]

    def test_append_refuses_below_the_shed_horizon(self):
        ledger, blocks = self.make_ledger([1, 2, 5])
        ledger.shed_below(4)
        assert ledger.shed_horizon == 4
        # A double commit of a shed block is refused, not re-appended.
        with pytest.raises(ProtocolError, match="below the ledger's shed horizon 4"):
            ledger.append(blocks[0], 2.0, b"L", 0)
        with pytest.raises(ProtocolError, match="shed horizon"):
            ledger.append(block_at(3, 9), 2.0, b"L", 0)
        with pytest.raises(ProtocolError, match="committed twice"):
            ledger.append(blocks[2], 2.0, b"L", 0)
        ledger.append(block_at(4, 9), 2.0, b"L", 0)
        assert len(ledger) == 4

    def test_a_lower_horizon_is_a_no_op(self):
        ledger, blocks = self.make_ledger([1, 2, 3])
        ledger.shed_below(3)
        ledger.shed_below(2)
        assert ledger.shed_horizon == 3
        assert [b.digest in ledger for b in blocks] == [False, False, True]


class TestQueries:
    def test_iteration_and_len(self):
        ledger = Ledger()
        k = ledger.begin_leader()
        for i in range(3):
            ledger.append(block_at(1, i), 1.0, b"L", k)
        assert len(ledger) == 3
        assert [r.position for r in ledger] == [0, 1, 2]

    def test_record_at_and_last(self):
        ledger = Ledger()
        k = ledger.begin_leader()
        assert ledger.last() is None
        ledger.append(block_at(1, 0), 1.0, b"L", k)
        rec = ledger.append(block_at(1, 1), 2.0, b"L", k)
        assert ledger.last().digest == rec.block.digest
        assert ledger.last().commit_time == 2.0
        assert ledger.record_at(0).author == 0

    def test_total_transactions(self):
        ledger = Ledger()
        k = ledger.begin_leader()
        ledger.append(block_at(1, 0, txs=10), 1.0, b"L", k)
        ledger.append(block_at(1, 1, txs=5), 1.0, b"L", k)
        assert ledger.total_transactions() == 15

    def test_digest_sequence(self):
        ledger = Ledger()
        k = ledger.begin_leader()
        blocks = [block_at(1, i) for i in range(3)]
        for b in blocks:
            ledger.append(b, 1.0, b"L", k)
        assert ledger.digest_sequence() == [b.digest for b in blocks]


class TestPrefixConsistency:
    def make_ledger(self, blocks):
        ledger = Ledger()
        k = ledger.begin_leader()
        for b in blocks:
            ledger.append(b, 1.0, b"L", k)
        return ledger

    def test_identical_ledgers_pass(self):
        blocks = [block_at(1, i) for i in range(3)]
        check_prefix_consistency([self.make_ledger(blocks), self.make_ledger(blocks)])

    def test_prefix_relationship_passes(self):
        blocks = [block_at(1, i) for i in range(4)]
        check_prefix_consistency(
            [self.make_ledger(blocks), self.make_ledger(blocks[:2])]
        )

    def test_divergence_detected(self):
        a = self.make_ledger([block_at(1, 0), block_at(1, 1)])
        b = self.make_ledger([block_at(1, 0), block_at(1, 2)])
        with pytest.raises(ProtocolError, match="position 1"):
            check_prefix_consistency([a, b])

    def test_empty_ledgers_pass(self):
        check_prefix_consistency([Ledger(), Ledger()])

    def test_three_way_divergence_located(self):
        a = self.make_ledger([block_at(1, 0)])
        b = self.make_ledger([block_at(1, 0)])
        c = self.make_ledger([block_at(1, 3)])
        with pytest.raises(ProtocolError):
            check_prefix_consistency([a, b, c])

    def test_matches_all_pairs_reference(self):
        """The O(R·L) longest-reference check must accept/reject exactly the
        same ledger families as the naive O(R²·L) all-pairs scan it
        replaced."""
        import random

        def pairwise_consistent(ledgers):
            seqs = [l.digest_sequence() for l in ledgers]
            for i in range(len(seqs)):
                for j in range(i + 1, len(seqs)):
                    shared = min(len(seqs[i]), len(seqs[j]))
                    if seqs[i][:shared] != seqs[j][:shared]:
                        return False
            return True

        rng = random.Random(42)
        pool = [block_at(1, a) for a in range(4)] + [
            block_at(r, a) for r in (2, 3) for a in range(4)
        ]
        for trial in range(60):
            canonical = rng.sample(pool, rng.randint(0, len(pool)))
            family = []
            for _ in range(rng.randint(2, 5)):
                cut = rng.randint(0, len(canonical))
                blocks = list(canonical[:cut])
                if rng.random() < 0.3:  # sometimes fork the tail
                    extra = [b for b in pool if b not in blocks]
                    rng.shuffle(extra)
                    blocks += extra[: rng.randint(0, 2)]
                family.append(self.make_ledger(blocks))
            expected_ok = pairwise_consistent(family)
            if expected_ok:
                check_prefix_consistency(family)
            else:
                with pytest.raises(ProtocolError):
                    check_prefix_consistency(family)
