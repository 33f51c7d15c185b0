"""Tests for repro.workload.metrics: throughput/latency accounting."""

import math
from array import array

import pytest

from repro.dag.block import TxBatch, make_block
from repro.dag.ledger import CommitRecord
from repro.workload.metrics import LatencyStats, MetricsCollector, percentile


def record(round_, author, commit_time, count=10, submitted_at=0.0, j=0):
    block = make_block(
        round_, author, [],
        payload=TxBatch(count, 128, submit_time_sum=count * submitted_at,
                        sample=(submitted_at,)),
        repropose_index=j,
    )
    return CommitRecord(
        position=0, block=block, commit_time=commit_time, via_leader=b"L",
        leader_index=0,
    )


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_single_value(self):
        assert percentile([3.0], 0.9) == 3.0

    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5

    def test_extremes(self):
        data = [1.0, 5.0, 9.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 1.0) == 9.0


class TestLatencyStats:
    def test_mean(self):
        stats = LatencyStats()
        stats.add(10, 5.0, [0.5])
        stats.add(10, 15.0, [1.5])
        assert stats.mean == pytest.approx(1.0)

    def test_empty_mean_nan(self):
        assert math.isnan(LatencyStats().mean)

    def test_quantile(self):
        stats = LatencyStats()
        stats.add(1, 1.0, [1.0, 2.0, 3.0])
        assert stats.quantile(0.5) == 2.0

    def test_samples_are_unboxed_and_exact(self):
        """Samples are stored as C doubles, which hold a Python float
        exactly: every quantile equals the one over a plain list."""
        values = [0.1 * k + 1e-9 * (k % 7) for k in range(1, 200)]
        stats = LatencyStats()
        stats.add(len(values), sum(values), iter(values))
        assert isinstance(stats.samples, array) and stats.samples.typecode == "d"
        assert list(stats.samples) == values
        for q in (0.0, 0.05, 0.5, 0.95, 0.99, 1.0):
            assert stats.quantile(q) == percentile(sorted(values), q)


class TestCollector:
    def test_basic_accounting(self):
        collector = MetricsCollector(warmup=0.0)
        cb = collector.callback_for(0)
        cb(record(1, 0, commit_time=2.0, count=10, submitted_at=1.0))
        assert collector.total_committed_txs() == 10
        assert collector.mean_latency() == pytest.approx(1.0)

    def test_warmup_excluded(self):
        collector = MetricsCollector(warmup=5.0)
        cb = collector.callback_for(0)
        cb(record(1, 0, commit_time=2.0))
        assert collector.total_committed_txs() == 0
        cb(record(2, 0, commit_time=6.0))
        assert collector.total_committed_txs() == 10

    def test_measure_until_excluded(self):
        collector = MetricsCollector(warmup=0.0, measure_until=10.0)
        cb = collector.callback_for(0)
        cb(record(1, 0, commit_time=11.0))
        assert collector.total_committed_txs() == 0

    def test_slot_dedup_for_reproposals(self):
        """Original + reproposal carry the same payload: count once."""
        collector = MetricsCollector()
        cb = collector.callback_for(0)
        cb(record(2, 0, commit_time=1.0, j=0))
        cb(record(2, 0, commit_time=1.5, j=1))
        assert collector.total_committed_txs() == 10

    def test_warmup_commit_still_marks_slot(self):
        collector = MetricsCollector(warmup=5.0)
        cb = collector.callback_for(0)
        cb(record(2, 0, commit_time=4.0, j=0))   # warmup
        cb(record(2, 0, commit_time=6.0, j=1))   # duplicate after warmup
        assert collector.total_committed_txs() == 0

    def test_empty_payload_blocks_counted_as_blocks_only(self):
        collector = MetricsCollector()
        cb = collector.callback_for(0)
        cb(record(1, 0, commit_time=1.0, count=0))
        assert collector.total_committed_txs() == 0
        assert collector.nodes[0].committed_blocks == 1

    def test_throughput_mean_across_nodes(self):
        collector = MetricsCollector()
        collector.callback_for(0)(record(1, 0, commit_time=1.0, count=100))
        collector.callback_for(1)(record(1, 0, commit_time=1.0, count=100))
        # Each node saw 100 txs over a 10s window: mean is 10 TPS, not 20.
        assert collector.throughput(10.0) == pytest.approx(10.0)

    def test_throughput_zero_duration(self):
        assert MetricsCollector().throughput(0.0) == 0.0

    def test_mean_latency_empty_nan(self):
        assert math.isnan(MetricsCollector().mean_latency())

    def test_quantiles_across_nodes(self):
        collector = MetricsCollector()
        collector.callback_for(0)(record(1, 0, 2.0, submitted_at=1.0))
        collector.callback_for(1)(record(1, 1, 4.0, submitted_at=1.0))
        assert collector.latency_quantile(1.0) == pytest.approx(3.0)

    def test_min_node_committed(self):
        collector = MetricsCollector()
        collector.callback_for(0)(record(1, 0, 1.0, count=50))
        collector.callback_for(1)  # registered but commits nothing
        assert collector.min_node_committed_txs() == 0

    def test_idle_registered_node_drags_throughput_mean(self):
        """A crashed/stalled replica must pull the mean TPS down, not
        silently drop out of the denominator."""
        collector = MetricsCollector()
        collector.callback_for(0)(record(1, 0, 1.0, count=100))
        collector.callback_for(1)  # registered, never commits
        assert collector.throughput(10.0) == pytest.approx(5.0)

    def test_no_nodes_throughput_zero(self):
        assert MetricsCollector().throughput(10.0) == 0.0

    def test_measure_until_straddling_reproposal(self):
        """A commit past the cutoff is ignored entirely — it must not mark
        the slot and shadow an earlier in-window commit... but commits are
        time-ordered, so the real hazard is the reverse: the in-window
        original counts, the post-cutoff reproposal does not."""
        collector = MetricsCollector(warmup=0.0, measure_until=10.0)
        cb = collector.callback_for(0)
        cb(record(2, 0, commit_time=9.0, j=0))
        cb(record(2, 0, commit_time=11.0, j=1))
        assert collector.total_committed_txs() == 10

    def test_callback_for_same_node_accumulates(self):
        collector = MetricsCollector()
        collector.callback_for(0)(record(1, 0, 1.0))
        collector.callback_for(0)(record(2, 0, 2.0))
        assert len(collector.nodes) == 1
        assert collector.nodes[0].committed_blocks == 2

    def test_latency_quantile_empty_nan(self):
        assert math.isnan(MetricsCollector().latency_quantile(0.5))

    def test_first_last_commit_times(self):
        collector = MetricsCollector(warmup=1.0)
        cb = collector.callback_for(0)
        cb(record(1, 0, commit_time=0.5))   # warmup — not recorded
        cb(record(2, 0, commit_time=2.0))
        cb(record(3, 0, commit_time=4.0))
        assert collector.nodes[0].first_commit_time == 2.0
        assert collector.nodes[0].last_commit_time == 4.0
