"""Tests for repro.obs.registry: instruments, series, null twin."""

import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


class TestCounter:
    def test_inc_default_and_amount(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_summary(self):
        c = Counter()
        c.inc(2)
        assert c.summary() == {"value": 2.0}


class TestGauge:
    def test_set_and_add(self):
        g = Gauge()
        g.set(3.0)
        g.add(-1.0)
        assert g.value == 2.0


class TestHistogram:
    def test_counts_sum_minmax(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.5):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(0.503)
        assert h.min == pytest.approx(0.001)
        assert h.max == pytest.approx(0.5)

    def test_bucket_assignment(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(0.5)   # <= 1.0
        h.observe(1.5)   # <= 2.0
        h.observe(99.0)  # overflow
        assert h.bucket_counts == [1, 1, 1]

    def test_boundary_value_is_inclusive(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_counts == [1, 0, 0]

    def test_empty_quantile_nan(self):
        assert math.isnan(Histogram().quantile(0.5))

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram(buckets=(1.0, 2.0))
        for _ in range(4):
            h.observe(1.5)  # all in the (1.0, 2.0] bucket
        # Median interpolates halfway through the bucket's span.
        assert h.quantile(0.5) == pytest.approx(1.5)

    def test_quantile_overflow_returns_max(self):
        h = Histogram(buckets=(1.0,))
        h.observe(50.0)
        assert h.quantile(0.99) == pytest.approx(50.0)

    def test_mean_empty_nan(self):
        assert math.isnan(Histogram().mean)

    def test_summary_keys(self):
        h = Histogram()
        h.observe(0.1)
        summary = h.summary()
        assert set(summary) == {"count", "sum", "mean", "min", "max", "p50", "p95"}

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_labels_split_series(self):
        reg = MetricsRegistry()
        reg.counter("net.sent", type="Val").inc()
        reg.counter("net.sent", type="Echo").inc(2)
        assert reg.counter("net.sent", type="Val").value == 1
        assert reg.counter_total("net.sent") == 3
        assert len(reg) == 2

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.counter("m", a=1, b=2) is reg.counter("m", b=2, a=1)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_series_sorted_by_name_then_labels(self):
        reg = MetricsRegistry()
        reg.counter("b", z=1)
        reg.counter("b", a=1)
        reg.counter("a")
        names = [(name, tuple(labels.items())) for name, _, labels, _ in reg.series()]
        assert names == sorted(names)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("hits", node=0).inc(7)
        reg.histogram("wait").observe(0.01)
        snap = reg.snapshot()
        assert snap[0] == {
            "name": "hits", "kind": "counter", "labels": {"node": "0"},
            "value": 7.0,
        }
        assert snap[1]["name"] == "wait" and snap[1]["count"] == 1

    def test_counter_total_absent_is_zero(self):
        assert MetricsRegistry().counter_total("nope") == 0.0

    def test_custom_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("steps", buckets=(1.0, 3.0, 9.0))
        assert h.buckets == (1.0, 3.0, 9.0)
        assert reg.histogram("steps") is h

    def test_enabled_flag(self):
        assert MetricsRegistry().enabled is True


class TestHistogramBulkAndZeros:
    def test_observe_bulk_empty_is_noop(self):
        h = Histogram()
        h.observe_bulk([])
        assert h.count == 0
        assert math.isnan(h.quantile(0.5))

    def test_observe_bulk_single_observation(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe_bulk([1.5])
        assert h.count == 1
        assert h.min == h.max == pytest.approx(1.5)
        assert h.bucket_counts == [0, 1, 0]

    def test_observe_bulk_all_overflow(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe_bulk([10.0, 20.0, 30.0])
        assert h.bucket_counts == [0, 0, 3]
        # Overflow-only quantiles fall back to the exact max.
        assert h.quantile(0.5) == pytest.approx(30.0)

    def test_observe_bulk_matches_per_value_observe(self):
        values = [0.0005, 0.003, 0.003, 0.7, 42.0]
        bulk, serial = Histogram(), Histogram()
        bulk.observe_bulk(values)
        for v in values:
            serial.observe(v)
        assert bulk.bucket_counts == serial.bucket_counts
        assert bulk.count == serial.count
        assert bulk.total == pytest.approx(serial.total)
        assert (bulk.min, bulk.max) == (serial.min, serial.max)

    def test_observe_zeros_counts_and_bounds(self):
        h = Histogram(buckets=(1.0,))
        h.observe(2.0)
        h.observe_zeros(3)
        assert h.count == 4
        assert h.min == 0.0 and h.max == 2.0
        assert h.bucket_counts == [3, 1]

    def test_quantile_single_observation(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.5)
        # One sample: every quantile interpolates inside its bucket.
        assert 1.0 <= h.quantile(0.01) <= 2.0
        assert 1.0 <= h.quantile(0.99) <= 2.0


class TestNullHistogramStaysInert:
    def test_observe_zeros_does_not_mutate_shared_singleton(self):
        reg = NullRegistry()
        h = reg.histogram("h")
        h.observe_zeros(5)
        assert h.count == 0
        assert h.bucket_counts == [0] * (len(h.buckets) + 1)
        assert h.min == math.inf and h.max == -math.inf
        # The same singleton serves every name — it must stay pristine.
        assert reg.histogram("other").count == 0


class TestNullRegistry:
    def test_disabled(self):
        assert NullRegistry().enabled is False

    def test_instruments_shared_and_inert(self):
        reg = NullRegistry()
        c = reg.counter("a", x=1)
        assert c is reg.counter("b", y=2)
        c.inc(100)
        assert c.value == 0.0
        g = reg.gauge("g")
        g.set(5)
        g.add(5)
        assert g.value == 0.0
        h = reg.histogram("h")
        h.observe(1.0)
        assert h.count == 0

    def test_records_no_series(self):
        reg = NullRegistry()
        reg.counter("a").inc()
        assert len(reg) == 0
        assert reg.snapshot() == []
