"""Zero-dependency metrics registry: counters, gauges, histograms.

Design constraints (ROADMAP: hot-path-fast; ISSUE: off-by-default-cheap):

* **Labeled series** — a metric name plus a label set identifies one time
  series, Prometheus-style: ``registry.counter("net.messages_sent",
  type="BlockVal")``.  Lookups are dict hits; callers on hot paths should
  hold on to the returned instrument instead of re-resolving it per event
  (see ``Simulation._obs_msg_counters`` for the caching idiom).
* **No-op twin** — :class:`NullRegistry` hands out shared do-nothing
  instruments so uninstrumented code paths cost one attribute read and a
  branch.  ``registry.enabled`` lets hot loops skip even that bookkeeping.
* **Determinism** — iteration and snapshots are sorted by (name, labels),
  so two runs of the same seed export byte-identical text.

Histograms use fixed log-spaced buckets (seconds-oriented by default)
plus exact count/sum/min/max; quantiles are bucket-interpolated, which is
what a production scrape would give you.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram buckets — log-spaced upper bounds in seconds, spanning
#: sub-millisecond NIC waits to multi-second ordering stalls.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _SharedSink:
    """Mixin marking observability objects as process-wide shared sinks.

    Instruments, registries, and journals are *channels*, not
    simulation state: protocol objects hold direct references to them
    (``self._ctr_x = obs.metrics.counter(...)``), and a snapshot/restore
    cycle (:class:`repro.net.snapshot.SimulatorSnapshot`) must keep every
    holder pointed at the one live sink rather than forking private copies
    per branch — forked copies would silently swallow telemetry after a
    restore.  Copy protocols therefore return ``self``.
    """

    __slots__ = ()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Counter(_SharedSink):
    """Monotonically increasing value."""

    __slots__ = ("value",)
    KIND = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def summary(self) -> Dict[str, float]:
        return {"value": self.value}


class Gauge(_SharedSink):
    """Point-in-time value (set or adjusted)."""

    __slots__ = ("value",)
    KIND = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def summary(self) -> Dict[str, float]:
        return {"value": self.value}


class Histogram(_SharedSink):
    """Fixed-bucket distribution with exact count/sum/min/max."""

    __slots__ = ("buckets", "bucket_counts", "count", "total", "min", "max")
    KIND = "histogram"

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # last = +Inf overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # bisect_left finds the first bucket with upper >= value (buckets
        # are inclusive upper bounds); past-the-end is the +Inf overflow.
        self.bucket_counts[bisect_left(self.buckets, value)] += 1

    def observe_bulk(self, values: Sequence[float]) -> None:
        """Fold many observations in at once.

        Equivalent to calling :meth:`observe` per value but amortized:
        sort once (C), then one ``bisect_right`` per *bucket* instead of
        one per *value*.  Hot loops stage raw floats in a plain list and
        flush through here (see ``Simulation._obs_flush``).
        """
        if not values:
            return
        ordered = sorted(values)
        n = len(ordered)
        self.count += n
        self.total += sum(ordered)
        if ordered[0] < self.min:
            self.min = ordered[0]
        if ordered[-1] > self.max:
            self.max = ordered[-1]
        prev = 0
        for i, upper in enumerate(self.buckets):
            idx = bisect_right(ordered, upper)
            self.bucket_counts[i] += idx - prev
            prev = idx
        self.bucket_counts[-1] += n - prev

    def observe_zeros(self, n: int) -> None:
        """Fold in ``n`` zero-valued observations (the idle-queue case,
        common enough that hot loops count it as a plain int)."""
        self.count += n
        if 0.0 < self.min:
            self.min = 0.0
        if 0.0 > self.max:
            self.max = 0.0
        self.bucket_counts[bisect_left(self.buckets, 0.0)] += n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile (q in [0, 1]); NaN when empty."""
        if not self.count:
            return math.nan
        target = q * self.count
        seen = 0
        lower = 0.0
        for i, upper in enumerate(self.buckets):
            in_bucket = self.bucket_counts[i]
            if seen + in_bucket >= target:
                if in_bucket == 0:
                    return upper
                frac = (target - seen) / in_bucket
                return lower + frac * (upper - lower)
            seen += in_bucket
            lower = upper
        return self.max  # landed in the overflow bucket

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry(_SharedSink):
    """Get-or-create registry of labeled instruments.

    One registry serves one experiment run; every node, manager, and the
    simulator share it, so exported series aggregate across replicas
    unless a ``node`` label says otherwise.
    """

    enabled = True

    def __init__(self) -> None:
        # name -> label-items -> instrument
        self._series: Dict[str, Dict[LabelItems, object]] = {}
        # name -> instrument kind, to catch name reuse across kinds
        self._kinds: Dict[str, str] = {}

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(name, Counter, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(name, Gauge, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: object,
    ) -> Histogram:
        self._check_kind(name, Histogram.KIND)
        series = self._series.setdefault(name, {})
        key = _label_items(labels)
        inst = series.get(key)
        if inst is None:
            inst = series[key] = Histogram(buckets or DEFAULT_BUCKETS)
        return inst  # type: ignore[return-value]

    def _get(self, name: str, cls, labels: Dict[str, object]):
        self._check_kind(name, cls.KIND)
        series = self._series.setdefault(name, {})
        key = _label_items(labels)
        inst = series.get(key)
        if inst is None:
            inst = series[key] = cls()
        return inst

    def _check_kind(self, name: str, kind: str) -> None:
        existing = self._kinds.setdefault(name, kind)
        if existing != kind:
            raise ValueError(
                f"metric {name!r} already registered as {existing}, not {kind}"
            )

    # -- introspection -------------------------------------------------------

    def series(self) -> Iterator[Tuple[str, str, Dict[str, str], object]]:
        """Yield ``(name, kind, labels, instrument)`` sorted for export."""
        for name in sorted(self._series):
            kind = self._kinds[name]
            for key in sorted(self._series[name]):
                yield name, kind, dict(key), self._series[name][key]

    def snapshot(self) -> List[Dict[str, object]]:
        """Flat, JSON-able view of every series (sorted, deterministic)."""
        out: List[Dict[str, object]] = []
        for name, kind, labels, inst in self.series():
            row: Dict[str, object] = {"name": name, "kind": kind, "labels": labels}
            row.update(inst.summary())  # type: ignore[attr-defined]
            out.append(row)
        return out

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all its label sets (0.0 if absent)."""
        return sum(
            inst.value for inst in self._series.get(name, {}).values()
        )

    def __len__(self) -> int:
        return sum(len(series) for series in self._series.values())


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_bulk(self, values: Sequence[float]) -> None:
        pass

    def observe_zeros(self, n: int) -> None:
        # Must be overridden too: the base implementation mutates count /
        # bucket_counts / min / max, and _NULL_HISTOGRAM is a shared
        # singleton — one caller's "no-op" would leak into every other.
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """Do-nothing registry: shared inert instruments, nothing recorded."""

    enabled = False

    def counter(self, name: str, **labels: object) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: object) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name, buckets=None, **labels) -> Histogram:
        return _NULL_HISTOGRAM
