"""Time-bucketed event queue (a calendar queue) for the simulator.

A priority queue over event records ``(when, seq, ...)`` whose key
``(when, seq)`` is unique.  Events are split by time bucket
``int(when * BUCKETS_PER_SECOND)``:

* a *later* bucket is a plain list — pushing into it is an append, no sift;
* the *current* bucket is a small heap: when the clock reaches a bucket its
  list is heapified once and drained, and pushes that land at or before it
  (zero-delay timers, self-deliveries, CPU-queued work) are heap pushes.

Per-event cost therefore follows the events in one bucket (hundreds), not
everything in flight (10⁵ at n=64, where an 18-level sift over scattered
tuples is mostly cache misses).  ``int(when * K)`` is monotone in ``when``,
so a lower bucket holds strictly earlier events and the pop order is the
order of any correct priority queue over the same keys: a seeded run cannot
tell this queue from a single heap.

:data:`BUCKETS_PER_SECOND` was chosen once from a measured sweep
(docs/PERFORMANCE.md §7); it is not an option.

Bulk producers (the simulator's broadcast loops) may inline the common
case — ``bucket = q.later.get(int(when * BUCKETS_PER_SECOND))``; append to
it and add one to ``q.later_count`` (once per batch) when it exists,
:meth:`EventQueue.push` otherwise.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import Dict, Iterator, List, Optional

#: Buckets per simulated second (width ≈ 1.95 ms).  A power of two, so
#: ``when * K`` is exact.
BUCKETS_PER_SECOND = 512


class EventQueue:
    __slots__ = ("_heap", "_index", "_order", "later", "later_count")

    def __init__(self) -> None:
        #: the current bucket (and anything pushed at or before it), a heap
        self._heap: List[tuple] = []
        self._index = 0
        #: bucket index -> list, for indexes strictly after ``_index``
        self.later: Dict[int, List[tuple]] = {}
        #: heap of the keys of ``later``
        self._order: List[int] = []
        #: events held in ``later``
        self.later_count = 0

    def __len__(self) -> int:
        return len(self._heap) + self.later_count

    def __iter__(self) -> Iterator[tuple]:
        """Every pending event, in no particular order."""
        yield from self._heap
        for bucket in self.later.values():
            yield from bucket

    def push(self, ev: tuple) -> None:
        index = int(ev[0] * BUCKETS_PER_SECOND)
        if index <= self._index:
            heappush(self._heap, ev)
            return
        bucket = self.later.get(index)
        if bucket is None:
            self.later[index] = [ev]
            heappush(self._order, index)
        else:
            bucket.append(ev)
        self.later_count += 1

    def pop(self, limit: float = inf) -> Optional[tuple]:
        """Remove and return the earliest event, or ``None`` when the queue
        is empty or that event is later than ``limit`` (it stays queued)."""
        heap = self._heap
        if not heap:
            order = self._order
            # A bucket past ``limit * K`` holds only events past ``limit``:
            # leave it unloaded, so a horizon stop never widens the heap.
            if not order or order[0] > limit * BUCKETS_PER_SECOND:
                return None
            self._index = heappop(order)
            heap = self._heap = self.later.pop(self._index)
            self.later_count -= len(heap)
            heapify(heap)
        if heap[0][0] > limit:
            return None
        return heappop(heap)

    def peek(self) -> Optional[tuple]:
        """The earliest event, left queued (``None`` when empty)."""
        if self._heap:
            return self._heap[0]
        if self._order:
            return min(self.later[self._order[0]])
        return None

    def remove(self, ev: tuple) -> None:
        """Remove one pending event; ``ValueError`` if it is not queued."""
        index = int(ev[0] * BUCKETS_PER_SECOND)
        if index <= self._index:
            self._heap.remove(ev)
            heapify(self._heap)
            return
        bucket = self.later.get(index, [])
        bucket.remove(ev)
        self.later_count -= 1
        if not bucket:
            del self.later[index]
            self._order.remove(index)
            heapify(self._order)
