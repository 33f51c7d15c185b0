"""``EventQueue`` must be indistinguishable from one heap.

The single global heap the simulator used to run on survives here as the
oracle: random interleavings of every queue operation are applied to both,
and everything observable (what each call returns, ``len``, the pending
events as a multiset) must agree at every step.
"""

import heapq
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.eventqueue import BUCKETS_PER_SECOND, EventQueue

WIDTH = 1.0 / BUCKETS_PER_SECOND

#: Delays from the clock, in bucket widths: at ``now`` (ties), inside the
#: current bucket, the next few buckets, and sparse far-future timers with
#: thousands of empty buckets between.
DELAYS = [0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 7.25, 100.0, 5000.5, 60000.0]

ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from(DELAYS)),
        st.tuples(st.just("inline"), st.sampled_from(DELAYS)),
        st.tuples(st.just("pop"), st.none() | st.sampled_from(DELAYS)),
        st.tuples(st.just("peek"), st.none()),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
        st.tuples(st.just("pickle"), st.none()),
    ),
    max_size=120,
)


class Heap:
    """The oracle: a plain ``heapq`` list with the same five operations."""

    def __init__(self):
        self.items = []

    def push(self, ev):
        heapq.heappush(self.items, ev)

    def pop(self, limit):
        if self.items and self.items[0][0] <= limit:
            return heapq.heappop(self.items)
        return None

    def peek(self):
        return self.items[0] if self.items else None

    def remove(self, ev):
        self.items.remove(ev)
        heapq.heapify(self.items)


def push_inline(queue, ev):
    """The fan-out loops' inlined common case, as the module documents it."""
    bucket = queue.later.get(int(ev[0] * BUCKETS_PER_SECOND))
    if bucket is not None:
        bucket.append(ev)
        queue.later_count += 1
    else:
        queue.push(ev)


@settings(max_examples=300, deadline=None)
@given(ops=ops)
def test_random_interleavings_match_a_heap(ops):
    queue, oracle = EventQueue(), Heap()
    now = 0.0
    for seq, (op, arg) in enumerate(ops):
        if op in ("push", "inline"):
            ev = (now + arg * WIDTH, seq, 0, "a", "b", "c")
            if op == "push":
                queue.push(ev)
            else:
                push_inline(queue, ev)
            oracle.push(ev)
        elif op == "pop":
            limit = float("inf") if arg is None else now + arg * WIDTH
            got = queue.pop(limit)
            assert got == oracle.pop(limit)
            if got is not None:
                now = got[0]
        elif op == "peek":
            assert queue.peek() == oracle.peek()
        elif op == "remove" and oracle.items:
            ev = sorted(oracle.items)[arg % len(oracle.items)]
            queue.remove(ev)
            oracle.remove(ev)
        elif op == "pickle":
            queue = pickle.loads(pickle.dumps(queue))
        assert len(queue) == len(oracle.items)
        assert bool(queue) == bool(oracle.items)
        assert sorted(queue) == sorted(oracle.items)
    drained = []
    while (ev := queue.pop()) is not None:
        drained.append(ev)
    assert drained == sorted(oracle.items)
    assert len(queue) == 0 and queue.peek() is None


def test_pickle_round_trip_mid_bucket():
    queue = EventQueue()
    events = [(5.0 + k * WIDTH / 8, k, 0, None, None, None) for k in range(24)]
    for ev in reversed(events):
        queue.push(ev)
    assert [queue.pop() for _ in range(3)] == events[:3]  # bucket loaded
    queue.push((5.0 + WIDTH / 3, 99, 0, None, None, None))  # lands in it
    copy = pickle.loads(pickle.dumps(queue))
    rest = sorted(events[3:] + [(5.0 + WIDTH / 3, 99, 0, None, None, None)])
    assert len(copy) == len(queue) == len(rest)
    assert [copy.pop() for _ in rest] == rest
    assert [queue.pop() for _ in rest] == rest  # the original is untouched


def test_a_horizon_stop_loads_no_bucket_beyond_it():
    """Pops refused at a horizon must not pull a far bucket into the heap:
    later near-term pushes would all pile onto it."""
    queue = EventQueue()
    far = (100.0, 0, 1, 0, "tick", None)
    queue.push(far)
    assert queue.pop(5.0) is None and queue.peek() == far
    queue.push((5.5, 1, 1, 0, "tick", None))
    assert len(queue.later) == 2  # both still plain lists
    assert queue.pop()[1] == 1 and queue.pop() == far


def test_remove_of_an_unknown_event_raises():
    queue = EventQueue()
    queue.push((1.0, 0, 0, None, None, None))
    for missing in [(1.0, 7, 0, None, None, None), (9.0, 0, 0, None, None, None)]:
        with pytest.raises(ValueError):
            queue.remove(missing)
    assert len(queue) == 1
