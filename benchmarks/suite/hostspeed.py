"""How fast the host is *while* a wall-clock workload runs.

The reference container is a few cores of a shared machine: for a minute
at a time its neighbours slow every process on it, by up to a factor of
two.  A simulated workload pays that only in ``host_wall_s``.  On
``tcp_saturated_n4`` the wall clock *is* the workload's clock, so
throughput and both latencies follow the neighbours, not the program:
over ten runs they spread by 16-28%, more than any admissible bound.

So the TCP rep samples the host's speed from inside its own event loop:
every :data:`PERIOD_S` a timer callback runs :func:`kernel` — a fixed
piece of work that touches nothing of ``repro`` — and times it.  The
kernel and the workload share one thread, so each sample is taken at the
speed the workload itself is running at, a few milliseconds either side.
``speed`` is the kernel's time on a quiet reference container over its
mean time in this rep (1.0 = quiet, 0.5 = everything takes twice as
long), and the rep reports its times and rates **at reference speed**:
seconds × speed, tx/s ÷ speed.  What it costs: ≈2% of the loop's time.

The mean, not the median: part of the slow-down arrives as rare long
stalls, which only the mean counts in proportion.  Samples taken before
and after a rep do not work — the host's speed changes within seconds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from typing import List

#: Seconds between samples.
PERIOD_S = 0.01

#: Mean :func:`kernel` time inside a saturated TCP rep on the quiet
#: reference container (2 cores, Python 3.11).  Only fixes the scale.
NOMINAL_S = 180e-6

_DOC = {
    "blocks": [
        {
            "round": i, "author": i % 4,
            "parents": [hashlib.sha256(bytes([i, j])).hexdigest() for j in range(3)],
            "payload": {"count": 100, "submit_time_sum": i * 1.5},
        }
        for i in range(8)
    ]
}
_CHUNK = b"x" * 64


def kernel() -> None:
    """Fixed work shaped like the runtime's: allocation-heavy C calls
    (a JSON round trip), then an interpreter loop of dict stores and
    hashing."""
    json.loads(json.dumps(_DOC))
    digest = hashlib.sha256()
    table = {}
    for i in range(1500):
        table[i & 255] = i
        if not i & 63:
            digest.update(_CHUNK)


class Sampler:
    """Times :func:`kernel` every :data:`PERIOD_S` on a running loop."""

    def __init__(self, loop) -> None:
        self._loop = loop
        self._handle = None
        self.samples: List[float] = []

    def start(self) -> None:
        self._handle = self._loop.call_later(PERIOD_S, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        # A cyclic collection that the kernel's own allocations happen to
        # trigger would be charged to one sample; let the workload's next
        # allocation trigger it instead.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()
        self._handle = self._loop.call_later(PERIOD_S, self._tick)

    def speed(self) -> float:
        """Reference kernel time over the observed mean (1.0 = quiet host)."""
        if not self.samples:
            return 1.0
        return NOMINAL_S * len(self.samples) / sum(self.samples)
