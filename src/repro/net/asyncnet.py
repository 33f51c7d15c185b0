"""Asyncio runtime: the same protocol nodes over real async channels.

The discrete-event simulator is the measurement instrument; this module is
the *prototype system* (§VI implements one in Golang): messages travel
through the event loop with optional injected latency, every arrival waits
in the cluster's :class:`~repro.net.dispatch.Dispatcher` FIFO, and handlers
execute on wall-clock time.  Because protocols are sans-I/O
:class:`~repro.net.interfaces.Node` state machines, **exactly the same
protocol code** runs here and under the simulator — the property the whole
layering exists for.

Scope: in-process channels — the paper's distributed deployment is
reproduced by the simulator's WAN model instead, per DESIGN.md §2.  The
runtime still exercises everything a multi-process deployment would except
serialization: concurrency, reordering, backpressure, and real time.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, List, Optional, Sequence

from ..errors import NetworkError
from .dispatch import ClusterNetworkAPI, Dispatcher
from .interfaces import Message, Node, NodeFactory
from .latency import LatencyModel


class AsyncCluster:
    """A set of protocol nodes wired through one event-loop FIFO.

    Parameters
    ----------
    factories:
        One node factory per replica (same signature as the simulator's).
    latency_model:
        Optional injected propagation delay per message (None = deliver on
        the next loop tick).  Useful to make the prototype behave like a
        WAN without leaving the process.
    seed:
        Seed for latency jitter.
    """

    def __init__(
        self,
        factories: Sequence[NodeFactory],
        latency_model: Optional[LatencyModel] = None,
        seed: int = 0,
    ) -> None:
        self.latency = latency_model
        self.rng = random.Random(f"asyncnet:{seed}")
        self.n = len(factories)
        self.nodes: List[Node] = [
            factory(ClusterNetworkAPI(self, i)) for i, factory in enumerate(factories)
        ]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._start_time = 0.0
        self._dispatch: Optional[Dispatcher] = None
        self.messages_delivered = 0

    # -- time ----------------------------------------------------------------

    def now(self) -> float:
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._start_time

    # -- posting -------------------------------------------------------------

    def post(self, src: int, dst: int, msg: Message) -> None:
        if self._dispatch is None:
            raise NetworkError("cluster is not running")
        if not 0 <= dst < self.n:
            raise NetworkError(f"invalid destination {dst}")
        delay = 0.0
        if self.latency is not None and src != dst:
            delay = self.latency.delay(src, dst, self.rng)
        self._dispatch.push_later(delay, self._deliver, dst, src, msg)

    def _deliver(self, dst: int, src: int, msg: Message) -> None:
        self.messages_delivered += 1
        self.nodes[dst].on_message(src, msg)

    def post_timer(self, node_id: int, delay: float, tag: str, data: Any) -> None:
        if self._dispatch is None:
            raise NetworkError("cluster is not running")
        self._dispatch.push_later(delay, self.nodes[node_id].on_timer, tag, data)

    # -- run loop --------------------------------------------------------------

    async def run(self, duration: float) -> None:
        """Start every node and run for ``duration`` wall-clock seconds."""
        self._loop = asyncio.get_running_loop()
        self._start_time = self._loop.time()
        self._dispatch = Dispatcher(self._loop)
        try:
            for node in self.nodes:
                node.on_start()
            await asyncio.sleep(duration)
        finally:
            self._dispatch.close()
            self._dispatch = None


def run_cluster(
    factories: Sequence[NodeFactory],
    duration: float,
    latency_model: Optional[LatencyModel] = None,
    seed: int = 0,
) -> AsyncCluster:
    """Blocking convenience wrapper: build a cluster and run it."""
    cluster = AsyncCluster(factories, latency_model=latency_model, seed=seed)
    asyncio.run(cluster.run(duration))
    return cluster
