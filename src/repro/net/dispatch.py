"""Handler dispatch and the node facade of the real-time runtime.

:class:`~repro.net.tcp.TcpCluster` turns arrivals (decoded frames,
self-sends, expired timers) into ``node.on_message(src, msg)`` /
``node.on_timer(tag, data)`` calls.  The calls wait in one FIFO and a
single event-loop callback makes them, so a handler always runs to
completion and is never re-entered — also not by what it sends to itself.
No task, future or queue per arrival.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable

from .interfaces import Message, NetworkAPI


class ClusterNetworkAPI(NetworkAPI):
    """Per-node facade over a cluster (``n``, ``now``, ``post``, ``post_timer``)."""

    def __init__(self, cluster: Any, node_id: int) -> None:
        self._cluster = cluster
        self._node_id = node_id

    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def n(self) -> int:
        return self._cluster.n

    def now(self) -> float:
        return self._cluster.now()

    def send(self, dst: int, msg: Message) -> None:
        self._cluster.post(self._node_id, dst, msg)

    def set_timer(self, delay: float, tag: str, data: Any = None) -> None:
        self._cluster.post_timer(self._node_id, delay, tag, data)


class Dispatcher:
    """FIFO of pending handler calls, drained on ``loop``."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._queue: deque = deque()
        self._scheduled = False
        self._closed = False

    def push(self, handler: Callable[..., None], *args: Any) -> None:
        """Queue ``handler(*args)``; it runs on a later loop tick."""
        if self._closed:
            return
        self._queue.append((handler, args))
        if not self._scheduled:
            self._scheduled = True
            self._loop.call_soon(self._drain)

    def push_later(self, delay: float, handler: Callable[..., None], *args: Any) -> None:
        """Queue ``handler(*args)`` once ``delay`` seconds have passed."""
        if delay <= 0:
            self.push(handler, *args)
        else:
            self._loop.call_later(delay, self.push, handler, *args)

    def _drain(self) -> None:
        # Only what was queued when the drain started: what handlers add
        # waits a tick, so the loop polls sockets and timers in between.
        queue = self._queue
        try:
            for _ in range(len(queue)):
                handler, args = queue.popleft()
                handler(*args)
        finally:
            if queue:
                self._loop.call_soon(self._drain)
            else:
                self._scheduled = False

    def close(self) -> None:
        """Drop the queue and every later push: timers outlive their cluster."""
        self._closed = True
        self._queue.clear()
