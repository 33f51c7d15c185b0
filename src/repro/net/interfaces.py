"""Runtime-agnostic interfaces between protocols and the network.

A consensus protocol in this library is a :class:`Node`: a deterministic
state machine with three entry points (``on_start``, ``on_message``,
``on_timer``) that talks to the outside world only through the
:class:`NetworkAPI` handed to it at construction.  The same Node runs
unmodified under the discrete-event simulator and the TCP runtime.

This mirrors the sans-I/O style: no sleeps, no sockets, no wall-clock reads
inside protocol logic — time comes from ``net.now()``, randomness from
seeded generators, and all I/O is message passing (the MPI-flavoured idiom
from the HPC guides: explicit sends, no shared state between ranks).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable


class Message(ABC):
    """Base class for everything that crosses the (simulated) wire.

    Subclasses are small frozen dataclasses; :meth:`wire_size` reports the
    number of bytes the message would occupy in a compact binary encoding,
    which is what the bandwidth model charges.  Sizes follow the constants
    in :mod:`repro.net.sizes`.
    """

    @abstractmethod
    def wire_size(self) -> int:
        """Modeled encoded size in bytes."""

    # Messages are frozen values (the only mutation anywhere is the
    # idempotent ``_wire_size`` memo below).  Simulator snapshots
    # (:class:`repro.net.snapshot.SimulatorSnapshot`) therefore share
    # in-flight messages between branches instead of forking them — a
    # branch can never observe a difference, and copies would dominate
    # snapshot cost during state-space exploration.
    def __copy__(self) -> "Message":
        return self

    def __deepcopy__(self, memo) -> "Message":
        return self


class SizedMessage(Message):
    """A message whose wire size is computed once and then memoized.

    The simulator consults :meth:`wire_size` per *delivery* (Θ(n²) per
    round for echo-class traffic), so recomputing a size that walks the
    payload — blocks, retrieval responses — would dominate.  Subclasses
    implement :meth:`_compute_wire_size`; the first call stores the result
    on the instance.  Invalidation is impossible by construction: message
    dataclasses are frozen, so the size can never go stale.
    """

    def wire_size(self) -> int:
        size = self.__dict__.get("_wire_size")
        if size is None:
            size = self._compute_wire_size()
            # Frozen dataclasses block normal attribute assignment; the
            # cache is not a field, so write it directly.
            object.__setattr__(self, "_wire_size", size)
        return size

    @abstractmethod
    def _compute_wire_size(self) -> int:
        """Compute the modeled encoded size (called at most once)."""


class NetworkAPI(ABC):
    """What a protocol node may do to the outside world."""

    @property
    @abstractmethod
    def node_id(self) -> int:
        """This node's replica index."""

    @property
    @abstractmethod
    def n(self) -> int:
        """Total number of replicas."""

    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (simulated or wall-clock)."""

    @abstractmethod
    def send(self, dst: int, msg: Message) -> None:
        """Send ``msg`` to replica ``dst`` (see :meth:`broadcast` for everyone).

        Sending to oneself is allowed and delivered with zero network cost;
        protocols use it to keep the code path uniform.
        """

    @abstractmethod
    def set_timer(self, delay: float, tag: str, data: Any = None) -> None:
        """Schedule ``on_timer(tag, data)`` after ``delay`` seconds."""

    def broadcast(self, msg: Message, include_self: bool = True) -> None:
        """Send ``msg`` to every replica (optionally including ourselves)."""
        for dst in range(self.n):
            if include_self or dst != self.node_id:
                self.send(dst, msg)


class Node(ABC):
    """A deterministic protocol state machine bound to one replica.

    Subclasses receive their :class:`NetworkAPI` in ``__init__`` and must
    confine *all* side effects to it.  Handlers run to completion — the
    runtimes never interleave two handlers of the same node.
    """

    def __init__(self, net: NetworkAPI) -> None:
        self.net = net

    @property
    def node_id(self) -> int:
        return self.net.node_id

    def on_start(self) -> None:
        """Called once when the run begins."""

    @abstractmethod
    def on_message(self, src: int, msg: Message) -> None:
        """Called for every delivered message."""

    def on_timer(self, tag: str, data: Any = None) -> None:
        """Called when a timer set via :meth:`NetworkAPI.set_timer` fires."""


#: Factory signature both runtimes (simulator, TCP) build the replica set with.
NodeFactory = Callable[[NetworkAPI], Node]
