"""TCP transport: protocol nodes over real sockets.

The closest this repository gets to the paper's deployed prototype: each
replica listens on a TCP port, dials every peer, and exchanges
length-prefixed frames of :mod:`repro.codec`-encoded messages.  The same
:class:`~repro.net.interfaces.Node` state machines run unmodified.

Framing: each frame is ``uvarint(length) || body``; each connection is
authenticated-by-configuration (the dialer announces its replica id in a
hello frame, a 4-byte big-endian id — a stand-in for the TLS/channel
authentication a production deployment would use; transferable
authenticity still comes from the block signatures inside the frames).

Receiving is callback-driven: one :class:`asyncio.Protocol` per inbound
connection cuts each chunk the socket hands over into its complete frames
in one pass (:class:`FrameSplitter`), decodes them and queues the handler
calls on the cluster's :class:`~repro.net.dispatch.Dispatcher`.  Sending
collects the frames one loop tick produces per connection and writes them
at once: a handler burst costs one ``send`` per peer.

A peer that sends anything but a well-formed stream has *that* connection
closed and counted in :attr:`TcpCluster.rejected`: ``varint_overlong``
(length prefix over 5 bytes), ``frame_too_large`` (over :data:`MAX_FRAME`),
``bad_hello`` (first frame is not a replica id), ``decode_error`` (the
codec refused the body).  Never an exception, never another connection.

There is no write-side drain: handlers are synchronous, so nothing could
wait for one.  The transport buffers what the socket does not take; a slow
remote peer needs flow control in the protocol, not in the transport.

Injected latency: given a :class:`~repro.net.latency.LatencyModel` (the
simulator's models), each frame to a peer joins the outbox one drawn delay
late, so a loopback cluster behaves like the WAN the model describes.

Scope: one process; every replica listens on ``host`` (loopback by
default) at a port of its own and dials its peers there.
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter
from itertools import permutations
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..codec.messages import decode_message, encoded_wire_bytes
from ..codec.primitives import CodecError, Writer
from ..errors import ConfigError, NetworkError
from .dispatch import ClusterNetworkAPI, Dispatcher
from .interfaces import Message, Node, NodeFactory
from .latency import LatencyModel

#: Maximum frame size accepted from a peer (matches codec MAX_LENGTH).
MAX_FRAME = 64 * 1024 * 1024


def _encode_frame(body: bytes) -> bytes:
    return Writer().lp_bytes(body).getvalue()


def _frame_for(msg: Message) -> bytes:
    """Complete framed encoding of a message, memoized on the instance.

    A broadcast writes the identical frame to every peer connection;
    encoding *and* length-prefixing once per message (instead of once per
    recipient) is the transport half of the encode-once fan-out.  Frozen
    messages make the memo permanently valid.
    """
    try:
        cached = msg.__dict__.get("_wire_frame")
    except AttributeError:
        return _encode_frame(encoded_wire_bytes(msg))
    if cached is None:
        cached = _encode_frame(encoded_wire_bytes(msg))
        object.__setattr__(msg, "_wire_frame", cached)
    return cached


class FrameSplitter:
    """Cuts a byte stream, fed in arbitrary chunks, into frame bodies."""

    def __init__(self) -> None:
        self._tail = bytearray()  # the stream from the start of an incomplete frame
        self._need = 0  # ... and the length at which it is worth parsing again

    def feed(self, data: bytes) -> List[bytes]:
        """The bodies of every frame ``data`` completes, in stream order.

        Raises :class:`NetworkError` with the rejection reason as message.
        """
        if self._tail:
            # Appending until the frame is whole keeps a large frame that
            # arrives in many chunks linear, not quadratic, in its size.
            self._tail += data
            if len(self._tail) < self._need:
                return []
            data = bytes(self._tail)
            self._tail.clear()
        bodies = []
        pos = 0
        end = len(data)
        while pos < end:
            start = pos
            length = shift = 0
            while pos < end:
                b = data[pos]
                pos += 1
                length |= (b & 0x7F) << shift
                if b < 0x80:
                    break
                shift += 7
                if shift > 28:
                    raise NetworkError("varint_overlong")
            else:  # the chunk ends inside the length prefix
                self._tail += data[start:]
                self._need = len(self._tail) + 1
                break
            if length > MAX_FRAME:
                raise NetworkError("frame_too_large")
            if end - pos < length:
                self._tail += data[start:]
                self._need = pos - start + length
                break
            bodies.append(data[pos:pos + length])
            pos += length
        return bodies


class _Inbound(asyncio.Protocol):
    """Receiving end of one connection a peer opened to a local replica."""

    def __init__(self, cluster: "TcpCluster", node_id: int) -> None:
        self._cluster = cluster
        self._node = cluster.nodes[node_id]
        self._push = cluster._dispatch.push
        self._frames = FrameSplitter()
        self._src: Optional[int] = None  # the peer's id, once its hello is in
        self._transport: Optional[asyncio.BaseTransport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        self._cluster._inbound.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._cluster._inbound.discard(self._transport)

    def data_received(self, data: bytes) -> None:
        cluster = self._cluster
        try:
            bodies = self._frames.feed(data)
            if self._src is None and bodies:
                hello = bodies.pop(0)
                if len(hello) != 4 or int.from_bytes(hello, "big") >= cluster.n:
                    raise NetworkError("bad_hello")
                self._src = int.from_bytes(hello, "big")
            for body in bodies:
                msg = decode_message(body)
                cluster.frames_received += 1
                self._push(self._node.on_message, self._src, msg)
        except NetworkError as exc:
            self._reject(exc.args[0])
        except CodecError:
            self._reject("decode_error")

    def _reject(self, reason: str) -> None:
        self._cluster.rejected[reason] += 1
        self._transport.close()


class TcpCluster:
    """A replica set wired through real TCP connections.

    Parameters
    ----------
    factories:
        One node factory per *local* replica.  In single-host mode (the
        default), all replicas are local.
    host:
        Bind/dial address (default loopback).
    base_port:
        Replica ``i`` listens on ``base_port + i``; 0 picks free ports.
    latency_model:
        Optional injected propagation delay per frame to a peer (None =
        write it on this loop tick).  Self-delivery is never delayed.  A
        lossy model (``loss``, ``intra_loss``, ``churn``) is refused: only
        the simulator drops messages.
    seed:
        Seed for the latency draws.
    """

    def __init__(
        self,
        factories: Sequence[NodeFactory],
        host: str = "127.0.0.1",
        base_port: int = 0,
        latency_model: Optional[LatencyModel] = None,
        seed: int = 0,
    ) -> None:
        if latency_model is not None and latency_model.lossy:
            raise ConfigError(
                "the TCP runtime injects delay only; lossy latency specs "
                "(loss, intra_loss, churn) need the simulator harness"
            )
        self.n = len(factories)
        self.host = host
        self.base_port = base_port
        self.latency = latency_model
        self.rng = random.Random(f"tcp:{seed}")
        self.nodes: List[Node] = [
            factory(ClusterNetworkAPI(self, i)) for i, factory in enumerate(factories)
        ]
        self._servers: List[asyncio.AbstractServer] = []
        self._ports: List[int] = [0] * self.n
        self._inbound: Set[asyncio.BaseTransport] = set()
        self._links: Dict[Tuple[int, int], asyncio.WriteTransport] = {}
        #: Frames the current loop tick has produced, per connection.
        self._outbox: Dict[asyncio.WriteTransport, List[bytes]] = {}
        self._dispatch: Optional[Dispatcher] = None  # set while running
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._start_time = 0.0
        self.frames_sent = 0
        self.frames_received = 0
        #: Inbound connections closed for what the peer sent, by reason.
        self.rejected: Counter = Counter()

    @property
    def decode_errors(self) -> int:
        return self.rejected["decode_error"]

    # -- time / posting --------------------------------------------------------

    def now(self) -> float:
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._start_time

    def post(self, src: int, dst: int, msg: Message) -> None:
        if self._dispatch is None:
            raise NetworkError("cluster is not running")
        if dst == src:
            self._dispatch.push(self.nodes[dst].on_message, src, msg)
            return
        transport = self._links.get((src, dst))
        if transport is None:
            raise NetworkError(f"no connection {src} -> {dst}")
        self.frames_sent += 1
        if self.latency is not None:
            delay = self.latency.delay(src, dst, self.rng)
            self._loop.call_later(delay, self._post_late, transport, _frame_for(msg))
            return
        frames = self._outbox.get(transport)
        if frames is None:
            if not self._outbox:
                self._loop.call_soon(self._flush)
            frames = self._outbox[transport] = []
        frames.append(_frame_for(msg))

    def _post_late(self, transport: asyncio.WriteTransport, frame: bytes) -> None:
        """A delayed frame joins the outbox — or, like a timer that expires
        after its cluster stopped, is dropped."""
        if self._dispatch is None:
            return
        if not self._outbox:
            self._loop.call_soon(self._flush)
        self._outbox.setdefault(transport, []).append(frame)

    def _flush(self) -> None:
        """Write what the tick queued: one ``send`` per connection."""
        outbox, self._outbox = self._outbox, {}
        for transport, frames in outbox.items():
            transport.write(b"".join(frames))

    def post_timer(self, node_id: int, delay: float, tag: str, data: Any) -> None:
        if self._dispatch is None:
            raise NetworkError("cluster is not running")
        self._dispatch.push_later(delay, self.nodes[node_id].on_timer, tag, data)

    # -- lifecycle ---------------------------------------------------------------

    async def run(self, duration: float) -> None:
        """Start servers, dial peers, run the nodes for ``duration`` s."""
        loop = self._loop = asyncio.get_running_loop()
        self._dispatch = Dispatcher(loop)
        try:
            for i in range(self.n):
                server = await loop.create_server(
                    lambda i=i: _Inbound(self, i), host=self.host,
                    port=self.base_port + i if self.base_port else 0,
                )
                self._servers.append(server)
                self._ports[i] = server.sockets[0].getsockname()[1]
            for src, dst in permutations(range(self.n), 2):
                transport, _ = await loop.create_connection(
                    asyncio.Protocol, self.host, self._ports[dst]
                )
                transport.write(_encode_frame(src.to_bytes(4, "big")))
                self._links[(src, dst)] = transport
            self._start_time = loop.time()
            for node in self.nodes:
                node.on_start()
            await asyncio.sleep(duration)
        finally:
            self._dispatch.close()
            self._dispatch = None
            self._outbox.clear()
            for transport in [*self._links.values(), *self._inbound]:
                transport.close()
            for server in self._servers:
                server.close()  # the listening sockets are closed on return
            self._links.clear()
            self._servers.clear()
