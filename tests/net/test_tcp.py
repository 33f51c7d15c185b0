"""Tests for repro.net.tcp: consensus over real loopback sockets."""

import asyncio
import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast.messages import BlockEcho
from repro.codec.messages import encode_message
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag2 import LightDag2Node
from repro.core.lightdag1 import LightDag1Node
from repro.crypto.keys import TrustedDealer
from repro.dag.block import TxBatch
from repro.dag.ledger import check_prefix_consistency
from repro.errors import NetworkError
from repro.net.interfaces import Node
from repro.net.latency import FixedLatency
from repro.net.tcp import (
    MAX_FRAME,
    FrameSplitter,
    TcpCluster,
    _encode_frame,
)


def build_factories(node_cls, n=4, batch=10):
    system = SystemConfig(n=n, crypto="hmac", seed=1)
    protocol = ProtocolConfig(batch_size=batch)
    chains = TrustedDealer(system).deal()

    def payload_source(now):
        return TxBatch(count=batch, tx_size=128, submit_time_sum=batch * now,
                       sample=(now,))

    def factory(i):
        return lambda net: node_cls(
            net, system, protocol, chains[i], payload_source=payload_source
        )

    return [factory(i) for i in range(n)]


def prefix(length):
    """The uvarint length prefix of a frame of ``length`` bytes."""
    out = bytearray()
    while length >= 0x80:
        out.append(length & 0x7F | 0x80)
        length >>= 7
    out.append(length)
    return bytes(out)


def split(chunks):
    splitter = FrameSplitter()
    return [body for chunk in chunks for body in splitter.feed(chunk)]


#: Bodies whose length prefixes take 1, 2 and 3 bytes, and the edge cases.
BODIES = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([b"", b"x", bytes(127), bytes(128), bytes(16_384), bytes(200_000)]),
)


class TestFrameSplitter:
    @pytest.mark.parametrize("body", [b"", b"hello world", bytes(200_000)])
    def test_frame_roundtrip(self, body):
        assert split([_encode_frame(body)]) == [body]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(BODIES, max_size=6), st.data())
    def test_any_chunking_yields_the_same_bodies_in_order(self, bodies, data):
        stream = b"".join(_encode_frame(body) for body in bodies)
        cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=8))
        edges = [0, *sorted(cuts), len(stream)]
        chunks = [stream[a:b] for a, b in zip(edges, edges[1:])]
        assert split(chunks) == bodies

    def test_byte_by_byte(self):
        bodies = [b"", b"a", bytes(300), b"tail"]
        stream = b"".join(_encode_frame(body) for body in bodies)
        assert split([stream[i:i + 1] for i in range(len(stream))]) == bodies

    def test_bodies_are_bytes_whatever_the_chunking(self):
        # digests cut out of a body are dict keys: never a bytearray
        frame = _encode_frame(b"abcdef")
        assert all(type(b) is bytes for b in split([frame[:3], frame[3:]]))

    def test_largest_frame_length_is_accepted(self):
        assert FrameSplitter().feed(prefix(MAX_FRAME)) == []

    @pytest.mark.parametrize(
        "prefix, reason",
        [
            (b"\xff\xff\xff\xff\x7f", "frame_too_large"),
            (prefix(MAX_FRAME + 1), "frame_too_large"),
            (b"\xff\xff\xff\xff\xff", "varint_overlong"),
            (b"\x80\x80\x80\x80\x80\x00", "varint_overlong"),
        ],
    )
    def test_hostile_length_prefixes(self, prefix, reason):
        for chunks in ([prefix], [prefix[:2], prefix[2:]]):
            splitter = FrameSplitter()
            with pytest.raises(NetworkError, match=reason):
                for chunk in chunks:
                    splitter.feed(chunk)


class Burst(Node):
    """Replica 0 sends numbered echoes in bursts; everyone records arrivals."""

    BURSTS = 5
    SIZE = 200

    def __init__(self, net):
        super().__init__(net)
        self.received = []

    def _burst(self, k):
        for i in range(k * self.SIZE, (k + 1) * self.SIZE):
            self.net.broadcast(BlockEcho(round=i, author=0, digest=bytes(32)))

    def on_start(self):
        if self.node_id == 0:
            self._burst(0)
            self.net.set_timer(0.0, "burst", 1)

    def on_timer(self, tag, data=None):
        self._burst(data)
        if data + 1 < self.BURSTS:
            self.net.set_timer(0.01 * (data % 2), "burst", data + 1)

    def on_message(self, src, msg):
        self.received.append((src, msg.round))


class Recorder(Node):
    """Replica 0 broadcasts one echo, itself included; everyone records
    what arrives (with the arrival time) and which timers fire."""

    def __init__(self, net):
        super().__init__(net)
        self.received = []
        self.timers = []

    def on_start(self):
        if self.node_id == 0:
            self.net.broadcast(BlockEcho(round=1, author=0, digest=bytes(32)))

    def on_message(self, src, msg):
        self.received.append((src, msg.round, self.net.now()))

    def on_timer(self, tag, data=None):
        self.timers.append((tag, data))


def run(cluster, duration):
    asyncio.run(cluster.run(duration))
    return cluster


class TestTransport:
    def test_self_delivery(self):
        cluster = run(TcpCluster([Recorder for _ in range(3)]), 0.2)
        assert [src for src, _, _ in cluster.nodes[0].received] == [0]
        assert all(len(node.received) == 1 for node in cluster.nodes)

    def test_injected_latency_delays_delivery(self):
        cluster = run(TcpCluster([Recorder for _ in range(3)],
                                 latency_model=FixedLatency(0.15)), 0.4)
        (_, _, to_self), = cluster.nodes[0].received
        assert to_self < 0.1  # self-delivery is never delayed
        for node in cluster.nodes[1:]:
            (_, _, arrival), = node.received
            assert arrival >= 0.15
        assert cluster.frames_sent == cluster.frames_received == 2

    def test_a_frame_due_after_the_run_is_dropped(self):
        cluster = TcpCluster([Recorder for _ in range(2)],
                             latency_model=FixedLatency(0.15))
        flushes = []

        async def scenario():
            await cluster.run(0.1)
            cluster._flush = lambda: flushes.append(1)
            await asyncio.sleep(0.1)  # the frame to replica 1 falls due

        asyncio.run(scenario())
        assert cluster.nodes[1].received == [] and flushes == []
        assert (cluster.frames_sent, cluster.frames_received) == (1, 0)

    def test_latency_draws_are_seeded(self):
        def draws(seed):
            cluster = TcpCluster([Recorder for _ in range(2)], seed=seed)
            return [cluster.rng.random() for _ in range(3)]

        assert draws(4) == draws(4) != draws(5)

    def test_timers_fire(self):
        class TimerNode(Recorder):
            def on_start(self):
                self.net.set_timer(0.05, "tick", 42)

        cluster = run(TcpCluster([TimerNode]), 0.2)
        assert cluster.nodes[0].timers == [("tick", 42)]

    def test_zero_delay_timer(self):
        class TimerNode(Recorder):
            def on_start(self):
                self.net.set_timer(0.0, "now")

        cluster = run(TcpCluster([TimerNode]), 0.1)
        assert cluster.nodes[0].timers == [("now", None)]

    def test_invalid_destination_rejected(self):
        class BadSender(Recorder):
            def on_start(self):
                self.net.send(99, BlockEcho(round=1, author=0, digest=bytes(32)))

        with pytest.raises(NetworkError):
            run(TcpCluster([BadSender]), 0.05)

    def test_clock_monotone(self):
        cluster = TcpCluster([Recorder for _ in range(2)])
        assert cluster.now() == 0.0
        run(cluster, 0.1)
        assert cluster.now() >= 0.1

    def test_coalesced_sends_arrive_in_per_connection_fifo_order(self):
        cluster = TcpCluster([Burst for _ in range(3)])
        writes = []

        async def scenario():
            run = asyncio.ensure_future(cluster.run(0.5))
            while not cluster._links:
                await asyncio.sleep(0.005)
            for transport in cluster._links.values():
                transport.write = lambda data, w=transport.write: (writes.append(data), w(data))
            await run

        asyncio.run(scenario())
        expected = [(0, i) for i in range(Burst.BURSTS * Burst.SIZE)]
        for node in cluster.nodes:
            assert node.received == expected
        assert cluster.frames_sent == cluster.frames_received == 2 * len(expected)
        # a burst is one write per peer, not one per frame
        assert len(writes) <= 2 * Burst.BURSTS

    def test_posting_outside_a_run_is_refused(self):
        cluster = TcpCluster([Burst for _ in range(2)])
        with pytest.raises(NetworkError):
            cluster.post(0, 1, BlockEcho(round=1, author=0, digest=bytes(32)))
        with pytest.raises(NetworkError):
            cluster.post_timer(0, 0.0, "tag", None)

    def test_posting_after_a_run_is_refused(self):
        cluster = run(TcpCluster([Burst for _ in range(2)]), 0.05)
        with pytest.raises(NetworkError):
            cluster.post(0, 1, BlockEcho(round=1, author=0, digest=bytes(32)))
        with pytest.raises(NetworkError):
            cluster.post_timer(0, 0.0, "tag", None)


#: A VAL frame whose block carries a proof whose block carries a proof ...
RECURSION_BOMB = bytes([1]) + (
    bytes([1, 0, 0, 0, 0]) + bytes(8) + bytes([0, 0, 0, 1, 0])
) * 5000

HELLO = _encode_frame((1).to_bytes(4, "big"))

HOSTILE = [
    ("frame_too_large", b"\xff\xff\xff\xff\x7f"),
    ("frame_too_large", HELLO + prefix(MAX_FRAME + 1)),
    ("varint_overlong", b"\xff\xff\xff\xff\xff\xff\x01"),
    ("bad_hello", _encode_frame((4).to_bytes(4, "big"))),  # not in [0, n)
    ("bad_hello", _encode_frame(b"\x01")),  # not 4 bytes
    ("decode_error", HELLO + _encode_frame(b"\xff")),  # unknown kind
    ("decode_error", HELLO + _encode_frame(b"\x02\x01")),  # truncated echo
    ("decode_error", HELLO + _encode_frame(RECURSION_BOMB)),
]


class TestHostilePeers:
    def test_every_rejection_is_counted_and_the_cluster_keeps_committing(self, caplog):
        cluster = TcpCluster(build_factories(LightDag2Node))
        marks = []

        async def scenario():
            run = asyncio.ensure_future(cluster.run(2.5))
            while not all(len(node.ledger) for node in cluster.nodes):
                await asyncio.sleep(0.01)
            for reason, payload in HOSTILE:
                before = cluster.rejected[reason]
                reader, writer = await asyncio.open_connection(
                    cluster.host, cluster._ports[0]
                )
                writer.write(payload)
                # the replica closes this connection, and only this one
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
                assert cluster.rejected[reason] == before + 1, (reason, payload[:12])
            marks.extend(len(node.ledger) for node in cluster.nodes)
            await run

        asyncio.run(scenario())
        assert sum(cluster.rejected.values()) == len(HOSTILE)
        assert cluster.decode_errors == cluster.rejected["decode_error"] == 3
        ledgers = [node.ledger for node in cluster.nodes]
        check_prefix_consistency(ledgers)
        assert all(len(ledger) > mark for ledger, mark in zip(ledgers, marks))
        # An exception escaping a callback or task is an ERROR on this logger
        # (-X dev also warns there about slow callbacks: not what this pins).
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r for r in errors if r.name == "asyncio"] == []

    def test_well_formed_frames_before_a_bad_one_are_delivered(self):
        cluster = TcpCluster([Burst for _ in range(2)])
        echo = BlockEcho(round=7, author=1, digest=bytes(32))

        async def scenario():
            run = asyncio.ensure_future(cluster.run(0.4))
            while not cluster._links:
                await asyncio.sleep(0.005)
            reader, writer = await asyncio.open_connection(cluster.host, cluster._ports[0])
            writer.write(
                HELLO + _encode_frame(encode_message(echo)) + _encode_frame(b"\xff")
            )
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            await run

        asyncio.run(scenario())
        assert (1, 7) in cluster.nodes[0].received
        assert cluster.rejected == {"decode_error": 1}


class TestTcpConsensus:
    def test_lightdag2_commits_over_tcp(self):
        cluster = run(TcpCluster(build_factories(LightDag2Node)), 3.0)
        ledgers = [node.ledger for node in cluster.nodes]
        check_prefix_consistency(ledgers)
        assert all(len(ledger) > 0 for ledger in ledgers)
        assert cluster.frames_sent > 0
        # only frames in flight at teardown may be missing
        assert 0.99 * cluster.frames_sent <= cluster.frames_received <= cluster.frames_sent
        assert cluster.decode_errors == 0 and not cluster.rejected

    def test_lightdag1_commits_over_tcp(self):
        cluster = run(TcpCluster(build_factories(LightDag1Node)), 3.0)
        ledgers = [node.ledger for node in cluster.nodes]
        check_prefix_consistency(ledgers)
        assert all(len(ledger) > 0 for ledger in ledgers)

    def test_payload_survives_the_wire(self):
        cluster = run(TcpCluster(build_factories(LightDag2Node, batch=7)), 3.0)
        committed = [r.count for r in cluster.nodes[0].ledger if r.count]
        assert committed and all(c == 7 for c in committed)
