"""Long-run memory boundedness at scale (the PR-10 acceptance run).

A replica that runs forever must hold O(window) protocol state, not
O(history): with ``gc_depth`` set, the DAG store, broadcast-instance
trackers, dedup maps, and per-round bookkeeping are all swept below the
commit-horizon watermark.  The only thing allowed to grow with the run
is the committed ledger — the output of consensus — and it grows by one
row of header columns per position (:mod:`repro.dag.ledger`): a
committed block's body is freed once the store prunes it, and its digest
leaves the committed-digest set once it is below the GC horizon.

Three angles:

* **Object counts** — deterministic bounds on every round-keyed
  container after 60+ rounds at n=33 (fan-out 32).
* **tracemalloc** — heap growth between round 32 and round 64 must be
  linear-in-ledger only: a small per-round allowance, no acceleration,
  and no transient peak far above the steady state.
* **Release** — committed blocks below every replica's store horizon are
  garbage (weak references die), in the simulator; over real TCP, where
  each replica decodes its own copy of every block, the heap retained per
  committed position is pinned.
"""

import asyncio
import gc
import sys
import tracemalloc
import weakref
from collections.abc import Collection

import pytest

from repro.broadcast.base import InstanceState
from repro.check import deep_audit
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.dag.block import Block, TxBatch
from repro.dag.ledger import check_prefix_consistency
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulation
from repro.net.tcp import TcpCluster
from repro.workload.txgen import Mempool

#: Per-round heap allowance (KiB).  The committed ledger at n=33 and
#: batch_size=5 measures ~113 KiB/round (Python 3.11): per replica and
#: position a row of the columns — five 4- or 8-byte array cells and four
#: list slots, ~60 B — plus the committed blocks' parent tuples, which
#: every replica's columns share.  The committed-digest set is shed below
#: the GC horizon, so it no longer grows.  It was ~314 KiB/round when each
#: position was a 112 B entry object with its own position int and the
#: set kept every digest.  160 KiB is under half of that: it fails if
#: either comes back.
LEDGER_ALLOWANCE_KIB = 160

#: Heap retained per committed position over loopback TCP, summed over
#: 4 replicas (Python 3.11, batch 100, positions 600 to 1200): 3708 B
#: when the ledger kept every committed block, 1595 B with one entry
#: object per position, 1204 B with columns and a shed digest set.  The
#: bound is the columnar figure plus a fifth.
TCP_BYTES_PER_POSITION = 1445


def build_sim(n, gc_depth, seed=1, crypto="null", on_commit=None, payloads=False):
    system = SystemConfig(n=n, crypto=crypto, seed=seed)
    protocol = ProtocolConfig(batch_size=5, gc_depth=gc_depth)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    return Simulation(
        [
            (lambda net, i=i: LightDag2Node(
                net, system, protocol, chains[i], on_commit=on_commit,
                payload_source=(
                    Mempool.from_config(protocol).take if payloads else None
                ),
            ))
            for i in range(n)
        ],
        latency_model=FixedLatency(0.01),
        seed=seed,
    )


def run_to_round(sim, target, until):
    sim.run(
        until=until,
        stop_when=lambda s: all(n.current_round >= target for n in s.nodes),
    )
    assert sim.nodes[0].current_round >= target, "run stalled before target"


class TestLongRunMemory:
    def test_heap_flat_after_gc_watermark_at_n33(self):
        """60+ rounds at n=33: heap growth in the second half is
        ledger-only, and every round-keyed container ends O(window)."""
        n, gc_depth = 33, 8
        sim = build_sim(n=n, gc_depth=gc_depth)
        tracemalloc.start()
        try:
            run_to_round(sim, 32, until=40.0)
            first, _ = tracemalloc.get_traced_memory()
            run_to_round(sim, 64, until=80.0)
            second, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        rounds = 32
        growth_per_round_kib = (second - first) / rounds / 1024
        assert growth_per_round_kib < LEDGER_ALLOWANCE_KIB, (
            f"heap grew {growth_per_round_kib:.0f} KiB/round after the GC "
            f"watermark engaged — protocol state is leaking past gc_depth"
        )
        # No acceleration: the second 32 rounds must not allocate more
        # than the first 32 (which include all one-time setup).
        assert second - first <= first
        # No transient blowup either — peak tracks the steady state.
        assert peak <= second * 1.5

        node = sim.nodes[0]
        window = node.current_round - node.store.lowest_retained_round() + 1
        assert window <= 4 * gc_depth  # the store window itself is bounded

        # Broadcast-instance trackers: O(n * window), not O(n * rounds).
        per_author_bound = 2 * window * n
        for name in ("pbc", "cbc"):
            tracker = getattr(node, name).tracker
            assert len(tracker._instances) <= per_author_bound, (
                f"{name} tracker holds {len(tracker._instances)} instances"
            )

        # Dedup maps are round-stamped and swept with the same horizon.
        assert len(node._known) <= per_author_bound
        assert len(node._invalid) <= per_author_bound
        assert len(node.voted_refs) <= per_author_bound  # (round, author) keys

        # The simulator's own queue holds in-flight traffic only.
        assert sim.pending_events <= 8 * n * n

    def test_gc_contrast_at_n16(self):
        """Same workload with and without gc_depth: the GC'd run's
        broadcast trackers and store stay a small fraction of the
        unbounded run's."""
        kept = build_sim(n=16, gc_depth=None, seed=2)
        run_to_round(kept, 40, until=40.0)
        swept = build_sim(n=16, gc_depth=8, seed=2)
        run_to_round(swept, 40, until=40.0)

        for name in ("pbc", "cbc"):
            full = len(getattr(kept.nodes[0], name).tracker._instances)
            pruned = len(getattr(swept.nodes[0], name).tracker._instances)
            assert pruned < full / 2, (
                f"{name}: {pruned} instances with GC vs {full} without"
            )
        assert len(swept.nodes[0]._known) < len(kept.nodes[0]._known) / 2
        assert len(swept.nodes[0].store) < len(kept.nodes[0].store)

        # GC must not have cost agreement: both runs commit a ledger.
        assert len(swept.nodes[0].ledger) > 0
        assert len(kept.nodes[0].ledger) > 0

        # The committed-digest set forgets positions below the GC horizon;
        # without gc_depth it keeps every one.
        kept_ledger, swept_ledger = kept.nodes[0].ledger, swept.nodes[0].ledger
        assert kept_ledger.shed_horizon == 0
        assert len(kept_ledger.committed_digests) == len(kept_ledger)
        store_low = swept.nodes[0].store.lowest_retained_round()
        assert 1 < swept_ledger.shed_horizon <= store_low
        assert len(swept_ledger.committed_digests) < len(swept_ledger) / 2


def reachable_from(root):
    """Every object reachable from ``root`` without passing through a
    class (a class reaches its module's globals)."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


class TestCommittedBodiesReleased:
    def test_blocks_below_every_horizon_are_garbage(self):
        """The ledger keeps headers: once every replica's store has pruned
        a committed block, nothing holds the block any more."""
        seen, txs = {}, {}

        def on_commit(record):
            block = record.block
            if block.digest not in seen:
                seen[block.digest] = (block.round, weakref.ref(block))
                txs[block.digest] = block.payload.count

        sim = build_sim(n=7, gc_depth=8, seed=3, crypto="hmac",
                        on_commit=on_commit, payloads=True)
        run_to_round(sim, 40, until=100.0)
        horizon = min(node.store.lowest_retained_round() for node in sim.nodes)
        assert horizon > 8  # every replica pruned
        gc.collect()
        below = [ref for round_, ref in seen.values() if round_ < horizon]
        assert len(below) >= 7 * (horizon - 2)
        assert all(ref() is None for ref in below)
        ledger = sim.nodes[0].ledger
        assert not [
            obj for obj in reachable_from(ledger)
            if isinstance(obj, (Block, TxBatch))
        ]

        # What the ledger answers from its headers is unchanged.
        sequence = ledger.digest_sequence()
        assert sequence == [r.digest for r in ledger]
        assert ledger.total_transactions() == sum(txs[d] for d in sequence) > 0
        check_prefix_consistency([node.ledger for node in sim.nodes])
        assert deep_audit(sim.nodes) == []

    def test_tcp_heap_per_committed_position(self):
        """Over TCP every replica decodes its own copy of each block, so a
        ledger that kept blocks retained n bodies per position."""
        system = SystemConfig(n=4, crypto="hmac", seed=1)
        protocol = ProtocolConfig(batch_size=100, gc_depth=8)
        chains = TrustedDealer(
            system, coin_threshold=protocol.resolve_coin_threshold(system)
        ).deal()
        mempools = [Mempool.from_config(protocol) for _ in range(system.n)]
        low, high = 600, 1200
        heap = {}
        stop = []

        def on_commit(record):
            if record.position + 1 in (low, high):
                gc.collect()  # retained, not yet-uncollected, heap
                heap[record.position + 1] = tracemalloc.get_traced_memory()[0]
                if record.position + 1 == high:
                    stop[0]()

        def factory(i):
            return lambda net: LightDag2Node(
                net, system, protocol, chains[i],
                payload_source=mempools[i].take,
                on_commit=on_commit if i == 0 else None,
            )

        cluster = TcpCluster([factory(i) for i in range(system.n)])

        async def drive():
            done = asyncio.Event()
            stop.append(done.set)
            run = asyncio.ensure_future(cluster.run(60.0))
            waiter = asyncio.ensure_future(done.wait())
            await asyncio.wait({run, waiter}, return_when=asyncio.FIRST_COMPLETED)
            waiter.cancel()
            run.cancel()
            try:
                await run
            except asyncio.CancelledError:
                pass

        tracemalloc.start()
        try:
            asyncio.run(drive())
        finally:
            tracemalloc.stop()
        assert set(heap) == {low, high}, "the run stopped before 1200 positions"
        check_prefix_consistency([node.ledger for node in cluster.nodes])
        per_position = (heap[high] - heap[low]) / (high - low)
        assert per_position <= TCP_BYTES_PER_POSITION, (
            f"{per_position:.0f} B retained per committed position"
        )


class TestVoteStateIsDense:
    """The vote tallies are the one per-replica structure that could grow
    as n² per round (one entry per voter per block); as bitmasks they are
    n *bits* per block.  Pin that, so a container cannot come back."""

    def test_instance_holds_no_container_and_votes_fit_two_ints_at_n33(self):
        n = 33
        sim = build_sim(n=n, gc_depth=8)
        run_to_round(sim, 12, until=20.0)
        node = sim.nodes[0]
        ceiling = 2 * sys.getsizeof(1 << n)
        live = 0
        for name in ("pbc", "cbc"):
            for inst in getattr(node, name).tracker._instances.values():
                live += 1
                for slot in InstanceState.__slots__:
                    value = getattr(inst, slot)
                    assert not isinstance(value, Collection), (
                        f"{name} InstanceState.{slot} is a {type(value).__name__}"
                    )
                votes = sys.getsizeof(inst.echoers) + sys.getsizeof(inst.readiers)
                assert votes <= ceiling, f"{votes} B of vote state in one instance"
        assert live >= n  # the window was not empty when we looked
        full = max(
            inst.echoers.bit_count() for inst in node.cbc.tracker._instances.values()
        )
        assert full >= n - (n - 1) // 3  # and quorums of voters were in it
