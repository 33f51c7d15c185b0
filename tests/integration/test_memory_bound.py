"""Long-run memory boundedness at scale (the PR-10 acceptance run).

A replica that runs forever must hold O(window) protocol state, not
O(history): with ``gc_depth`` set, the DAG store, broadcast-instance
trackers, dedup maps, and per-round bookkeeping are all swept below the
commit-horizon watermark.  The only thing allowed to grow with the run
is the committed ledger itself (append-only by design — it *is* the
output of consensus).

Two angles:

* **Object counts** — deterministic bounds on every round-keyed
  container after 60+ rounds at n=33 (fan-out 32, so the vectorized
  delivery-batch engine is exercised while we measure).
* **tracemalloc** — heap growth between round 32 and round 64 must be
  linear-in-ledger only: a small per-round allowance, no acceleration,
  and no transient peak far above the steady state.
"""

import sys
import tracemalloc
from collections.abc import Collection

import pytest

from repro.broadcast.base import InstanceState
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulation

#: Per-round heap allowance (KiB).  The committed ledger at n=33 and
#: batch_size=5 measures ~260 KiB/round of CommitRecords and retained
#: blocks; 768 KiB leaves 3x headroom without masking a real leak
#: (un-GC'd broadcast state at this scale accrues several MiB/round).
LEDGER_ALLOWANCE_KIB = 768


def build_sim(n, gc_depth, seed=1):
    system = SystemConfig(n=n, crypto="null", seed=seed)
    protocol = ProtocolConfig(batch_size=5, gc_depth=gc_depth)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    return Simulation(
        [
            (lambda net, i=i: LightDag2Node(net, system, protocol, chains[i]))
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
        """60+ rounds at n=33 (vectorized-batch regime): heap growth in
        the second half is ledger-only, and every round-keyed container
        ends O(window)."""
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
