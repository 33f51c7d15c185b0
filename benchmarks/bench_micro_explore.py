"""Micro-benchmarks: explorer throughput (states/second) and its parts.

The explorer's usable bound is set by three costs per explored state:
snapshot capture, snapshot restore, and the canonical fingerprint.
These benches time each in isolation plus the end-to-end DFS rate, so a
regression in any one (e.g. the pickle fast path losing its per-type
persistent-id cache) shows up as a named number instead of a slower CI
explore-smoke job.  Figures measured at PR 7 are in
docs/history/BENCH_HISTORY.md.
"""

import pytest

from repro.check.explorer import (
    ExploreConfig,
    _candidates,
    _execute,
    build_world,
    explore,
    state_fingerprint,
)


def advanced_world(cfg):
    """A mid-exploration state: deeper object graphs than the initial one."""
    world = build_world(cfg, None)
    for _ in range(12):
        actions = _candidates(world.sim, cfg)
        if not actions:
            break
        _execute(world.sim, actions[0][1])
    return world


CFG = ExploreConfig(protocol="lightdag1", max_rounds=2, max_inflight=2)


def test_snapshot_capture(benchmark):
    """One World.snapshot() on a mid-exploration state."""
    world = advanced_world(CFG)
    snap = benchmark(world.snapshot)
    assert snap is not None


def test_snapshot_restore(benchmark):
    """One restore() back to a captured mid-exploration state."""
    world = advanced_world(CFG)
    snap = world.snapshot()
    benchmark(snap.restore)
    assert _candidates(world.sim, CFG)


def test_state_fingerprint(benchmark):
    """Canonical hash of the full world state (all replicas + queue)."""
    world = advanced_world(CFG)
    digest = benchmark(state_fingerprint, world.sim)
    assert len(digest) == 32


def test_explore_states_per_second(benchmark):
    """End-to-end DFS rate over the single-window chain configuration."""
    cfg = ExploreConfig(protocol="lightdag1", max_rounds=3, max_inflight=1)

    def run():
        report = explore(cfg)
        assert report.complete and report.ok
        return report.states_explored

    states = benchmark(run)
    assert states > 100


@pytest.mark.parametrize("por", [True, False], ids=["por", "no-por"])
def test_explore_branchy_window(benchmark, por):
    """The branchy window, with and without sleep-set reduction — the
    gap between the two is what POR buys at this size."""
    cfg = ExploreConfig(
        protocol="lightdag1", max_rounds=1, max_inflight=2, por=por
    )

    def run():
        report = explore(cfg)
        assert report.complete and report.ok
        return report.states_explored

    assert benchmark(run) > 100
