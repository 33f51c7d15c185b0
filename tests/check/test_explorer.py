"""The exhaustive schedule explorer: pinned enumeration counts, POR
soundness, replay, and the monitor-rewind regression.  The
registry-excluded commit-rule mutants need message loss, so they are
killed by the fuzzer (``tests/check/test_fuzzer.py``), not here.
"""

from __future__ import annotations

import pytest

from repro.check.explorer import (
    ExploreConfig,
    build_world,
    default_registry,
    explore,
    path_to_schedule,
    replay_schedule,
    schedule_to_path,
    state_fingerprint,
)
from repro.core.lightdag1 import LightDag1Node
from repro.errors import ConfigError, InvariantViolation


# ---------------------------------------------------------- clean enumeration


#: Exact counts per enumeration, keyed by (protocol, rounds): (explored,
#: distinct, pruned, leaves, transitions, sleep skips).  Any change to
#: stepping, canonical action order, fingerprinting or sleep sets moves at
#: least one of them.
CHAIN_COUNTS = {
    ("lightdag1", 3): (206, 206, 0, 1, 205, 0),
    ("lightdag2", 3): (98, 98, 0, 1, 97, 0),
    ("bullshark", 2): (248, 248, 0, 1, 247, 0),
}
BRANCHY_COUNTS = {
    ("lightdag1", 1): (3070, 2134, 790, 1, 3069, 1426),
}


def enumerate_pinned(pins, max_inflight: int) -> list:
    reports = []
    for (protocol, rounds), expected in pins.items():
        cfg = ExploreConfig(
            protocol=protocol, max_rounds=rounds, max_inflight=max_inflight
        )
        report = explore(cfg)
        assert report.complete and report.ok, (protocol, rounds)
        got = (
            report.states_explored,
            report.distinct_states,
            report.states_pruned,
            report.leaves,
            report.transitions,
            report.sleep_skips,
        )
        assert got == expected, (protocol, rounds)
        reports.append(report)
    return reports


class TestCleanEnumeration:
    def test_chain_config_fully_enumerated_no_violations(self):
        enumerate_pinned(CHAIN_COUNTS, max_inflight=1)

    def test_branchy_config_fully_enumerated_no_violations(self):
        # Thousands of snapshot/restore cycles over a branchy clean tree
        # with the monitor armed at every step: this doubles as the
        # systemic regression for monitor state leaking across branches
        # (stale first-writer-wins positions would false-fire
        # commit-metadata-agreement here).
        for report in enumerate_pinned(BRANCHY_COUNTS, max_inflight=2):
            # Pruning must actually engage on a branchy tree.
            assert report.states_pruned > 0
            assert report.distinct_states < report.states_explored

    def test_single_window_is_a_single_path(self):
        # max_inflight=1 leaves exactly one schedulable decision per
        # state: the DFS degenerates to one complete run with one leaf.
        cfg = ExploreConfig(protocol="lightdag1", max_rounds=2, max_inflight=1)
        report = explore(cfg)
        assert report.complete and report.leaves == 1


# ------------------------------------------------------------- POR soundness


class TripwireNode(LightDag1Node):
    """Order-sensitive failure for POR tests: replica 2 trips if it
    delivers a block authored by replica 3 before any block authored by
    replica 1 — reachable under some interleavings and not others, and
    both decisions target replica 2, so a sound reduction must keep it."""

    def _on_deliver(self, block):
        seen = self.__dict__.setdefault("_tripwire_seen", set())
        if self.node_id == 2 and block.author == 3 and 1 not in seen:
            raise InvariantViolation(
                f"tripwire: 3 before 1 at replica 2 (seen={sorted(seen)})"
            )
        seen.add(block.author)
        super()._on_deliver(block)


TRIPWIRE_REGISTRY = dict(default_registry())
TRIPWIRE_REGISTRY["lightdag1-tripwire"] = TripwireNode

TRIPWIRE_CFG = ExploreConfig(
    protocol="lightdag1-tripwire",
    max_rounds=1,
    max_inflight=2,
    stop_on_violation=False,
    max_states=60_000,
)


class TestPorSoundness:
    def run(self, por: bool):
        cfg = ExploreConfig(
            protocol=TRIPWIRE_CFG.protocol,
            max_rounds=TRIPWIRE_CFG.max_rounds,
            max_inflight=TRIPWIRE_CFG.max_inflight,
            stop_on_violation=False,
            max_states=TRIPWIRE_CFG.max_states,
            por=por,
        )
        return explore(cfg, registry=TRIPWIRE_REGISTRY, shrink_budget_s=0.0)

    def test_por_finds_every_failure_mode_full_search_finds(self):
        with_por = self.run(por=True)
        without = self.run(por=False)
        assert with_por.complete and without.complete
        # The corpus must actually contain order-dependent failures.
        assert without.violations
        found_with = {v.error for v in with_por.violations}
        found_without = {v.error for v in without.violations}
        assert found_without <= found_with
        # And the reduction must actually reduce work, not just match.
        assert with_por.sleep_skips > 0
        assert with_por.transitions <= without.transitions


# ------------------------------------------------------------ replay grammar


class TestOrderGrammar:
    def test_path_round_trips_through_schedule(self):
        for path in ((), (0,), (3, 1, 0, 11)):
            assert schedule_to_path(path_to_schedule(path)) == path

    def test_timed_run_rejects_order_schedules(self):
        from repro.adversary.schedule import FaultSchedule
        from repro.config import SystemConfig

        spec = path_to_schedule((2, 0, 1))
        with pytest.raises(ConfigError):
            FaultSchedule.from_spec(spec).validate(
                SystemConfig(n=4), "lightdag1"
            )

    def test_violating_path_shrinks_and_replays_identically(self):
        cfg = ExploreConfig(
            protocol="lightdag1-tripwire",
            max_rounds=1,
            max_inflight=2,
            stop_on_violation=True,
        )
        report = explore(cfg, registry=TRIPWIRE_REGISTRY, shrink_budget_s=5.0)
        assert report.violations
        violation = report.violations[0]
        assert violation.schedule
        assert "--schedule" in violation.command
        replayed = replay_schedule(
            cfg, violation.schedule, registry=TRIPWIRE_REGISTRY
        )
        assert replayed is not None
        assert replayed.error == violation.error


# ----------------------------------------- monitor rewind (snapshot bugfix)


class TestMonitorRewind:
    def test_monitor_bookkeeping_rewinds_with_the_branch(self):
        """A violation's bookkeeping recorded on one branch must not leak
        into a sibling branch after restore (stale first-writer-wins
        position entries would fire commit-metadata-agreement falsely).
        The systemic form is the branchy clean enumeration above; this is
        the direct probe."""
        cfg = ExploreConfig(protocol="lightdag1", max_rounds=2)
        world = build_world(cfg, None)
        monitor = world.cluster.monitor
        snap = world.snapshot()
        before = (
            monitor.commits_checked,
            dict(monitor._next_position),
            dict(monitor._positions),
        )
        # Poison the monitor the way a diverging branch would: position
        # claims that a sibling branch will contradict.
        monitor.commits_checked += 99
        monitor._next_position[0] = 1234
        monitor._positions[0] = (b"\x00" * 32, 7, b"\x11" * 32, 1)
        snap.restore()
        after = (
            monitor.commits_checked,
            dict(monitor._next_position),
            dict(monitor._positions),
        )
        assert after == before


# ---------------------------------------------------------------- misc model


class TestFingerprint:
    def test_fingerprint_separates_state_not_process(self):
        cfg = ExploreConfig(protocol="lightdag1", max_rounds=2)
        a = build_world(cfg, None)
        b = build_world(cfg, None)
        assert state_fingerprint(a.sim) == state_fingerprint(b.sim)
        from repro.check.explorer import _candidates, _execute

        actions = _candidates(a.sim, cfg)
        _execute(a.sim, actions[0][1])
        assert state_fingerprint(a.sim) != state_fingerprint(b.sim)

    def test_ledger_columns_are_part_of_the_fingerprint(self):
        """The ledger stores commit times in an ``array``: two replicas
        that differ only there must not share a state digest."""
        from repro.check.explorer import _node_digest

        cfg = ExploreConfig(protocol="lightdag1", max_rounds=2)
        a = build_world(cfg, None).sim.nodes[0]
        b = build_world(cfg, None).sim.nodes[0]
        for node, commit_time in ((a, 1.0), (b, 1.5)):
            block = node.store.blocks_in_round(0)[0]
            node.ledger.append(block, commit_time, block.digest, 0)
        assert a.ledger.digest_sequence() == b.ledger.digest_sequence()
        assert _node_digest(a) != _node_digest(b)
        b.ledger.columns.commit_time[0] = 1.0
        assert _node_digest(a) == _node_digest(b)

    def test_unknown_protocol_is_a_config_error(self):
        with pytest.raises(ConfigError):
            build_world(ExploreConfig(protocol="nope"), None)
