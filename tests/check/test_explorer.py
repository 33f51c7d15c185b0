"""The exhaustive schedule explorer: enumeration, POR soundness, replay,
the grammar hunt that catches the registry-excluded mutants, and the
monitor-rewind regression.
"""

from __future__ import annotations

import pytest

from repro.check.explorer import (
    ExploreConfig,
    HuntConfig,
    build_world,
    default_registry,
    explore,
    hunt,
    path_to_schedule,
    replay_schedule,
    schedule_to_path,
    state_fingerprint,
)
from repro.check.fuzzer import FuzzCase, run_case
from repro.core.lightdag1 import LightDag1Node
from repro.errors import ConfigError, InvariantViolation


# ---------------------------------------------------------- clean enumeration


class TestCleanEnumeration:
    def test_chain_config_fully_enumerated_no_violations(self):
        cfg = ExploreConfig(protocol="lightdag1", max_rounds=3, max_inflight=1)
        report = explore(cfg)
        assert report.complete
        assert report.ok
        assert report.leaves >= 1
        assert report.states_explored > 100

    def test_branchy_config_fully_enumerated_no_violations(self):
        # Thousands of snapshot/restore cycles over a branchy clean tree
        # with the monitor armed at every step: this doubles as the
        # systemic regression for monitor state leaking across branches
        # (stale first-writer-wins positions would false-fire
        # commit-metadata-agreement here).
        cfg = ExploreConfig(protocol="lightdag1", max_rounds=1, max_inflight=2)
        report = explore(cfg)
        assert report.complete
        assert report.ok
        # Pruning must actually engage on a branchy tree.
        assert report.states_pruned > 0
        assert report.distinct_states < report.states_explored

    def test_distinct_states_stable_across_jobs(self):
        cfg = ExploreConfig(protocol="lightdag1", max_rounds=3, max_inflight=1)
        serial = explore(cfg, jobs=1)
        sharded = explore(cfg, jobs=2)
        assert serial.complete and sharded.complete
        assert serial.distinct_states == sharded.distinct_states
        assert serial.fingerprints == sharded.fingerprints
        assert serial.leaves == sharded.leaves

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


# ------------------------------------------------- hunt: the mutant catchers


class TestMutantHunt:
    def check_mutant(self, protocol: str, seeds):
        report = hunt(
            HuntConfig(protocol=protocol, seeds=seeds), shrink_budget_s=15.0
        )
        assert report.violations, f"{protocol} survived the schedule grid"
        violation = report.violations[0]
        assert "commit-metadata-agreement" in violation.error
        # The emitted minimal schedule must replay to a failure verbatim.
        case = FuzzCase(
            protocol=violation.protocol,
            seed=violation.seed,
            n=4,
            duration=8.0,
            schedule=violation.schedule,
        )
        assert run_case(case, registry=default_registry()) is not None
        assert "--schedule" in violation.command
        return report

    def test_unsafe_support_mutant_is_caught(self):
        self.check_mutant("lightdag1-unsafe-support", seeds=(0,))

    def test_no_cascade_mutant_is_caught(self):
        self.check_mutant("lightdag1-no-cascade", seeds=(1,))

    def test_clean_protocol_survives_the_same_grid(self):
        report = hunt(
            HuntConfig(
                protocol="lightdag1", seeds=(0, 1), stop_on_violation=False
            ),
            jobs=2,
        )
        assert report.complete
        assert report.ok
        assert report.cells_explored == 48


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

    def test_unknown_protocol_is_a_config_error(self):
        with pytest.raises(ConfigError):
            build_world(ExploreConfig(protocol="nope"), None)
