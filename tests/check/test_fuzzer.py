"""Fuzzer end-to-end tests, including the oracle self-test.

The self-test is the core of the tentpole: deliberately broken protocol
variants (``repro.check.mutants``) must be caught *and shrunk* by the
fuzzer, proving the oracles can actually fire.  The seeds used here were
found by sweeping; the generator is a pure function of (seed, n,
protocol, duration), so they stay stable.
"""

import shlex
from dataclasses import replace

import pytest

from repro.check.fuzzer import (
    FuzzCase,
    build_config,
    fuzz,
    make_case,
    probe_health,
    run_case,
    shrink,
)
from repro.check.mutants import MUTANT_REGISTRY
from repro.cli import build_parser
from repro.errors import ConfigError
from repro.harness.runner import PROTOCOL_REGISTRY

REGISTRY = {**PROTOCOL_REGISTRY, **MUTANT_REGISTRY}

#: (protocol, seed, duration) cells known to trip the oracles: the first
#: killing seed of a sweep over seeds 0-1099 against each mutant.  Which
#: seeds kill depends on the trajectory; CI asserts the whole sweep kills.
KNOWN_BAD = {
    "lightdag1-unsafe-support": (283, 8.0),
    "lightdag1-no-cascade": (172, 10.0),
}


class TestCasePlumbing:
    def test_make_case_deterministic(self):
        a = make_case("lightdag2", 5)
        b = make_case("lightdag2", 5)
        assert a == b
        assert a.schedule  # non-empty generated schedule

    def test_command_round_trips_through_cli_grammar(self):
        """Every field of a case survives its printed reproducer, parsed
        the way ``repro fuzz --schedule`` parses it."""
        for case in (
            make_case("lightdag1", 3, n=7, duration=5.0),
            make_case("lightdag1", 3, duration=6.1234567),  # gc_depth set
            FuzzCase(protocol="lightdag2", seed=1, n=4, duration=0.1 + 0.2,
                     schedule="delay@0+inf:max=0.2"),
        ):
            argv = shlex.split(case.command())
            assert argv[:3] == ["python", "-m", "repro"]
            args = build_parser().parse_args(argv[3:])
            (protocol,) = args.protocol
            replayed = FuzzCase(
                protocol=protocol, seed=args.seed_start, n=args.replicas,
                duration=args.duration, schedule=args.schedule,
                gc_depth=args.gc_depth,
            )
            assert replayed == case

    def test_build_config_enables_full_checks(self):
        case = make_case("lightdag2", 1)
        cfg = build_config(case)
        assert cfg.check_level == "full"
        assert cfg.adversary_name == f"schedule:{case.schedule}"

    def test_gc_depth_rotation(self):
        assert make_case("lightdag2", 0).gc_depth is not None
        assert make_case("lightdag2", 1).gc_depth is None

    def test_run_case_clean(self):
        assert run_case(make_case("lightdag2", 1, duration=4.0)) is None

    def test_invalid_case_raises_config_error(self):
        case = FuzzCase(
            protocol="lightdag1", seed=0, n=4, duration=4.0,
            schedule="crash@0+0:victims=9",
        )
        with pytest.raises(ConfigError):
            run_case(case)


class TestMutantSelfTest:
    @pytest.mark.parametrize("mutant", sorted(MUTANT_REGISTRY))
    def test_mutant_caught(self, mutant):
        seed, duration = KNOWN_BAD[mutant]
        case = make_case(mutant, seed, n=4, duration=duration)
        error = run_case(case, registry=REGISTRY)
        assert error is not None
        assert "InvariantViolation" in error
        assert "commit-metadata-agreement" in error
        # The kill is the mutant's, not the schedule's: the clean protocol
        # survives the exact same case.
        clean = replace(case, protocol="lightdag1")
        assert run_case(clean, registry=REGISTRY) is None

    def test_mutant_shrunk_and_still_failing(self):
        seed, duration = KNOWN_BAD["lightdag1-unsafe-support"]
        case = make_case("lightdag1-unsafe-support", seed, n=4, duration=duration)
        shrunk, attempts = shrink(case, registry=REGISTRY, budget_s=30.0)
        assert attempts > 0
        assert run_case(shrunk, registry=REGISTRY) is not None
        # The shrunk case is no larger than the original on every axis.
        assert shrunk.n <= case.n
        assert shrunk.duration <= case.duration
        assert len(shrunk.schedule) <= len(case.schedule)

    def test_fuzz_reports_mutant_failure(self):
        seed, duration = KNOWN_BAD["lightdag1-unsafe-support"]
        report = fuzz(
            protocols=["lightdag1-unsafe-support"],
            seeds=[seed],
            duration=duration,
            registry=REGISTRY,
            shrink_failures=False,
        )
        assert report.runs == 1
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert "InvariantViolation" in failure.error
        assert failure.minimal().command().startswith("python -m repro fuzz")
        # Every failure carries the watchdog's verdict from a replay of
        # its minimal case.
        assert failure.health is not None
        assert failure.health["verdict"] in (
            "healthy", "degraded", "stalled", "no-progress"
        )


class TestHealthProbe:
    def test_clean_case_is_healthy(self):
        summary = probe_health(make_case("lightdag2", 1, duration=4.0))
        assert summary["verdict"] == "healthy"
        assert sum(summary["commits_by_node"].values()) > 0

    def test_slowed_quorums_inflate(self):
        # Warm-up quorums set the baseline; the delay phase then stretches
        # body→quorum waits, which the watchdog reads off the trace.body /
        # trace.quorum milestones of the probe's own journal.
        case = FuzzCase("lightdag2", 1, 4, 6.0, "delay@3+2:max=0.5")
        summary = probe_health(case)
        assert summary["alerts"].get("health.quorum_inflation", 0) >= 1
        assert summary["verdict"] == "degraded"

    def test_probe_survives_oracle_violation(self):
        seed, duration = KNOWN_BAD["lightdag1-unsafe-support"]
        case = make_case("lightdag1-unsafe-support", seed, n=4,
                         duration=duration)
        summary = probe_health(case, registry=REGISTRY)
        # The run dies on an InvariantViolation mid-flight; the watchdog
        # still reports the vitals it saw up to that point.
        assert "verdict" in summary and "alerts" in summary


class TestSweep:
    def test_small_clean_sweep(self):
        report = fuzz(
            protocols=["lightdag1", "lightdag2"],
            seeds=range(2),
            duration=4.0,
        )
        assert report.ok
        assert report.runs == 4
        assert report.runs_by_protocol == {"lightdag1": 2, "lightdag2": 2}

    def test_time_box_degrades_gracefully(self):
        report = fuzz(
            protocols=["lightdag1", "lightdag2"],
            seeds=range(50),
            duration=4.0,
            time_box=0.0,
        )
        assert report.timed_out
        assert report.runs <= 1


class TestShrinkMemoization:
    def test_shrink_never_replays_a_rejected_candidate(self):
        """Regression: the move set regenerates candidates verbatim — the
        n=4 reduction rejected at n=6 reappears identically once n=6->5
        lands — and each replay used to burn a full simulation run from
        the attempt counter.  With the memo, every executed candidate is
        distinct."""
        from repro.adversary.schedule import FaultSchedule

        full = FaultSchedule.from_spec(
            "partition@1+1.5:group=1;crash@2+0:victims=2"
        ).to_spec()
        # duration=3.0 disables the halving move, so the only moves are
        # phase drops and replica reduction — the regeneration scenario.
        base = FuzzCase(
            protocol="lightdag1", seed=0, n=6, duration=3.0, schedule=full
        )
        calls = []

        def runner(candidate, registry=None):
            calls.append(candidate)
            failing = candidate.n >= 5 and candidate.schedule == full
            return "InvariantViolation: synthetic" if failing else None

        shrunk, attempts = shrink(base, runner=runner, budget_s=60.0)
        # The stub's fixed point: n=5 with the full schedule.
        assert shrunk.n == 5
        assert shrunk.schedule == full
        # Every runner call burned one attempt, and the n=4 candidate —
        # regenerated at n=5 after its rejection at n=6 — came from the
        # memo, so no candidate ever executed twice.
        assert attempts == len(calls)
        assert len(calls) == len(set(calls))
        assert base not in calls  # the seed verdict is pre-memoized
