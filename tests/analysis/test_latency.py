"""Tests for repro.analysis.latency: stage decomposition + critical path.

The load-bearing acceptance check lives in ``TestEndToEnd``: on a real
traced n=4 run, every committed block's stage widths must sum *exactly*
to its end-to-end commit latency (the reconciliation guarantee), and the
human-readable ``repro explain`` rendering must reflect that.
"""

import pytest

from repro.analysis.latency import (
    STAGES,
    BlockTimeline,
    build_timelines,
    critical_path,
    explain_report,
    format_report,
    slowest_committed,
    stage_breakdown,
)
from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.harness.runner import run_experiment
from repro.obs import EventJournal, MetricsRegistry, Observability, Tracer


def traced_run(protocol="lightdag2", seed=1, n=4, duration=4.0, health=False):
    cfg = ExperimentConfig(
        system=SystemConfig(n=n, crypto="hmac", seed=seed),
        protocol=ProtocolConfig(batch_size=20),
        protocol_name=protocol,
        duration=duration,
        warmup=1.0,
        seed=seed,
    )
    journal = EventJournal()
    obs = Observability(MetricsRegistry(), journal, trace=Tracer(journal))
    return run_experiment(cfg, obs=obs, health=health), obs


class TestStageReconciliation:
    def test_full_timeline_telescopes(self):
        tl = BlockTimeline(
            node=0, digest="d", created=1.0, body=1.1, quorum=1.3,
            delivered=1.35, coin=1.8, committed=2.0,
        )
        stages = tl.stages()
        assert all(width >= 0 for width in stages.values())
        assert sum(stages.values()) == pytest.approx(1.0, abs=1e-12)
        assert stages["broadcast"] == pytest.approx(0.1)
        assert stages["coin"] == pytest.approx(0.45)

    def test_missing_milestones_are_zero_width(self):
        tl = BlockTimeline(node=0, digest="d", created=1.0, committed=3.0)
        stages = tl.stages()
        assert sum(stages.values()) == pytest.approx(2.0)
        # Nothing in between: the whole latency lands in 'ordering'.
        assert stages["ordering"] == pytest.approx(2.0)

    def test_out_of_range_milestone_cannot_break_sum(self):
        # A quorum recorded *after* the commit (possible when the quorum
        # crossed late at this replica) is clamped, not propagated.
        tl = BlockTimeline(
            node=0, digest="d", created=1.0, body=1.2, quorum=5.0,
            committed=2.0,
        )
        stages = tl.stages()
        assert all(width >= 0 for width in stages.values())
        assert sum(stages.values()) == pytest.approx(1.0)

    def test_unordered_milestones_stay_monotonic(self):
        # delivered < quorum (retrieval path) must not produce negatives.
        tl = BlockTimeline(
            node=0, digest="d", created=0.0, body=0.5, quorum=0.9,
            delivered=0.6, coin=1.0, committed=1.5,
        )
        stages = tl.stages()
        assert all(width >= 0 for width in stages.values())
        assert sum(stages.values()) == pytest.approx(1.5)

    def test_incomplete_timeline_has_no_stages(self):
        assert BlockTimeline(node=0, digest="d", created=1.0).stages() is None
        assert BlockTimeline(node=0, digest="d", committed=1.0).stages() is None


class TestBuildTimelines:
    def events(self):
        return [
            {"t": 0.0, "node": 0, "type": "block.propose",
             "digest": "aa", "round": 1, "author": 0},
            {"t": 0.1, "node": 1, "type": "trace.body",
             "digest": "aa", "round": 1, "author": 0, "parents": ["pp"]},
            {"t": 0.2, "node": 1, "type": "trace.quorum", "digest": "aa"},
            {"t": 0.25, "node": 1, "type": "block.deliver",
             "digest": "aa", "round": 1, "author": 0},
            {"t": 0.5, "node": 1, "type": "coin.reveal", "wave": 1},
            {"t": 0.6, "node": 1, "type": "block.commit",
             "digest": "aa", "round": 1, "author": 0, "wave": 1},
        ]

    def test_milestones_joined_across_events(self):
        timelines = build_timelines(self.events())
        tl = timelines[(1, "aa")]
        assert tl.created == 0.0
        assert tl.body == 0.1
        assert tl.quorum == 0.2
        assert tl.delivered == 0.25
        assert tl.coin == 0.5
        assert tl.committed == 0.6
        assert tl.parents == ("pp",)
        assert tl.end_to_end == pytest.approx(0.6)

    def test_accepts_event_namedtuples(self):
        journal = EventJournal()
        for row in self.events():
            data = {k: v for k, v in row.items()
                    if k not in ("t", "node", "type")}
            journal.emit(row["t"], row["type"], row["node"], **data)
        timelines = build_timelines(journal.events)
        assert timelines[(1, "aa")].committed == 0.6

    def test_breakdown_shares_sum_to_one(self):
        report = stage_breakdown(build_timelines(self.events()))
        assert report["blocks"] == 1
        shares = sum(row["share"] for row in report["stages"].values())
        assert shares == pytest.approx(1.0)
        assert report["reconciliation_max_abs_error"] < 1e-12


class TestCriticalPath:
    def test_walks_latest_delivered_parent(self):
        timelines = {
            (0, "c"): BlockTimeline(node=0, digest="c", delivered=3.0,
                                    parents=("a", "b")),
            (0, "a"): BlockTimeline(node=0, digest="a", delivered=1.0),
            (0, "b"): BlockTimeline(node=0, digest="b", delivered=2.0,
                                    parents=("a",)),
        }
        path = critical_path(timelines, 0, "c")
        assert [hop["digest"] for hop in path] == ["a", "b", "c"]
        assert path[-1]["waited_for_parent"] == pytest.approx(1.0)

    def test_cycle_guard_terminates(self):
        timelines = {
            (0, "x"): BlockTimeline(node=0, digest="x", delivered=1.0,
                                    parents=("y",)),
            (0, "y"): BlockTimeline(node=0, digest="y", delivered=0.5,
                                    parents=("x",)),
        }
        path = critical_path(timelines, 0, "x")
        assert [hop["digest"] for hop in path] == ["y", "x"]

    def test_missing_block_is_empty(self):
        assert critical_path({}, 0, "nope") == []


class TestEndToEnd:
    """Acceptance: stage sums reconcile with measured commit latency."""

    def test_stage_sums_equal_end_to_end_per_block(self):
        _, obs = traced_run()
        timelines = build_timelines(obs.journal.events)
        decomposed = 0
        for tl in timelines.values():
            stages = tl.stages()
            if stages is None:
                continue
            decomposed += 1
            assert sum(stages.values()) == pytest.approx(
                tl.end_to_end, abs=1e-9
            )
        assert decomposed > 0

    def test_report_attached_to_result_and_reconciles(self):
        """The report is derived from the journal at read time; only the
        health verdict rides on the result."""
        result, obs = traced_run(health=True)
        report = explain_report(obs.journal, protocol="lightdag2", n=4)
        assert report["blocks"] > 0
        assert report["reconciliation_max_abs_error"] < 1e-9
        mean_sum = sum(row["mean"] for row in report["stages"].values())
        assert mean_sum == pytest.approx(report["end_to_end"]["mean"],
                                         abs=1e-9)
        assert set(report["stages"]) == set(STAGES)
        assert result.health["verdict"] in (
            "healthy", "degraded", "stalled", "no-progress"
        )

    def test_critical_path_of_slowest_block_nonempty(self):
        _, obs = traced_run()
        timelines = build_timelines(obs.journal.events)
        worst = slowest_committed(timelines)
        assert worst is not None
        path = critical_path(timelines, worst.node, worst.digest)
        assert path
        assert path[-1]["digest"] == worst.digest

    def test_format_report_renders(self):
        result, obs = traced_run(health=True)
        report = explain_report(obs.journal, protocol="lightdag2", n=4)
        report["health"] = result.health
        text = format_report(report)
        for stage in STAGES:
            assert stage in text
        assert "reconciles with end-to-end mean" in text
        assert "health:" in text

    def test_report_is_json(self):
        import json

        _, obs = traced_run()
        report = explain_report(obs.journal.events, protocol="lightdag2", n=4)
        assert json.loads(json.dumps(report))["blocks"] == report["blocks"]

    def test_untraced_run_attaches_no_report(self):
        """Nothing latency-related rides on the result.  An untraced
        journal still decomposes, but with no lifecycle milestones its
        quorum stage is zero-width: why ``repro run --out`` traces."""
        cfg = ExperimentConfig(
            system=SystemConfig(n=4, crypto="hmac", seed=1),
            protocol=ProtocolConfig(batch_size=20),
            protocol_name="lightdag2",
            duration=2.0,
            warmup=0.5,
            seed=1,
        )
        obs = Observability(MetricsRegistry(), EventJournal())
        result = run_experiment(cfg, obs=obs)
        assert result.health is None
        report = explain_report(obs.journal, protocol="lightdag2", n=4)
        assert report["blocks"] > 0
        assert report["stages"]["quorum"]["max"] == 0.0


class TestTraceDeterminism:
    def test_same_seed_identical_trace_timeline(self):
        _, obs_a = traced_run(seed=3, duration=3.0)
        _, obs_b = traced_run(seed=3, duration=3.0)
        trace_a = [e for e in obs_a.journal if e.type.startswith("trace.")]
        trace_b = [e for e in obs_b.journal if e.type.startswith("trace.")]
        assert trace_a and trace_a == trace_b

    def test_tracing_does_not_perturb_results(self):
        # Tracing observes the run; it must not change what the run does.
        cfg = ExperimentConfig(
            system=SystemConfig(n=4, crypto="hmac", seed=5),
            protocol=ProtocolConfig(batch_size=20),
            protocol_name="lightdag2",
            duration=3.0,
            warmup=1.0,
            seed=5,
        )
        plain = run_experiment(cfg)
        journal = EventJournal()
        obs = Observability(MetricsRegistry(), journal, trace=Tracer(journal))
        traced = run_experiment(cfg, obs=obs, health=True)
        assert traced.committed_txs == plain.committed_txs
        assert traced.rounds_reached == plain.rounds_reached
        assert traced.mean_latency == pytest.approx(plain.mean_latency)
