"""Tests for repro.obs.health: the liveness/health watchdog."""

from repro.obs import EventJournal, HealthMonitor
from repro.obs.health import (
    INFLATION_FACTOR,
    INFLATION_MIN_SAMPLES,
    LAG_RATIO,
    STALL_AFTER,
    STORM_THRESHOLD,
    STORM_WINDOW,
)


def monitor(journal=None):
    mon = HealthMonitor(n=4)
    if journal is not None:
        mon.install(journal)
    return mon


def storm_burst(journal, start, node, count=STORM_THRESHOLD * 4):
    """``count`` retrieval requests inside half a storm window."""
    step = STORM_WINDOW / (2 * count)
    for i in range(count):
        journal.emit(start + i * step, "retrieval.request", node=node)


class TestCommitStall:
    def test_stall_alert_after_silence(self):
        journal = EventJournal()
        mon = monitor(journal)
        journal.emit(0.1, "block.commit", node=0, digest="a")
        # STALL_AFTER + 0.9 s of commit silence
        journal.emit(STALL_AFTER + 1.0, "round.advance", node=1)
        assert mon.alerts.get("health.commit_stall") == 1
        assert any(e.type == "health.commit_stall" for e in journal)

    def test_stall_alerts_are_rate_limited(self):
        journal = EventJournal()
        mon = monitor(journal)
        journal.emit(0.1, "block.commit", node=0)
        for i in range(50):
            journal.emit(STALL_AFTER + 1.0 + i * 0.01, "round.advance", node=1)
        assert mon.alerts["health.commit_stall"] == 1

    def test_no_alert_before_first_commit(self):
        journal = EventJournal()
        mon = monitor(journal)
        journal.emit(STALL_AFTER * 5, "round.advance", node=1)
        assert "health.commit_stall" not in mon.alerts

    def test_steady_commits_stay_quiet(self):
        journal = EventJournal()
        mon = monitor(journal)
        for i in range(20):
            journal.emit(i * 0.2, "block.commit", node=i % 4)
        assert mon.alerts == {}
        assert mon.summary()["verdict"] == "healthy"


class TestRetrievalStorm:
    def test_burst_fires_once_per_window(self):
        journal = EventJournal()
        mon = monitor(journal)
        journal.emit(0.0, "block.commit", node=0)
        storm_burst(journal, 0.5, node=2)
        assert mon.alerts["health.retrieval_storm"] == 1

    def test_slow_trickle_is_fine(self):
        journal = EventJournal()
        mon = monitor(journal)
        for i in range(STORM_THRESHOLD * 4):
            journal.emit(i * 1.5 * STORM_WINDOW, "retrieval.request", node=2)
        assert "health.retrieval_storm" not in mon.alerts


class TestQuorumInflation:
    def test_inflated_wait_alerts(self):
        journal = EventJournal()
        mon = monitor(journal)
        t = 0.0
        for i in range(INFLATION_MIN_SAMPLES * 2):  # warm-up: 10 ms waits
            journal.emit(t, "trace.body", node=0, digest=f"d{i}")
            journal.emit(t + 0.01, "trace.quorum", node=0, digest=f"d{i}")
            t += 0.1
        journal.emit(t, "trace.body", node=0, digest="slow")
        slow = 0.01 * INFLATION_FACTOR * 10
        journal.emit(t + slow, "trace.quorum", node=0, digest="slow")
        assert mon.alerts["health.quorum_inflation"] == 1

    def test_quorum_without_body_ignored(self):
        journal = EventJournal()
        mon = monitor(journal)
        journal.emit(0.1, "trace.quorum", node=0, digest="orphan")
        assert mon.alerts == {}


class TestVerdicts:
    def test_no_progress(self):
        mon = monitor(EventJournal())
        assert mon.summary(now=10.0)["verdict"] == "no-progress"

    def test_stalled(self):
        journal = EventJournal()
        mon = monitor(journal)
        journal.emit(0.5, "block.commit", node=0)
        assert mon.summary(now=0.5 + STALL_AFTER * 2)["verdict"] == "stalled"

    def test_degraded_when_alerts_but_committing(self):
        journal = EventJournal()
        mon = monitor(journal)
        storm_burst(journal, 1.0, node=1)
        journal.emit(1.0 + STORM_WINDOW, "block.commit", node=0)
        assert mon.summary(now=1.1 + STORM_WINDOW)["verdict"] == "degraded"

    def test_laggards_and_summary_idempotence(self):
        journal = EventJournal()
        mon = monitor(journal)
        assert 1 < LAG_RATIO * 10  # so 1 commit against a median of 10 lags
        for i in range(10):
            journal.emit(i * 0.1, "block.commit", node=0)
            journal.emit(i * 0.1, "block.commit", node=1)
            journal.emit(i * 0.1, "block.commit", node=2)
        journal.emit(0.0, "block.commit", node=3)  # 1 commit vs median 10
        assert mon.laggards() == [3]
        first = mon.summary(now=1.0)
        second = mon.summary(now=1.0)
        assert first == second  # summary() must not mutate alert counts
        assert first["alerts"]["health.node_lag"] == 1
        assert first["commits_by_node"][3] == 1

    def test_health_events_do_not_feed_back(self):
        journal = EventJournal()
        mon = monitor(journal)
        journal.emit(0.1, "block.commit", node=0)
        journal.emit(0.1 + STALL_AFTER * 10, "round.advance", node=1)
        # The alert itself lands in the journal but never re-triggers
        # detectors (on_event returns early for health.*).
        stall_events = [e for e in journal if e.type == "health.commit_stall"]
        assert len(stall_events) == 1
        assert mon.alerts["health.commit_stall"] == 1
