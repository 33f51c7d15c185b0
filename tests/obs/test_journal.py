"""Tests for repro.obs.journal and the Observability bundle."""

import json

import pytest

from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.harness.runner import run_experiment
from repro.obs import (
    NULL_OBS,
    BoundedJournal,
    Event,
    EventJournal,
    MetricsRegistry,
    NullJournal,
    NullRegistry,
    Observability,
)


def short_run(obs, protocol="lightdag2"):
    cfg = ExperimentConfig(
        system=SystemConfig(n=4, crypto="hmac", seed=2),
        protocol=ProtocolConfig(batch_size=10),
        protocol_name=protocol,
        duration=1.5,
        warmup=0.5,
        seed=2,
    )
    return run_experiment(cfg, obs=obs)


class TestEventJournal:
    def test_emit_appends_in_order(self):
        journal = EventJournal()
        journal.emit(0.5, "block.propose", node=1, round=1)
        journal.emit(0.7, "block.deliver", node=2, round=1)
        assert len(journal) == 2
        assert [e.type for e in journal] == ["block.propose", "block.deliver"]
        assert journal.events[0] == Event(0.5, 1, "block.propose", {"round": 1})

    def test_default_node_is_network(self):
        journal = EventJournal()
        journal.emit(0.0, "adversary.drop")
        assert journal.events[0].node == -1

    def test_as_dict_flattens_payload(self):
        journal = EventJournal()
        journal.emit(1.0, "wave.commit", node=0, wave=3, kind="direct")
        assert journal.events[0].as_dict() == {
            "t": 1.0, "node": 0, "type": "wave.commit",
            "wave": 3, "kind": "direct",
        }

    def test_counts_by_type_sorted(self):
        journal = EventJournal()
        for type_ in ("b", "a", "b"):
            journal.emit(0.0, type_)
        assert list(journal.counts_by_type().items()) == [("a", 1), ("b", 2)]

    def test_null_journal_inert(self):
        journal = NullJournal()
        journal.emit(0.0, "anything", node=3, x=1)
        assert len(journal) == 0 and journal.enabled is False


class TestListeners:
    def test_listener_sees_every_event(self):
        journal = EventJournal()
        seen = []
        journal.add_listener(seen.append)
        journal.emit(0.1, "a", node=1)
        journal.emit(0.2, "b", node=2, x=3)
        assert seen == journal.events
        assert seen[1].data == {"x": 3}

    def test_emit_bound_after_install_routes_through_listener(self):
        # The harness installs the watchdog before nodes pre-bind
        # journal.emit; the bound reference must be the listened path.
        journal = EventJournal()
        seen = []
        journal.add_listener(seen.append)
        emit = journal.emit
        emit(0.5, "block.commit", node=0)
        assert len(seen) == 1

    def test_listeners_see_lifecycle_events_of_a_run(self):
        # Nodes, managers and the engine pre-bind journal.emit for
        # block.* and trace.* alike, so a listener installed before the
        # run sees both, which is what the watchdog's detectors read.
        journal = EventJournal()
        seen = []
        journal.add_listener(seen.append)
        short_run(Observability(NullRegistry(), journal))
        types = {e.type for e in seen}
        assert {"block.propose", "trace.body", "trace.quorum"} <= types
        assert journal.events == seen

    def test_null_journal_listener_is_noop(self):
        journal = NullJournal()
        journal.add_listener(lambda e: (_ for _ in ()).throw(AssertionError))
        journal.emit(0.0, "x")
        assert len(journal) == 0


class TestBoundedJournal:
    def test_ring_keeps_newest(self):
        journal = BoundedJournal(max_events=2)
        for i in range(5):
            journal.emit(float(i), f"t{i}")
        assert [e.type for e in journal] == ["t3", "t4"]
        assert journal.emitted_total == 5

    def test_counts_cover_evicted_events(self):
        journal = BoundedJournal(max_events=1)
        for type_ in ("a", "b", "a", "a"):
            journal.emit(0.0, type_)
        assert journal.counts_by_type() == {"a": 3, "b": 1}
        assert len(journal) == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BoundedJournal(max_events=0)

    def test_spill_streams_every_event(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = BoundedJournal(max_events=1, spill_path=str(path))
        journal.emit(0.1, "a", node=1, x=1)
        journal.emit(0.2, "b", node=2)
        journal.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["type"] for row in lines] == ["a", "b"]
        assert lines[0] == {"t": 0.1, "node": 1, "type": "a", "x": 1}

    def test_close_is_idempotent(self, tmp_path):
        journal = BoundedJournal(max_events=1, spill_path=str(tmp_path / "j"))
        journal.close()
        journal.close()

    def test_listener_composes_with_ring(self):
        journal = BoundedJournal(max_events=1)
        seen = []
        journal.add_listener(seen.append)
        journal.emit(0.0, "a")
        journal.emit(0.1, "b")
        assert [e.type for e in seen] == ["a", "b"]
        assert journal.emitted_total == 2
        assert journal.counts_by_type() == {"a": 1, "b": 1}


class TestObservability:
    def test_enabled_follows_components(self):
        assert Observability(MetricsRegistry(), EventJournal()).enabled
        assert Observability(MetricsRegistry(), NullJournal()).enabled
        assert Observability(NullRegistry(), EventJournal()).enabled
        assert not Observability(NullRegistry(), NullJournal()).enabled

    def test_enabled_journal_records_lifecycle(self):
        obs = Observability(MetricsRegistry(), EventJournal())
        short_run(obs, protocol="bullshark")
        counts = obs.journal.counts_by_type()
        for type_ in ("trace.body", "trace.quorum", "block.commit"):
            assert counts.get(type_, 0) > 0, counts
        # Each milestone is recorded once: the proposal carries the
        # batch, the commit carries the ledger append.
        assert "trace.batch" not in counts and "trace.ordered" not in counts
        propose = next(e for e in obs.journal if e.type == "block.propose")
        assert propose.data["txs"] == 10
        assert propose.data["submit_sum"] == 10 * propose.t

    def test_null_singleton_disabled(self):
        assert NULL_OBS.enabled is False

    def test_summary_keys(self):
        obs = Observability(MetricsRegistry(), EventJournal())
        obs.metrics.counter("net.messages_sent", type="BlockVal").inc(3)
        obs.journal.emit(0.0, "block.propose", node=0)
        summary = obs.summary()
        assert summary["journal_events"] == 1
        assert summary["msgs_sent"] == 3
