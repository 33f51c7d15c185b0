"""Tests for repro.analysis.obs_export: JSONL, Chrome trace, summary rows."""

import json

import pytest

from repro.analysis.obs_export import (
    journal_to_chrome_trace,
    journal_to_jsonl,
    load_journal_jsonl,
    registry_summary_rows,
)
from repro.obs import EventJournal, MetricsRegistry


@pytest.fixture
def journal():
    j = EventJournal()
    j.emit(0.0, "block.propose", node=0, round=1, author=0, digest="aa11", txs=5)
    j.emit(0.1, "block.deliver", node=1, round=1, author=0, digest="aa11")
    j.emit(0.3, "block.commit", node=1, round=1, author=0, digest="aa11", wave=1)
    j.emit(0.2, "coin.reveal", node=1, wave=1, leader=2)
    j.emit(0.4, "adversary.drop", src=0, dst=3, msg="BlockVal")
    return j


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("net.messages_sent", type="BlockVal").inc(12)
    reg.counter("net.messages_sent", type="BlockEcho").inc(30)
    reg.gauge("broadcast.steps", primitive="cbc").set(2)
    h = reg.histogram("net.egress_wait_seconds", buckets=(0.001, 0.01))
    h.observe(0.0005)
    h.observe(0.005)
    h.observe(2.0)  # overflow
    return reg


class TestJsonl:
    def test_one_object_per_line_roundtrip(self, journal, tmp_path):
        path = tmp_path / "j.jsonl"
        text = journal_to_jsonl(journal, path)
        assert path.read_text() == text
        rows = load_journal_jsonl(path)
        assert len(rows) == len(journal)
        assert rows[0] == {
            "t": 0.0, "node": 0, "type": "block.propose",
            "round": 1, "author": 0, "digest": "aa11", "txs": 5,
        }

    def test_empty_journal(self):
        assert journal_to_jsonl(EventJournal()) == ""


class TestChromeTrace:
    def test_valid_json_with_spans(self, journal, tmp_path):
        path = tmp_path / "t.json"
        trace = json.loads(journal_to_chrome_trace(journal, path))
        assert json.loads(path.read_text()) == trace
        events = trace["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        cats = {e["cat"] for e in spans}
        assert cats == {"dissemination", "ordering"}
        dis = next(e for e in spans if e["cat"] == "dissemination")
        # propose at t=0, deliver at t=0.1 → 100 ms span in µs.
        assert dis["ts"] == 0.0
        assert dis["dur"] == pytest.approx(1e5)
        assert dis["pid"] == 1  # rendered on the delivering replica

    def test_metadata_names_processes(self, journal):
        trace = json.loads(journal_to_chrome_trace(journal))
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
        assert "replica 0" in names and "network" in names

    def test_instants_for_coin_and_adversary(self, journal):
        trace = json.loads(journal_to_chrome_trace(journal))
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in instants} == {"coin.reveal", "adversary.drop"}

    def test_unmatched_commit_emits_no_span(self):
        journal = EventJournal()
        journal.emit(0.5, "block.commit", node=0, digest="zz", author=0)
        trace = json.loads(journal_to_chrome_trace(journal))
        assert [e for e in trace["traceEvents"] if e["ph"] == "X"] == []


class TestSummaryRows:
    def test_rows_cover_all_kinds(self, registry):
        rows = registry_summary_rows(registry.snapshot())
        by_metric = {(r["metric"], r["labels"]): r for r in rows}
        assert by_metric[("net.messages_sent", "type=BlockVal")]["value"] == 12
        hist = by_metric[("net.egress_wait_seconds", "")]
        assert hist["count"] == 3 and hist["max"] == 2.0

    def test_empty_histograms_skipped(self):
        reg = MetricsRegistry()
        reg.histogram("quiet")
        assert registry_summary_rows(reg.snapshot()) == []
