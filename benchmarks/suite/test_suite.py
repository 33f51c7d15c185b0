"""Tests of the benchmark suite itself.

Run with ``python -m pytest benchmarks/suite -q`` from the repository root
(about a minute).  They are not part of the tier-1 ``tests/`` tree: the
suite measures the program, it is not the program.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
for _path in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.suite import compare, layers, rep, runner, workloads  # noqa: E402
from benchmarks.suite.tracer import Entry, Tracer, self_seconds  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# ----------------------------------------------------------------- tracer


class FakeClock:
    """A clock the test advances by hand, so span times are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr("benchmarks.suite.tracer._clock", fake)
    return fake


def test_self_time_arithmetic_on_a_nested_call_tree(clock):
    """root(10) -> a(6) -> b(1) x2 ; root -> b(1): self times telescope."""
    tracer = Tracer()

    def b():
        clock.now += 1.0

    b = tracer.wrap(b, "b", "leaf")

    def a():
        clock.now += 2.0
        b()
        clock.now += 2.0
        b()

    a = tracer.wrap(a, "a", "mid")
    with tracer.root("root", "top"):
        clock.now += 1.5
        a()
        b()
        clock.now += 1.5
    assert tracer.root_s == pytest.approx(10.0)
    split = tracer.layer_split()
    assert split["top"]["self_s"] == pytest.approx(3.0)
    assert split["mid"]["self_s"] == pytest.approx(4.0)
    assert split["leaf"]["self_s"] == pytest.approx(3.0)
    assert split["leaf"]["calls"] == 3
    assert sum(row["share"] for row in split.values()) == pytest.approx(1.0)
    by_parent = {(agg.name, agg.parent): agg for agg in tracer.aggregates()}
    assert by_parent[("b", "a")].calls == 2
    assert by_parent[("b", "root")].calls == 1
    assert by_parent[("a", "root")].child_calls == 2


def test_wrapper_cost_is_taken_out_of_self_time():
    # 10 calls measured 1 s each with 0.1 s of wrapper inside the clock
    # reads, and 4 children each costing the parent 0.05 s outside theirs.
    assert self_seconds(10.0, 2.0, 10, 4, inner_s=0.1, outer_s=0.05) == pytest.approx(6.8)


def test_layer_times_are_scaled_to_the_untraced_wall_on_fixed_work(clock):
    tracer = Tracer()

    def validate():
        clock.now += 1.0

    validate = tracer.wrap(validate, "validate_block_structure", "dag")
    with tracer.root("root", "net.simulator"):
        validate()
        clock.now += 3.0
    same = layers.layer_metrics(tracer, {}, 2.0, 4.0, fixed_work=True)
    assert same["dag.self_s"] == pytest.approx(0.5)
    assert same["dag.validation_s"] == pytest.approx(0.5)
    assert same["net.simulator.self_s"] == pytest.approx(1.5)
    assert same["dag.share"] == pytest.approx(0.25)
    assert same["trace.overhead_ratio"] == pytest.approx(2.0)
    other = layers.layer_metrics(tracer, {}, 2.0, 4.0, fixed_work=False)
    assert other["dag.self_s"] == pytest.approx(1.0)


def test_spans_outside_a_root_stay_out_of_the_layer_split(clock):
    tracer = Tracer()

    def work():
        clock.now += 1.0

    work = tracer.wrap(work, "work", "x")
    work()  # set-up: no root open
    with tracer.root("root", "top"):
        work()
    assert tracer.layer_split()["x"]["calls"] == 1
    assert tracer.by_name(in_root=False)["work"]["calls"] == 1


def test_generators_are_refused():
    def gen():
        yield 1

    with pytest.raises(TypeError):
        Tracer().wrap(gen, "gen", "x")


def test_install_reaches_by_name_imports_and_uninstall_restores_everything():
    import repro.codec.messages
    import repro.core.base
    import repro.crypto.backend
    import repro.crypto.hashing
    import repro.dag.block
    import repro.net.tcp

    entries = [
        Entry("crypto", "repro.crypto.hashing:hash_fields"),
        Entry("codec", "repro.codec.messages:decode_message"),
        Entry("crypto", "repro.crypto.backend:CryptoBackend.verify"),
        Entry("core", "repro.core.base:BaseDagNode.on_timer"),
    ]
    watched = [
        (repro.crypto.hashing, "hash_fields"),
        (repro.dag.block, "hash_fields"),  # from ..crypto.hashing import ...
        (repro.net.tcp, "decode_message"),
        (repro.codec.messages, "decode_message"),
    ]
    from repro.baselines.bullshark import BullsharkNode
    from repro.core.base import BaseDagNode
    from repro.crypto.backend import HmacBackend, NullBackend, SchnorrBackend

    classes = [
        (BaseDagNode, "on_timer"), (BullsharkNode, "on_timer"),
        (HmacBackend, "verify"), (NullBackend, "verify"), (SchnorrBackend, "verify"),
    ]
    before = [getattr(mod, attr) for mod, attr in watched]
    before += [vars(cls)[attr] for cls, attr in classes]
    tracer = Tracer()
    tracer.install(entries)
    try:
        during = [getattr(mod, attr) for mod, attr in watched]
        during += [vars(cls)[attr] for cls, attr in classes]
        assert all(now is not was for now, was in zip(during, before))
        # the by-name import in another module is the very same wrapper
        assert repro.dag.block.hash_fields is repro.crypto.hashing.hash_fields
        repro.crypto.hashing.hash_fields(b"x")
        assert tracer.by_name(in_root=False)["hash_fields"]["calls"] == 1
    finally:
        tracer.uninstall()
    after = [getattr(mod, attr) for mod, attr in watched]
    after += [vars(cls)[attr] for cls, attr in classes]
    assert all(now is was for now, was in zip(after, before))
    assert tracer.patched() == []


def test_every_listed_entry_point_exists():
    tracer = Tracer()
    tracer.install(layers.ENTRIES, layers.ROOTS)
    try:
        assert {entry.layer for entry in layers.ENTRIES} <= set(layers.LAYERS)
        assert len(tracer.patched()) >= len(layers.ENTRIES)
    finally:
        tracer.uninstall()


# -------------------------------------------------------------- workloads


_full_size_config = workloads.sim_config


def _miniature(name: str, seed: int):
    """A 2-sim-s n=4 version of a simulated workload (same layers, tiny)."""
    cfg = _full_size_config(name, seed)
    system = dataclasses.replace(cfg.system, n=4, f=-1)
    adversary = cfg.adversary_name
    if adversary.startswith("schedule:"):
        adversary = (
            "schedule:equivocate@0+0:replicas=3,wave=1;"
            "delay@0+2:max=0.05,tailp=0.02,taild=0.5"
        )
    return cfg.with_updates(
        system=system, duration=2.0, warmup=0.5, adversary_name=adversary
    )


@pytest.mark.parametrize(
    "name", [n for n, w in workloads.WORKLOADS.items() if w.kind == "sim"]
)
def test_tracing_does_not_change_the_simulation(name, monkeypatch):
    monkeypatch.setattr(workloads, "sim_config", _miniature)
    from repro.net.simulator import Simulation

    plain_run = Simulation.run
    plain = rep.run_rep(name, 7, traced=False, setup_only=False)
    traced = rep.run_rep(
        name, 7, traced=True, setup_only=False, untraced_wall_s=plain["host_wall_s"]
    )
    assert plain["errors"] == []
    # miniatures may legitimately skip entry points the full size must hit
    assert [e for e in traced["errors"] if "never called" not in e] == []
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["metrics"] == plain["metrics"]
    assert plain["metrics"]["throughput_tps"] > 0
    assert Simulation.run is plain_run  # timer and tracer both put it back


def test_loadtest_ladder_miniature(monkeypatch):
    monkeypatch.setattr(workloads, "LOAD_LADDER", (200.0, 400.0))
    monkeypatch.setattr(workloads, "LOAD_REFERENCE_RATE", 200.0)
    monkeypatch.setattr(workloads, "RUNG_SECONDS", 3.0)
    monkeypatch.setattr(workloads, "LOAD_WARMUP", 1.0)
    out = rep.run_rep("loadtest_open_n4", 7, traced=False, setup_only=False)
    assert out["errors"] == []
    assert out["failed"] == 0 and out["attempted"] > 100
    assert out["metrics"]["throughput_tps"] == 400.0
    assert 0 < out["metrics"]["latency_p50_s"] <= out["metrics"]["latency_tail_s"]
    traced = rep.run_rep(
        "loadtest_open_n4", 7, traced=True, setup_only=False,
        untraced_wall_s=out["host_wall_s"],
    )
    assert [e for e in traced["errors"] if "never called" not in e] == []
    assert traced["fingerprint"] == out["fingerprint"]
    assert traced["layers"]["smr.submitted"] > 0


def test_tcp_composition_commits_and_tears_down_cleanly(monkeypatch):
    monkeypatch.setattr(workloads, "TCP_WARMUP_BLOCKS", 100)
    monkeypatch.setattr(workloads, "TCP_BLOCKS", 600)
    out = rep.run_rep("tcp_saturated_n4", 7, traced=True, setup_only=False)
    assert [e for e in out["errors"] if "never called" not in e] == []
    assert out["metrics"]["throughput_tps"] > 0
    # fixed work: every rep measures the same 500 blocks of 100 tx
    assert out["layers"]["dag.ledger_appends"] >= 4 * 600
    assert out["host_speed"] == 1.0  # a traced rep takes no speed samples
    per_layer = out["layers"]
    assert per_layer["codec.encode_calls"] > 0 and per_layer["codec.decode_calls"] > 0
    assert per_layer["net.tcp.decode_errors"] == 0
    assert per_layer["net.simulator.calls"] == 0
    # a second cluster can bind and run: nothing was left listening
    again = rep.run_rep("tcp_saturated_n4", 8, traced=False, setup_only=False)
    assert again["errors"] == []
    assert 0.05 < again["host_speed"] < 20.0  # sampled while it ran


def test_tcp_rep_that_cannot_finish_its_work_fails(monkeypatch):
    monkeypatch.setattr(workloads, "TCP_TIMEOUT_S", 0.3)
    out = rep.run_rep("tcp_saturated_n4", 7, traced=False, setup_only=False)
    assert len(out["errors"]) == 1 and "blocks in 0.3 s" in out["errors"][0]


def test_setup_only_stops_where_the_timed_region_begins(monkeypatch):
    monkeypatch.setattr(workloads, "sim_config", _miniature)
    out = rep.run_rep("sim_crypto_n16", 7, traced=False, setup_only=True)
    assert out["errors"] == [] and out["setup_s"] > 0 and out["host_wall_s"] == 0.0
    assert "metrics" not in out


def test_max_commit_gap_counts_the_window_edges():
    class Record:
        def __init__(self, t):
            self.commit_time = t

    ledger = [Record(t) for t in (0.5, 2.5, 3.0, 7.0, 12.0)]
    assert rep.max_commit_gap([ledger], 2.0, 10.0) == pytest.approx(4.0)
    assert rep.max_commit_gap([[Record(2.5)]], 2.0, 10.0) == pytest.approx(7.5)


# ------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_what_the_suite_prints():
    spec = runner.load_spec()
    assert sorted(spec) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    # per-layer names are exactly what layer_metrics produces
    tracer = Tracer()
    with tracer.root("root", "net.simulator"):
        pass
    produced = layers.layer_metrics(tracer, {}, 1.0, 1.0, fixed_work=False)
    assert sorted(produced) == sorted(m["name"] for m in spec["per_layer"])
    # end-to-end names are exactly what a rep reports
    reported = {"setup_s", "host_wall_s", "peak_rss_mb", "latency_p50_s",
                "latency_tail_s", "throughput_tps"}
    assert {m["name"] for m in spec["end_to_end"]} == reported


# ---------------------------------------------------------------- compare


def _row(workload, seed, wall, fingerprint="f"):
    cell = lambda v: {"median": v, "min": v * 0.99, "max": v * 1.01}  # noqa: E731
    return {
        "workload": workload, "seed": seed, "fingerprint": fingerprint,
        "end_to_end": {
            "setup_s": cell(0.2), "host_wall_s": cell(wall), "peak_rss_mb": cell(100.0),
            "latency_p50_s": cell(1.0), "latency_tail_s": cell(2.0),
            "throughput_tps": cell(1000.0),
        },
    }


def test_compare_verdicts(tmp_path):
    spec = runner.load_spec()
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["host_wall_s"]
    names = list(workloads.WORKLOADS)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("\n".join(json.dumps(_row(w, 11, 10.0)) for w in names))
    b.write_text("\n".join(
        json.dumps(_row(w, 11, 10.0 * (1 + 2 * bound) if w == names[0] else 10.0, "g"))
        for w in names
    ))
    lines, any_worse = compare.compare(str(a), str(b), spec)
    assert any_worse
    worse = [ln for ln in lines if ln.endswith("worse")]
    assert len(worse) == 1 and names[0] in worse[0] and "host_wall_s" in worse[0]
    assert any("DIFFERENT" in ln for ln in lines)
    lines, any_worse = compare.compare(str(a), str(a), spec)
    assert not any_worse and all("DIFFERENT" not in ln for ln in lines)
    assert compare.verdict(10.0, 10.1, "lower", 0.05, spread=0.2) == "unresolved"
    assert compare.verdict(1000.0, 800.0, "higher", 0.1, spread=0.0) == "worse"
