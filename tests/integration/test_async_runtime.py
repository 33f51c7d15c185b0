"""Integration tests for the asyncio prototype runtime.

The same protocol Node classes must behave correctly over real async
channels — this is the cross-runtime guarantee the sans-I/O layering buys.
"""

import asyncio

import pytest

from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.errors import ConfigError
from repro.harness import cluster as recipe
from repro.replica.runtime import build_async_experiment, run_async_experiment

from ..conftest import count_calls


def config(protocol="lightdag2", n=4, duration=1.5, latency="lan", batch=20):
    return ExperimentConfig(
        system=SystemConfig(n=n, crypto="hmac", seed=1),
        protocol=ProtocolConfig(batch_size=batch),
        protocol_name=protocol,
        duration=duration,
        warmup=0.3,
        latency_model=latency,
        seed=1,
    )


class TestAsyncExperiments:
    @pytest.mark.parametrize("protocol", ["lightdag1", "lightdag2", "tusk"])
    def test_protocols_commit_over_asyncio(self, protocol):
        summary = run_async_experiment(config(protocol))
        assert summary["throughput_tps"] > 0
        assert summary["committed_txs"] > 0

    def test_safety_verified_across_replicas(self):
        experiment = build_async_experiment(config())
        asyncio.run(experiment.run())
        experiment.verify_safety()  # raises on divergence
        ledgers = experiment.ledgers()
        assert all(len(ledger) > 0 for ledger in ledgers)

    def test_summary_fields(self):
        summary = run_async_experiment(config())
        assert set(summary) == {
            "throughput_tps", "mean_latency_s", "committed_txs", "messages",
        }
        assert summary["mean_latency_s"] > 0

    def test_adversarial_configs_rejected(self):
        cfg = config().with_updates(adversary_name="crash")
        with pytest.raises(ConfigError, match="favorable"):
            build_async_experiment(cfg)

    @pytest.mark.parametrize(
        "name", ["leader-delay", "random-sched", "schedule:partition@0+1:group=0"]
    )
    def test_every_message_level_fault_rejected(self, name):
        with pytest.raises(ConfigError, match="simulator"):
            build_async_experiment(config("bullshark").with_updates(adversary_name=name))

    def test_byzantine_node_classes_run_over_asyncio(self):
        """Node-level faults need no per-send hook, so any runtime takes them."""
        cfg = config("lightdag1").with_updates(adversary_name="withhold")
        experiment = build_async_experiment(cfg)
        assert experiment.assembly.byzantine == frozenset({3})
        asyncio.run(experiment.run())
        experiment.verify_safety()
        assert all(len(ledger) > 0 for ledger in experiment.ledgers()[:3])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            build_async_experiment(config().with_updates(protocol_name="raft"))

    def test_injected_wan_latency_slows_commits(self):
        fast = run_async_experiment(config(latency="lan", duration=1.5))
        slow = run_async_experiment(config(latency="wan4", duration=1.5))
        assert slow["mean_latency_s"] > fast["mean_latency_s"]


class TestConfigReachesTheAsyncRuntime:
    """``check_level`` and ``mempool_cap`` used to be dropped on this path."""

    def checked(self, monkeypatch, level):
        audits, prefixes = [], []
        count_calls(monkeypatch, recipe, "deep_audit", audits)
        count_calls(monkeypatch, recipe, "check_prefix_consistency", prefixes)
        experiment = build_async_experiment(
            config(duration=0.8).with_updates(check_level=level)
        )
        asyncio.run(experiment.run())
        experiment.verify_safety()
        return len(prefixes), len(audits)

    def test_final_runs_the_deep_audit_once(self, monkeypatch):
        assert self.checked(monkeypatch, "final") == (1, 1)

    def test_prefix_runs_the_prefix_check_only(self, monkeypatch):
        assert self.checked(monkeypatch, "prefix") == (1, 0)

    def test_off_runs_neither_check(self, monkeypatch):
        assert self.checked(monkeypatch, "off") == (0, 0)

    def test_full_arms_the_mid_run_monitor(self):
        experiment = build_async_experiment(
            config(duration=0.8).with_updates(check_level="full")
        )
        asyncio.run(experiment.run())
        experiment.verify_safety()
        monitor = experiment.assembly.monitor
        assert monitor.commits_checked > 0 and monitor.deliveries_checked > 0

    def test_mempool_cap_reaches_every_replica(self):
        cfg = config().with_updates(tx_rate_per_replica=200.0, mempool_cap=17)
        experiment = build_async_experiment(cfg)
        mempools = [node.payload_source.__self__ for node in experiment.cluster.nodes]
        assert [m.max_backlog for m in mempools] == [17] * 4
