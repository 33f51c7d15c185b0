"""Integration tests for the real-time experiment entry point.

:func:`repro.run_async_experiment` runs the same replicas, hooks and
checks as the simulator harness over loopback TCP on the asyncio loop —
the cross-runtime guarantee the sans-I/O layering buys.
"""

import pytest

from repro import run_async_experiment
from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.errors import ConfigError
from repro.harness import cluster as recipe
from repro.harness import runner
from repro.net import tcp

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


@pytest.fixture
def built(monkeypatch):
    """The assembly and the TCP cluster a ``run_async_experiment`` call builds."""
    seen = {}
    assemble = runner.assemble_experiment

    def recorded_assembly(*args, **kwargs):
        seen["assembly"], collector = assemble(*args, **kwargs)
        return seen["assembly"], collector

    class RecordedCluster(tcp.TcpCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen["cluster"] = self

    monkeypatch.setattr(runner, "assemble_experiment", recorded_assembly)
    monkeypatch.setattr(tcp, "TcpCluster", RecordedCluster)
    return seen


class TestAsyncExperiments:
    @pytest.mark.parametrize("protocol", ["lightdag1", "lightdag2", "tusk"])
    def test_protocols_commit_over_asyncio(self, protocol):
        summary = run_async_experiment(config(protocol))
        assert summary["throughput_tps"] > 0
        assert summary["committed_txs"] > 0

    def test_safety_verified_across_replicas(self, built):
        run_async_experiment(config())  # raises on divergence
        cluster = built["cluster"]
        assert all(len(node.ledger) > 0 for node in cluster.nodes)
        assert cluster.rejected == {}

    def test_summary_fields(self):
        summary = run_async_experiment(config())
        assert set(summary) == {
            "throughput_tps", "mean_latency_s", "committed_txs", "frames_received",
        }
        assert summary["mean_latency_s"] > 0
        assert summary["frames_received"] > 0

    def test_adversarial_configs_rejected(self):
        cfg = config().with_updates(adversary_name="crash")
        with pytest.raises(ConfigError, match="favorable"):
            run_async_experiment(cfg)

    @pytest.mark.parametrize(
        "name", ["leader-delay", "random-sched", "schedule:partition@0+1:group=0"]
    )
    def test_every_message_level_fault_rejected(self, name):
        cfg = config("bullshark").with_updates(adversary_name=name)
        with pytest.raises(ConfigError, match="TCP runtime .* simulator"):
            run_async_experiment(cfg)

    @pytest.mark.parametrize(
        "spec",
        ["topology:clusters=2,loss=0.5"],
    )
    def test_lossy_latency_specs_rejected(self, spec):
        """TCP only delays frames: a spec that drops them must not run as
        if it did not (it used to run and commit, losing nothing)."""
        with pytest.raises(ConfigError, match="TCP runtime .* simulator"):
            run_async_experiment(config(latency=spec))

    def test_byzantine_node_classes_run_over_asyncio(self, built):
        """Node-level faults need no per-send hook, so any runtime takes them."""
        run_async_experiment(
            config("lightdag1").with_updates(adversary_name="withhold")
        )
        assert built["assembly"].byzantine == frozenset({3})
        nodes = built["cluster"].nodes
        assert type(nodes[3]).__name__ == "WithholdingLightDag1Node"
        assert all(len(node.ledger) > 0 for node in nodes[:3])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            run_async_experiment(config().with_updates(protocol_name="raft"))

    def test_injected_wan_latency_slows_commits(self):
        fast = run_async_experiment(config(latency="lan", duration=1.5))
        slow = run_async_experiment(config(latency="wan4", duration=1.5))
        assert slow["mean_latency_s"] > fast["mean_latency_s"]


class TestConfigReachesTheAsyncRuntime:
    """``check_level`` reaches the TCP runtime's post-run and mid-run checks."""

    def checked(self, monkeypatch, level):
        audits, prefixes = [], []
        count_calls(monkeypatch, recipe, "deep_audit", audits)
        count_calls(monkeypatch, recipe, "check_prefix_consistency", prefixes)
        run_async_experiment(config(duration=0.8).with_updates(check_level=level))
        return len(prefixes), len(audits)

    def test_final_runs_the_deep_audit_once(self, monkeypatch):
        assert self.checked(monkeypatch, "final") == (1, 1)

    def test_prefix_runs_the_prefix_check_only(self, monkeypatch):
        assert self.checked(monkeypatch, "prefix") == (1, 0)

    def test_off_runs_neither_check(self, monkeypatch):
        assert self.checked(monkeypatch, "off") == (0, 0)

    def test_full_arms_the_mid_run_monitor(self, built):
        run_async_experiment(config(duration=0.8).with_updates(check_level="full"))
        assert all(n.on_deliver_hook is not None for n in built["cluster"].nodes)
        monitor = built["assembly"].monitor
        assert monitor.commits_checked > 0 and monitor.deliveries_checked > 0
