"""End-to-end instrumentation tests: real runs with an Observability.

Cross-checks the recorded per-primitive traffic against Table I's step
structure — PBC is 1 step (VAL only), CBC is 2 (VAL + ECHO), RBC is 3
(VAL + ECHO + READY) — and asserts the journal is deterministic per seed.
"""

import pytest

from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.harness.runner import run_experiment
from repro.obs import EventJournal, MetricsRegistry, Observability


def run_instrumented(protocol, seed=1, duration=4.0, **kw):
    cfg = ExperimentConfig(
        system=SystemConfig(n=4, crypto="hmac", seed=seed),
        protocol=ProtocolConfig(batch_size=20),
        protocol_name=protocol,
        duration=duration,
        warmup=1.0,
        seed=seed,
        **kw,
    )
    obs = Observability(MetricsRegistry(), EventJournal())
    return run_experiment(cfg, obs=obs), obs


def primitive_counter(obs, name, primitive):
    return obs.metrics.counter(name, primitive=primitive).value


class TestTableICrossCheck:
    """The recorded message mix must match each primitive's step count."""

    def test_lightdag1_uses_cbc_only(self):
        _, obs = run_instrumented("lightdag1")
        assert primitive_counter(obs, "broadcast.vals_sent", "cbc") > 0
        assert primitive_counter(obs, "broadcast.echoes_sent", "cbc") > 0
        # 2-step CBC never sends READY, and no other primitive runs.
        assert obs.metrics.counter_total("broadcast.readies_sent") == 0
        assert primitive_counter(obs, "broadcast.vals_sent", "pbc") == 0
        assert obs.metrics.gauge("broadcast.steps", primitive="cbc").value == 2

    def test_lightdag2_mixes_pbc_and_cbc(self):
        _, obs = run_instrumented("lightdag2")
        # PBC (1 step) carries non-leader slots: VALs but never echoes.
        assert primitive_counter(obs, "broadcast.vals_sent", "pbc") > 0
        assert primitive_counter(obs, "broadcast.echoes_sent", "pbc") == 0
        # CBC (2 steps) carries leader slots: VALs and echoes.
        assert primitive_counter(obs, "broadcast.vals_sent", "cbc") > 0
        assert primitive_counter(obs, "broadcast.echoes_sent", "cbc") > 0
        assert obs.metrics.counter_total("broadcast.readies_sent") == 0
        assert obs.metrics.gauge("broadcast.steps", primitive="pbc").value == 1

    def test_tusk_uses_3_step_rbc(self):
        _, obs = run_instrumented("tusk")
        assert primitive_counter(obs, "broadcast.vals_sent", "rbc") > 0
        assert primitive_counter(obs, "broadcast.echoes_sent", "rbc") > 0
        assert primitive_counter(obs, "broadcast.readies_sent", "rbc") > 0
        assert obs.metrics.gauge("broadcast.steps", primitive="rbc").value == 3

    def test_deliveries_attributed_to_primitive(self):
        _, obs = run_instrumented("lightdag1")
        assert primitive_counter(obs, "broadcast.delivered", "cbc") > 0


class TestCoreAccounting:
    def test_wave_commits_and_rounds(self):
        result, obs = run_instrumented("lightdag1")
        commits = obs.metrics.counter_total("core.wave_commits")
        assert commits > 0
        direct = obs.metrics.counter("core.wave_commits", kind="direct").value
        cascade = obs.metrics.counter("core.wave_commits", kind="cascade").value
        assert direct + cascade == commits
        # Every replica advanced at least as far as the max round observed.
        rounds = obs.metrics.counter_total("core.rounds_advanced")
        assert rounds >= result.rounds_reached

    def test_journal_matches_counters(self):
        _, obs = run_instrumented("lightdag1")
        counts = obs.journal.counts_by_type()
        assert counts["wave.commit"] == obs.metrics.counter_total("core.wave_commits")
        assert counts["block.propose"] == obs.metrics.counter_total(
            "broadcast.vals_sent"
        )

    def test_network_counters_match_sim_stats(self):
        result, obs = run_instrumented("lightdag1")
        assert obs.metrics.counter_total("net.messages_sent") == (
            result.messages_sent
        )
        assert obs.metrics.counter_total("net.bytes_sent") == result.bytes_sent


class TestAdversaryAttribution:
    def test_partition_drops_are_counted(self):
        from repro.adversary.schedule import FaultSchedule
        from repro.core.lightdag1 import LightDag1Node
        from repro.crypto.keys import TrustedDealer
        from repro.net.latency import FixedLatency
        from repro.net.simulator import Simulation

        system = SystemConfig(n=4, crypto="hmac", seed=1)
        protocol = ProtocolConfig(batch_size=5)
        chains = TrustedDealer(
            system, coin_threshold=protocol.resolve_coin_threshold(system)
        ).deal()
        adversary = FaultSchedule.from_spec("partition@0+2:group=3").adversary()
        obs = Observability(MetricsRegistry(), EventJournal())
        sim = Simulation(
            [
                (lambda net, i=i: LightDag1Node(net, system, protocol,
                                                chains[i], obs=obs))
                for i in range(4)
            ],
            latency_model=FixedLatency(0.05),
            adversary=adversary,
            seed=1,
            obs=obs,
        )
        sim.run(until=3.0)
        dropped = obs.metrics.counter_total("net.messages_dropped")
        assert dropped == adversary.dropped > 0
        assert obs.journal.counts_by_type()["adversary.drop"] == dropped

    def test_leader_delay_is_attributed(self):
        _, obs = run_instrumented("bullshark", adversary_name="leader-delay",
                                  duration=6.0)
        delays = obs.metrics.histogram("net.adversary_delay_seconds")
        assert delays.count > 0
        assert obs.journal.counts_by_type().get("adversary.delay", 0) == delays.count


class TestDeterminism:
    def test_same_seed_identical_journal(self):
        _, obs_a = run_instrumented("lightdag2", seed=3)
        _, obs_b = run_instrumented("lightdag2", seed=3)
        assert obs_a.journal.events == obs_b.journal.events
        assert obs_a.metrics.snapshot() == obs_b.metrics.snapshot()

    def test_different_seed_differs(self):
        _, obs_a = run_instrumented("lightdag2", seed=3, duration=3.0)
        _, obs_b = run_instrumented("lightdag2", seed=4, duration=3.0)
        assert obs_a.journal.events != obs_b.journal.events


class TestResultIntegration:
    def test_row_folds_summary(self):
        result, obs = run_instrumented("lightdag1")
        assert result.obs is obs
        row = result.row()
        assert row["msgs_sent"] == int(obs.metrics.counter_total(
            "net.messages_sent"
        ))
        assert row["journal_events"] == len(obs.journal)

    def test_uninstrumented_run_attaches_nothing(self):
        cfg = ExperimentConfig(
            system=SystemConfig(n=4, crypto="hmac", seed=1),
            protocol=ProtocolConfig(batch_size=20),
            protocol_name="lightdag1",
            duration=2.0,
            warmup=0.5,
            seed=1,
        )
        result = run_experiment(cfg)
        assert result.obs is None
        assert "msgs_sent" not in result.row()


class TestRetrievalAccounting:
    def test_crash_run_records_retrievals(self):
        result, obs = run_instrumented("lightdag1", adversary_name="crash",
                                       duration=6.0)
        requests = obs.metrics.counter_total("retrieval.requests")
        assert requests == pytest.approx(result.extras["retrieval_requests"])

    def test_retrieval_gauges_are_per_replica(self):
        """Each replica's retrieval manager owns its gauges.  A gauge
        shared by all of them exported whichever replica wrote last, the
        same value for all seven, while replicas 2 and 6 end the run with a
        block parked and its parent requested."""
        cfg = ExperimentConfig(
            system=SystemConfig(n=7, crypto="hmac", seed=10),
            protocol=ProtocolConfig(batch_size=20),
            protocol_name="lightdag2",
            adversary_name="schedule:delay@0+10:max=0.3",
            duration=3.0,
            warmup=1.0,
            seed=10,
        )
        obs = Observability(MetricsRegistry(), EventJournal())
        run_experiment(cfg, obs=obs)
        for name in ("retrieval.pending", "retrieval.inflight"):
            values = [obs.metrics.gauge(name, replica=r).value for r in range(7)]
            assert values == [0, 0, 1, 0, 0, 0, 1], name
        gauges = [
            row for row in obs.metrics.snapshot()
            if row["name"].startswith("retrieval.") and row["kind"] == "gauge"
        ]
        assert len(gauges) == 2 * 7
        assert all(list(row["labels"]) == ["replica"] for row in gauges)
