"""Tests for repro.harness.loadtest: the end-to-end load measurement loop."""

import json

import pytest

from repro.errors import ConfigError, SweepError
from repro.harness import loadtest
from repro.harness.loadtest import LoadtestConfig, run_loadtest, run_loadtest_sweep
from repro.workload.admission import AdmissionConfig
from repro.workload.clients import WorkloadSpec


def _cfg(**kwargs):
    defaults = dict(
        n=4,
        batch_size=16,
        duration=5.0,
        warmup=1.0,
        seed=2,
        workload=WorkloadSpec(clients=10, mode="closed", seed=2),
        admission=AdmissionConfig(max_pending=256),
    )
    defaults.update(kwargs)
    return LoadtestConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            _cfg(duration=0.0)
        with pytest.raises(ConfigError):
            _cfg(warmup=5.0)  # == duration

    def test_uniform_spec_is_the_default_model(self):
        """``uniform`` names one model everywhere: a spec that spells the
        default's low bound runs exactly like the loadtest default."""
        default = run_loadtest(_cfg(duration=2.0, warmup=0.5))
        spelled = run_loadtest(
            _cfg(duration=2.0, warmup=0.5, latency_model="uniform:low=0.01")
        )
        assert default.completed > 0
        assert spelled.row() == default.row()

    def test_with_rate_replaces_workload_rate(self):
        cfg = _cfg(workload=WorkloadSpec(mode="open", rate=100.0))
        assert cfg.with_rate(250.0).workload.rate == 250.0
        assert cfg.workload.rate == 100.0  # original untouched


class TestRunLoadtest:
    def test_closed_loop_end_to_end(self):
        result = run_loadtest(_cfg())
        assert result.completed > 0
        assert result.verify_failures == 0
        # The headline invariant the summary prints side by side: client
        # latency pays admission queueing on top of the consensus path.
        assert result.e2e_mean_s >= result.consensus_mean_s - 1e-9
        assert result.e2e_tps > 0 and result.consensus_tps > 0

    def test_deterministic(self):
        a = run_loadtest(_cfg())
        b = run_loadtest(_cfg())
        assert a.row() == b.row()
        assert a.e2e_p999_s == b.e2e_p999_s

    def test_overload_shows_knee_with_bounded_queue(self):
        """Offered load far past capacity: latency rises, the queue stays
        pinned at the admission cap, and the overflow is counted."""
        under = run_loadtest(_cfg(
            workload=WorkloadSpec(clients=20, mode="open", rate=100.0, seed=3),
            admission=AdmissionConfig(max_pending=256),
            duration=6.0,
        ))
        over = run_loadtest(_cfg(
            workload=WorkloadSpec(clients=20, mode="open", rate=4000.0, seed=3),
            admission=AdmissionConfig(max_pending=256),
            duration=6.0,
        ))
        assert under.rejected == 0
        assert under.e2e_tps == pytest.approx(under.offered_rate, rel=0.15)
        assert over.rejected > 0                       # drops are visible
        assert over.max_pending_depth <= 256           # memory bounded
        assert over.e2e_p50_s > 2 * under.e2e_p50_s    # the knee
        assert over.e2e_tps < over.offered_rate / 2    # capacity, not offer
        # Consensus-side latency stays flat: the pile-up is in the queue.
        assert over.consensus_mean_s < 2 * under.consensus_mean_s

    def test_admission_obs_counters_populated(self):
        result = run_loadtest(_cfg(
            workload=WorkloadSpec(clients=20, mode="open", rate=4000.0, seed=4),
            admission=AdmissionConfig(max_pending=64),
        ))
        assert result.admission["admitted"] > 0
        assert result.admission["rejected"] == result.rejected
        assert result.admission["max_depth"] >= result.max_pending_depth

    def test_unbounded_admission_still_runs(self):
        result = run_loadtest(_cfg(admission=AdmissionConfig()))
        assert result.completed > 0
        assert result.rejected == 0


class TestSweep:
    def test_sweep_orders_results_and_serial_parallel_agree(self):
        base = _cfg(
            workload=WorkloadSpec(clients=10, mode="open", rate=1.0, seed=5),
            duration=4.0,
        )
        configs = [base.with_rate(r) for r in (100.0, 300.0)]
        serial = run_loadtest_sweep(configs, jobs=1)
        parallel = run_loadtest_sweep(configs, jobs=2)
        assert [r.offered_rate for r in serial] == [100.0, 300.0]
        assert [r.row() for r in serial] == [r.row() for r in parallel]
        # Below capacity what is offered commits, and latency stays flat.
        for result in serial:
            assert result.e2e_tps == pytest.approx(result.offered_rate, rel=0.15)
        assert serial[1].e2e_p50_s < 2 * serial[0].e2e_p50_s

    def test_a_failed_rung_loses_no_neighbour(self, monkeypatch):
        real = loadtest.run_loadtest

        def run_loadtest_but_200(cfg):
            if cfg.workload.rate == 200.0:
                raise RuntimeError("boom")
            return real(cfg)

        monkeypatch.setattr(loadtest, "run_loadtest", run_loadtest_but_200)
        base = _cfg(
            workload=WorkloadSpec(clients=10, mode="open", rate=1.0, seed=5),
            duration=2.0, warmup=0.5,
        )
        configs = [base.with_rate(r) for r in (100.0, 200.0, 300.0)]
        with pytest.raises(SweepError, match="rate=200.0: RuntimeError: boom") as err:
            run_loadtest_sweep(configs, jobs=1)
        first, failed, last = err.value.results
        assert failed is None
        assert (first.offered_rate, last.offered_rate) == (100.0, 300.0)


class TestReporting:
    def test_summary_prints_both_planes(self):
        from repro.analysis.loadreport import format_load_summary

        result = run_loadtest(_cfg())
        text = format_load_summary(result)
        assert "Consensus TPS:" in text
        assert "Consensus latency:" in text
        assert "End-to-end TPS:" in text
        assert "End-to-end latency:" in text
        assert "p999" in text

    def test_json_round_trips_without_nan(self):
        from repro.analysis.loadreport import loadtest_results_to_json

        result = run_loadtest(_cfg())
        payload = json.loads(loadtest_results_to_json([result]))
        assert payload[0]["e2e"]["p99_s"] == pytest.approx(result.e2e_p99_s)
        assert payload[0]["config"]["protocol"] == "lightdag2"
        # NaN (empty-sample stats) must serialize as null, not break JSON.
        empty = run_loadtest(_cfg(duration=0.5, warmup=0.0))
        json.loads(loadtest_results_to_json([empty]))

    def test_figure_marks_dropping_points(self):
        from repro.analysis.loadreport import render_saturation_figure

        results = [
            run_loadtest(_cfg(
                workload=WorkloadSpec(clients=10, mode="open", rate=r, seed=6),
                admission=AdmissionConfig(max_pending=32),
                duration=4.0,
            ))
            for r in (100.0, 4000.0)
        ]
        figure = render_saturation_figure(results)
        assert "#" in figure and "*" in figure and "c" in figure
        assert "!" in figure  # the overloaded point dropped work

    def test_figure_handles_empty_results(self):
        from repro.analysis.loadreport import render_saturation_figure

        assert "no finite latency" in render_saturation_figure([])
