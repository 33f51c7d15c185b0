"""Open-loop offered load, driven through the client plane (run_loadtest).

The saturating mode used by the figure benches measures the consensus
path; open-loop clients fire at a fixed rate regardless of responses, so
*queueing* appears: latency stays flat below capacity and grows past it
— the other half of Fig. 14's hockey stick.
"""

import pytest

from repro.harness.loadtest import LoadtestConfig, run_loadtest
from repro.workload.admission import AdmissionConfig
from repro.workload.clients import WorkloadSpec


def run_at_rate(rate, batch=16, duration=6.0, seed=4):
    return run_loadtest(LoadtestConfig(
        n=4,
        batch_size=batch,
        duration=duration,
        warmup=1.0,
        seed=seed,
        workload=WorkloadSpec(clients=20, mode="open", rate=rate, seed=seed),
        admission=AdmissionConfig(max_pending=256),
    ))


class TestOpenLoop:
    def test_throughput_tracks_offered_load_below_capacity(self):
        result = run_at_rate(rate=200.0)
        assert result.rejected == 0
        # Below capacity, committed client throughput ≈ offered.
        assert result.e2e_tps == pytest.approx(200.0, rel=0.15)

    def test_latency_flat_below_capacity(self):
        light = run_at_rate(rate=50.0)
        moderate = run_at_rate(rate=200.0)
        # Well under capacity, queueing is negligible: latencies within 2x.
        assert moderate.e2e_mean_s < 2 * light.e2e_mean_s

    def test_queueing_blowup_above_capacity(self):
        """Offered load far above capacity: the queue fills and measured
        latency reflects it, while committed throughput caps out."""
        below = run_at_rate(rate=200.0)
        above = run_at_rate(rate=4000.0)
        assert above.e2e_mean_s > 3 * below.e2e_mean_s
        # Committed throughput caps at roughly batch × round rate, far
        # below the offered 4000 ops/s.
        assert above.e2e_tps < above.offered_rate / 2
        assert above.rejected > 0
