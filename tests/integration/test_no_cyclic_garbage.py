"""A simulated run creates no reference cycles.

``repro.harness.runner.collector_paused`` suspends the cycle collector
around the harness's event loops.  That is safe only while the event loop
itself makes nothing the collector alone could free — checked here, per
protocol, under faults, and under client load — and while the one
collection at run entry keeps dead clusters from piling up across runs.
"""

import gc

import pytest

from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.harness.loadtest import LoadtestConfig, run_loadtest
from repro.harness.runner import collector_paused, run_experiment
from repro.net.simulator import Simulation
from repro.workload.clients import WorkloadSpec

#: ``sim_faults_n16``'s schedule shape (equivocators, a crash, a partition,
#: a delay tail, lossy links) at n=7: f=2 spent on one equivocator + one crash.
FAULTS_N7 = (
    "schedule:equivocate@0+0:replicas=5,wave=2;"
    "crash@4+0:victims=6;"
    "partition@7+2:group=0|1;"
    "delay@0+12:max=0.05,tailp=0.02,taild=0.5"
)


@pytest.fixture
def unreachable_after_run(monkeypatch):
    """Collect before and after every ``Simulation.run`` (simulation still
    referenced); the list holds what each second collection found."""
    found = []
    run = Simulation.run

    def checked(self, *args, **kwargs):
        assert not gc.isenabled(), "the harness did not pause the collector"
        gc.collect()
        try:
            return run(self, *args, **kwargs)
        finally:
            found.append(gc.collect())

    monkeypatch.setattr(Simulation, "run", checked)
    return found


def experiment(protocol_name, **overrides):
    settings = dict(
        system=SystemConfig(n=4, crypto="hmac", seed=3),
        protocol=ProtocolConfig(batch_size=20, gc_depth=4),
        protocol_name=protocol_name,
        duration=6.0, warmup=1.0, seed=3,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def loadtest(seed=3, duration=4.0):
    return LoadtestConfig(
        n=4, batch_size=16, duration=duration, warmup=1.0, seed=seed,
        workload=WorkloadSpec(
            clients=16, mode="open", rate=400.0, arrival="poisson", seed=seed
        ),
    )


@pytest.mark.parametrize(
    "protocol_name", ["lightdag1", "lightdag2", "dagrider", "tusk", "bullshark"]
)
def test_fault_free_run_makes_no_cycles(protocol_name, unreachable_after_run):
    result = run_experiment(experiment(protocol_name))
    assert result.committed_txs > 0
    assert unreachable_after_run == [0]


def test_faulty_run_makes_no_cycles(unreachable_after_run):
    result = run_experiment(
        experiment(
            "lightdag2",
            system=SystemConfig(n=7, crypto="hmac", seed=3),
            latency_model="topology:clusters=2,loss=0.01,jitter_frac=0.1",
            adversary_name=FAULTS_N7,
            check_level="full",
            duration=12.0,
        )
    )
    assert result.committed_txs > 0
    assert result.extras["retrieval_requests"] > 0
    assert unreachable_after_run == [0]


def test_loadtest_rung_makes_no_cycles(unreachable_after_run):
    result = run_loadtest(loadtest())
    assert result.completed > 0
    assert unreachable_after_run == [0]


def test_dropped_clusters_do_not_pile_up(monkeypatch):
    """A finished cluster is one big cycle, so with the collector paused
    only the collection at the next run's entry frees it: counted where the
    event loop starts (after that collection), nothing of an earlier run
    is left."""
    live_at_start = []
    run = Simulation.run

    def counting(self, *args, **kwargs):
        live_at_start.append(len(gc.get_objects()))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "run", counting)
    for seed in range(4):
        run_loadtest(loadtest(seed=seed, duration=3.0))
    assert len(live_at_start) == 4
    # (an uncollected cluster of this size adds ~25% per run)
    assert max(live_at_start[1:]) < 1.1 * live_at_start[0], live_at_start


def test_callers_collector_state_is_restored():
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        with collector_paused():
            assert not gc.isenabled()
            raise RuntimeError("the run failed")
    assert gc.isenabled()
    gc.disable()
    try:
        with collector_paused():
            pass
        assert not gc.isenabled()
    finally:
        gc.enable()
