"""Micro-benchmarks: instrumentation overhead (the off-by-default-cheap guard).

The obs layer's contract is that nobody pays for telemetry they did not
ask for.  Three guards, from strictest to loosest:

* **no-op mode** (the default ``NULL_OBS`` path) must be within noise of
  an uninstrumented build — the hot loops only pay an ``enabled`` branch
  and some inert attribute reads;
* **engine hot loop** (instrumenting the simulator's event loop alone:
  per-type message counters, queue-wait histograms) must cost <5%.  The
  loop stages plain ints/lists keyed by message class, counts broadcast
  fan-out once per batch, derives delivered counts by conservation at
  flush time, and bulk-folds wait samples into histograms once per
  ``run()`` — measured 3-5% over 10 simulated seconds per run;
* **full stack** (simulator + every node's metrics *and* journal, which
  records the ``trace.*`` lifecycle milestones with the ``block.*``
  events: ``repro explain``'s configuration) gets a generous regression
  bound rather than a tight budget.  Each journal record allocates a
  dict and an Event, and on this workload a baseline event is only a few
  microseconds of pure-Python work (payloads are synthetic counts,
  crypto is HMAC) — a worst case by construction.  The bound exists to
  catch accidental hot-path regressions (say, re-resolving labeled
  series per event), not to promise a free journal.

Methodology — chosen after fighting a noisy box, in decreasing order of
importance:

* ``time.process_time`` (CPU time), so scheduler preemption and VM steal
  don't land in either variant's account;
* min-of-N over fresh simulations, interleaved so frequency drift hits
  every variant equally (min is the robust estimator for "how fast can
  this go"; means smear in whatever noise remains).  The two simulations
  of a round run in lockstep, slice by slice, so a slow stretch shorter
  than one run lands on both, and the minimum is taken per slice, so a
  burst in one slice costs only that slice's sample, not the round's;
* GC parked during the timed region — the ``timeit`` convention, because
  collection cost scales with total heap, a property of the workload,
  not of the loop under test;
* a failed budget triggers one deeper re-measurement before the test
  fails: a genuine regression fails twice, a noise spike does not.

The pytest-benchmark fixtures report the same numbers for the records.
"""

import gc
import time

from repro.config import ProtocolConfig, SystemConfig
from repro.harness.cluster import assemble
from repro.harness.runner import PROTOCOL_REGISTRY
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulation
from repro.obs import EventJournal, MetricsRegistry, Observability


def make_obs():
    return Observability(MetricsRegistry(), EventJournal())


def build_sim(protocol_name="lightdag1", n=4, batch=50, seed=1,
              obs=None, obs_sim=None):
    """A small but realistic run: 4 replicas, CBC broadcast, bandwidth on.

    ``obs`` instruments everything; ``obs_sim`` instruments only the
    simulator's event loop (the engine-hot-loop guard).
    """
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    cluster = assemble(
        system, ProtocolConfig(batch_size=batch), PROTOCOL_REGISTRY[protocol_name],
        obs=obs,
    )
    sim_obs = obs if obs is not None else obs_sim
    sim_kwargs = {} if sim_obs is None else {"obs": sim_obs}
    return Simulation(
        cluster.factories,
        latency_model=FixedLatency(0.05),
        bandwidth_bps=100_000_000,
        seed=seed,
        **sim_kwargs,
    )


#: Simulated seconds of the engine-loop gate's timed runs.  The gate's
#: 5 % budget is a ratio of two CPU times, so each run must be long next to
#: the host's noise: 2 s is about 15-30 ms of CPU, where a few ms of
#: preemption or cache pollution read as a budget breach; 10 s is about
#: 150 ms.
ENGINE_GATE_UNTIL = 10.0

#: Slices a timed pair is cut into (see :func:`timed_pair`).
SLICES = 10


def timed_pair(make_baseline, make_variant, until):
    """Per-slice CPU times of one fresh baseline and one fresh variant
    simulation run in lockstep: each advances ``until / SLICES`` simulated
    seconds in turn, so a slow stretch of the host lands on both, not on
    whichever ran during it.  GC parked throughout."""
    sims = (make_baseline(), make_variant())
    spent = ([0.0] * SLICES, [0.0] * SLICES)
    gc.collect()
    gc.disable()
    try:
        for k in range(SLICES):
            horizon = until * (k + 1) / SLICES
            for sim, times in zip(sims, spent):
                start = time.process_time()
                sim.run(until=horizon)
                times[k] = time.process_time() - start
    finally:
        gc.enable()
    return spent


def measured_overhead(make_baseline, make_variant, rounds=10, until=2.0):
    """Relative slowdown of variant vs baseline: interleaved min-of-N per
    slice, summed over the slices.  The simulations are deterministic, so
    slice k does the same work in every round, and its minimum needs one
    quiet round for that slice only, not for a whole run."""
    best = ([float("inf")] * SLICES, [float("inf")] * SLICES)
    for _ in range(rounds):
        for mins, times in zip(best, timed_pair(make_baseline, make_variant, until)):
            mins[:] = map(min, mins, times)
    return sum(best[1]) / sum(best[0]) - 1.0


def assert_overhead_under(make_baseline, make_variant, budget, what, until=2.0):
    """Budget check with one deeper retry, so noise spikes don't flake."""
    overhead = measured_overhead(make_baseline, make_variant, until=until)
    if overhead >= budget:
        overhead = min(
            overhead,
            measured_overhead(make_baseline, make_variant, rounds=30, until=until),
        )
    assert overhead < budget, (
        f"{what} obs costs {overhead:.1%} (budget {budget:.0%})"
    )


class TestObsOverhead:
    def test_engine_loop_overhead_under_5_percent(self):
        """The simulator event loop with per-type counters + wait
        histograms enabled: the <5% budget (measured 2-4%)."""
        assert_overhead_under(
            lambda: build_sim(),
            lambda: build_sim(obs_sim=make_obs()),
            budget=0.05,
            what="engine-loop",
            until=ENGINE_GATE_UNTIL,
        )

    def test_noop_overhead_is_noise(self):
        # Explicit NULL_OBS vs defaulted: the same code path, so the only
        # honest assertion is "indistinguishable", with generous slack.
        from repro.obs import NULL_OBS

        assert_overhead_under(
            lambda: build_sim(),
            lambda: build_sim(obs=NULL_OBS),
            budget=0.10,
            what="no-op",
        )

    def test_traced_stack_overhead_bounded(self):
        """Full stack: every node's metrics and journal, lifecycle
        milestones included (``repro explain``'s configuration).
        Regression bound, not a budget — the promise that matters is the
        engine-loop <5% with the journal emits compiled in but off, which
        the first test enforces against exactly this build."""
        assert_overhead_under(
            lambda: build_sim(),
            lambda: build_sim(obs=make_obs()),
            budget=0.45,
            what="traced-stack",
        )

    def test_instrumented_run_actually_records(self):
        obs = make_obs()
        sim = build_sim(obs=obs)
        sim.run(until=1.0)
        assert obs.metrics.counter_total("net.messages_sent") > 0
        assert len(obs.journal) > 0

    def test_engine_only_records_net_metrics(self):
        obs = make_obs()
        sim = build_sim(obs_sim=obs)
        sim.run(until=1.0)
        assert obs.metrics.counter_total("net.messages_sent") > 0
        assert obs.metrics.counter_total("broadcast.vals_sent") == 0


def test_bench_instrumented_protocol_second(benchmark):
    """Wall-clock cost of one fully instrumented protocol-second."""

    def run():
        sim = build_sim(obs=make_obs())
        sim.run(until=1.0)
        return sim.stats.messages_delivered

    assert benchmark(run) > 0


def test_bench_registry_hot_path(benchmark):
    """Raw cost of the cached-counter idiom the simulator uses."""
    registry = MetricsRegistry()
    counter = registry.counter("net.messages_sent", type="BlockVal")
    histogram = registry.histogram("net.egress_wait_seconds")

    def pump():
        for i in range(10_000):
            counter.inc()
            histogram.observe(i * 1e-6)
        return counter.value

    assert benchmark(pump) > 0
