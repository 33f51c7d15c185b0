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
  ``run()`` — measured 2-4% here;
* **full stack** (simulator + every node's metrics *and* journal) gets a
  generous regression bound rather than a tight budget.  Each journal
  record allocates a dict and an Event, and on this workload a baseline
  event is only a few microseconds of pure-Python work (payloads are
  synthetic counts, crypto is HMAC), so full tracing measures 10-20% —
  a worst case by construction.  The bound exists to catch accidental
  hot-path regressions (say, re-resolving labeled series per event),
  not to promise free tracing.

Methodology — chosen after fighting a noisy box, in decreasing order of
importance:

* ``time.process_time`` (CPU time), so scheduler preemption and VM steal
  don't land in either variant's account;
* min-of-N over fresh simulations, round-robin interleaved so frequency
  drift hits every variant equally (min is the robust estimator for
  "how fast can this go"; means smear in whatever noise remains);
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
from repro.obs import EventJournal, MetricsRegistry, Observability, Tracer


def make_obs(trace=False):
    journal = EventJournal()
    return Observability(
        MetricsRegistry(), journal,
        trace=Tracer(journal) if trace else None,
    )


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


def timed_run(make_sim, until=2.0):
    """CPU time for one fresh simulation, GC parked during the loop."""
    sim = make_sim()
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        sim.run(until=until)
        return time.process_time() - start
    finally:
        gc.enable()


def measured_overhead(make_baseline, make_variant, rounds=10, until=2.0):
    """Relative slowdown of variant vs baseline, interleaved min-of-N."""
    best_base = best_var = float("inf")
    for _ in range(rounds):
        best_base = min(best_base, timed_run(make_baseline, until=until))
        best_var = min(best_var, timed_run(make_variant, until=until))
    return best_var / best_base - 1.0


def assert_overhead_under(make_baseline, make_variant, budget, what):
    """Budget check with one deeper retry, so noise spikes don't flake."""
    overhead = measured_overhead(make_baseline, make_variant)
    if overhead >= budget:
        overhead = min(
            overhead,
            measured_overhead(make_baseline, make_variant, rounds=16),
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

    def test_full_stack_overhead_bounded(self):
        """Regression bound, not a budget: full metrics + journal on a
        workload whose baseline events are only a few microseconds each
        (see module docstring).  Measured 10-20%; a jump past 35% means
        someone put allocation or label resolution back on a per-event
        path."""
        assert_overhead_under(
            lambda: build_sim(),
            lambda: build_sim(obs=make_obs()),
            budget=0.35,
            what="full-stack",
        )

    def test_traced_stack_overhead_bounded(self):
        """Full stack *plus* lifecycle tracing (``repro explain``'s
        configuration).  Each block adds a handful of trace.* milestone
        events on top of the baseline journal volume, so this sits a few
        points above the full-stack number.  Regression bound, not a
        budget — the promise that matters is the engine-loop <5% with
        tracing compiled in but disabled, which the first test enforces
        against exactly this build."""
        assert_overhead_under(
            lambda: build_sim(),
            lambda: build_sim(obs=make_obs(trace=True)),
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
