"""One rep of one workload, in a fresh process.

``python3 benchmarks/suite/rep.py WORKLOAD SEED [--traced] [--setup-only]``
builds the workload's configuration from the seed, runs it once, checks the
outputs, and prints one JSON object as the last line of standard output.

Timing is a single outer timer the suite puts around ``Simulation.run``
(or, on TCP, from the first ``on_start`` to the end of ``asyncio.run``):
``setup_s`` is process entry to the first start of that region,
``host_wall_s`` the time inside it.  Every workload is a fixed amount of
work; the TCP rep, whose clock is the wall clock, also samples the host's
speed while it runs and reports at reference speed (``hostspeed.py``).  With ``--traced`` the suite's span
wrappers are installed as well and the per-layer metrics are reported; the
end-to-end numbers of a traced rep are never used.
"""

from __future__ import annotations

import time

_ENTRY = time.perf_counter()

import argparse  # noqa: E402 — the entry clock must start before any import
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
for _path in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.suite import workloads as wl  # noqa: E402


class _SetupDone(Exception):
    """Raised at the start of the timed region of a ``--setup-only`` rep."""


class RegionTimer:
    """The single outer timer around the timed region."""

    def __init__(self, setup_only: bool) -> None:
        self.setup_only = setup_only
        self.setup_s = None
        self.wall_s = 0.0
        self.subjects = []

    def begin(self) -> None:
        if self.setup_s is None:
            self.setup_s = time.perf_counter() - _ENTRY
        if self.setup_only:
            raise _SetupDone

    @contextmanager
    def around(self, cls, attr: str):
        """While open, every ``cls.attr(obj, ...)`` call is (part of) the
        timed region and ``obj`` is kept in :attr:`subjects`."""
        fn = getattr(cls, attr)

        def timed(obj, *args, **kwargs):
            self.begin()
            self.subjects.append(obj)
            t0 = time.perf_counter()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self.wall_s += time.perf_counter() - t0

        setattr(cls, attr, timed)
        try:
            yield
        finally:
            setattr(cls, attr, fn)


def max_commit_gap(ledgers, start: float, end: float) -> float:
    """Longest time without a commit at any of ``ledgers`` in [start, end].

    The window's edges count as boundaries, so a replica that stops
    committing for good is charged up to the end of the run.
    """
    worst = 0.0
    for ledger in ledgers:
        last = start
        for record in ledger:
            t = record.commit_time
            if t <= start:
                continue
            if t > end:
                break
            worst = max(worst, t - last)
            last = t
        worst = max(worst, end - last)
    return worst


def fingerprint(sims) -> str:
    """sha256 over replica 0's ledger digests and the engine's counters."""
    h = hashlib.sha256()
    for sim in sims:
        for digest in sim.nodes[0].ledger.digest_sequence():
            h.update(digest)
        stats = sim.stats
        h.update(
            f"|{stats.events_processed}|{stats.messages_sent}|{stats.bytes_sent}|".encode()
        )
    return h.hexdigest()


def _node_facts(nodes) -> dict:
    return {
        "rounds_reached": max(node.current_round for node in nodes),
        "reproposals": sum(getattr(node, "reproposals", 0) for node in nodes),
        "retrieval_requests": sum(n.retrieval.requests_sent for n in nodes),
        "retrieval_responses": sum(n.retrieval.responses_sent for n in nodes),
        "retrieval_abandoned": sum(n.retrieval.abandoned_count for n in nodes),
        "committed_blocks": len(nodes[0].ledger),
        "committed_txs": nodes[0].ledger.total_transactions(),
    }


def _sim_facts(sims) -> dict:
    return {
        "events": sum(s.stats.events_processed for s in sims),
        "messages_sent": sum(s.stats.messages_sent for s in sims),
        "bytes_sent": sum(s.stats.bytes_sent for s in sims),
        "messages_dropped": sum(s.stats.messages_dropped for s in sims),
    }


# ------------------------------------------------------------------ sim_*


def run_sim(name: str, seed: int, timer: RegionTimer) -> dict:
    from repro.adversary.schedule import FaultSchedule
    from repro.harness.runner import run_experiment
    from repro.net.simulator import Simulation

    cfg = wl.sim_config(name, seed)
    with timer.around(Simulation, "run"):
        # run_experiment checks prefix consistency (and, at check_level=full,
        # runs the invariant monitor and the deep audit); a violation raises.
        result = run_experiment(cfg)
    (sim,) = timer.subjects
    faulty = set(sim.crashed)
    if cfg.adversary_name.startswith("schedule:"):
        schedule = FaultSchedule.from_spec(cfg.adversary_name[len("schedule:"):])
        faulty |= set(schedule.faulty_replicas())
    honest = [node for i, node in enumerate(sim.nodes) if i not in faulty]
    facts = {**_sim_facts([sim]), **_node_facts(honest)}
    facts["max_commit_gap_s"] = max_commit_gap(
        [node.ledger for node in honest], cfg.warmup, cfg.duration
    )
    return {
        "metrics": {
            "latency_p50_s": result.p50_latency,
            "latency_tail_s": result.p95_latency,
            "throughput_tps": result.throughput_tps,
        },
        "fingerprint": fingerprint([sim]),
        "attempted": 1,
        "failed": 0,
        "facts": facts,
    }


# ------------------------------------------------------- loadtest_open_n4


def run_loadtest_ladder(seed: int, timer: RegionTimer) -> dict:
    from repro.harness.loadtest import run_loadtest
    from repro.net.simulator import Simulation

    results = []
    for rate in wl.LOAD_LADDER:
        with timer.around(Simulation, "run"):
            # run_loadtest ends with verify_convergence; divergence raises.
            results.append(run_loadtest(wl.loadtest_config(seed, rate)))
    sims = timer.subjects
    errors = []
    under_limit = 0.0
    still_under = True
    for rate, res in zip(wl.LOAD_LADDER, results):
        if res.verify_failures:
            errors.append(f"{res.verify_failures} read-your-writes failures at {rate} tx/s")
        outstanding = res.submitted - res.completed - res.rejected - res.shed
        still_under = (
            still_under
            and res.e2e_p99_s <= wl.LOAD_LATENCY_LIMIT_S
            and res.rejected == 0
            and res.shed == 0
            # no growing backlog: what is still in flight at the end is at
            # most what arrives within the latency limit
            and outstanding <= rate * wl.LOAD_LATENCY_LIMIT_S
        )
        if still_under:
            under_limit = rate
    reference = results[wl.LOAD_LADDER.index(wl.LOAD_REFERENCE_RATE)]
    if under_limit < wl.LOAD_REFERENCE_RATE:
        errors.append(
            f"reference rate {wl.LOAD_REFERENCE_RATE} tx/s is over the latency "
            f"limit (highest rate under it: {under_limit})"
        )
    ref_sim = sims[wl.LOAD_LADDER.index(wl.LOAD_REFERENCE_RATE)]
    facts = {**_sim_facts(sims), **_node_facts(ref_sim.nodes)}
    facts["committed_blocks"] = sum(len(s.nodes[0].ledger) for s in sims)
    facts["committed_txs"] = sum(s.nodes[0].ledger.total_transactions() for s in sims)
    facts["max_commit_gap_s"] = max_commit_gap(
        [node.ledger for node in ref_sim.nodes], wl.LOAD_WARMUP, wl.RUNG_SECONDS
    )
    facts["queue_wait_p50_s"] = reference.e2e_p50_s - reference.consensus_p50_s
    facts["e2e_latency_p99_s"] = reference.e2e_p99_s
    facts["max_pending_depth"] = reference.max_pending_depth
    return {
        "metrics": {
            "latency_p50_s": reference.e2e_p50_s,
            "latency_tail_s": reference.e2e_p99_s,
            "throughput_tps": under_limit,
        },
        "fingerprint": fingerprint(sims),
        "attempted": reference.submitted,
        "failed": reference.rejected + reference.shed + reference.verify_failures,
        "errors": errors,
        "facts": facts,
    }


# ------------------------------------------------------- tcp_saturated_n4


def run_tcp(seed: int, timer: RegionTimer, tracer) -> dict:
    import asyncio

    from benchmarks.suite.hostspeed import Sampler
    from repro.core.lightdag2 import LightDag2Node
    from repro.crypto.keys import TrustedDealer
    from repro.dag.ledger import check_prefix_consistency
    from repro.net.tcp import TcpCluster
    from repro.workload.metrics import MetricsCollector
    from repro.workload.txgen import Mempool

    system, protocol = wl.tcp_configs(seed)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    # No time window on the collector: the suite hands it exactly the
    # measured blocks, by ledger position (see workloads.TCP_BLOCKS).
    collector = MetricsCollector()
    mempools = [Mempool.from_config(protocol) for _ in range(system.n)]
    committed = [0] * system.n
    window_start = [0.0] * system.n  # commit time of the last warm-up block
    window_end = [0.0] * system.n  # commit time of the last measured block
    still_measuring = set(range(system.n))
    stop = []  # the running loop's "all replicas are done" callback

    def on_commit_for(i: int):
        observe = collector.callback_for(i)

        def on_commit(record) -> None:
            committed[i] += 1
            if committed[i] <= wl.TCP_WARMUP_BLOCKS:
                window_start[i] = record.commit_time
            elif committed[i] <= wl.TCP_BLOCKS:
                observe(record)
                window_end[i] = record.commit_time
                if committed[i] == wl.TCP_BLOCKS:
                    still_measuring.discard(i)
                    if not still_measuring:
                        stop[0]()

        return on_commit

    def factory(i: int):
        return lambda net: LightDag2Node(
            net, system, protocol, chains[i],
            payload_source=mempools[i].take,
            on_commit=on_commit_for(i),
        )

    cluster = TcpCluster([factory(i) for i in range(system.n)])
    # The timed region starts when the first node starts: servers are up
    # and every peer is dialled by then, which is set-up.
    first = cluster.nodes[0]
    start_node = first.on_start
    started = []
    sampler = None

    def on_start() -> None:
        timer.begin()
        started.append(time.perf_counter())
        # Host-speed samples would be billed to net.tcp in a traced rep,
        # whose times are scaled to the untraced rep's anyway.
        if tracer is None:
            sampler.start()
        start_node()

    first.on_start = on_start

    async def drive() -> None:
        nonlocal sampler
        sampler = Sampler(asyncio.get_running_loop())
        done = asyncio.Event()
        stop.append(done.set)
        run = asyncio.ensure_future(cluster.run(wl.TCP_TIMEOUT_S))
        waiter = asyncio.ensure_future(done.wait())
        await asyncio.wait({run, waiter}, return_when=asyncio.FIRST_COMPLETED)
        sampler.stop()
        waiter.cancel()
        # Cancelling lands in run()'s sleep; its ``finally`` tears the
        # cluster down before the cancellation comes back out here.
        run.cancel()
        try:
            await run
        except asyncio.CancelledError:
            pass

    try:
        if tracer is not None:
            with tracer.root("TcpCluster.run", "net.tcp"):
                asyncio.run(drive())
        else:
            asyncio.run(drive())
    finally:
        if started:
            timer.wall_s = time.perf_counter() - started[0]

    errors = []
    ledgers = [node.ledger for node in cluster.nodes]
    check_prefix_consistency(ledgers)
    if cluster.decode_errors:
        errors.append(f"{cluster.decode_errors} frames failed to decode")
    if still_measuring:
        errors.append(
            f"replicas {sorted(still_measuring)} committed {min(committed)} of "
            f"{wl.TCP_BLOCKS} blocks in {wl.TCP_TIMEOUT_S} s"
        )
        return {"errors": errors}
    facts = _node_facts(cluster.nodes)
    facts.update(
        frames_sent=cluster.frames_sent,
        frames_received=cluster.frames_received,
        decode_errors=cluster.decode_errors,
    )
    facts["max_commit_gap_s"] = max_commit_gap(
        ledgers, max(window_start), min(window_end)
    )
    window_s = sum(e - s for s, e in zip(window_start, window_end)) / system.n
    speed = sampler.speed()
    return {
        # Wall-clock times and rates, at reference host speed (hostspeed.py).
        "metrics": {
            "latency_p50_s": collector.latency_quantile(0.5) * speed,
            "latency_tail_s": collector.latency_quantile(0.95) * speed,
            "throughput_tps": collector.throughput(window_s) / speed,
        },
        "host_speed": speed,
        "fingerprint": None,
        "attempted": 1,
        "failed": 0,
        "errors": errors,
        "facts": facts,
    }


# ------------------------------------------------------------------- main


def run_rep(name: str, seed: int, traced: bool, setup_only: bool,
            untraced_wall_s: float = 0.0, trace_path=None) -> dict:
    """Run one rep in this process; returns the JSON-ready report."""
    workload = wl.WORKLOADS[name]
    timer = RegionTimer(setup_only)
    tracer = None
    out = {"workload": name, "seed": seed, "traced": traced, "errors": []}
    if traced:
        from benchmarks.suite.layers import ENTRIES, ROOTS
        from benchmarks.suite.tracer import Tracer

        tracer = Tracer()
        tracer.calibrate()
        tracer.install(ENTRIES, ROOTS)
    try:
        if workload.kind == "sim":
            body = run_sim(name, seed, timer)
        elif workload.kind == "loadtest":
            body = run_loadtest_ladder(seed, timer)
        else:
            body = run_tcp(seed, timer, tracer)
    except _SetupDone:
        body = {}
    except Exception:  # noqa: BLE001 — process boundary: report, don't die
        body = {"errors": [traceback.format_exc()]}
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["errors"] += body.pop("errors", [])
    facts = body.pop("facts", None)
    out.update(body)
    # Only the TCP rep measures the host's speed; elsewhere 1.0 (as found).
    out["host_speed"] = body.get("host_speed", 1.0)
    out["setup_s"] = timer.setup_s
    out["host_wall_s"] = timer.wall_s * out["host_speed"]
    if tracer is not None and facts is not None and not out["errors"]:
        out["layers"] = _layer_report(
            tracer, workload, facts, untraced_wall_s, out["host_wall_s"],
            trace_path, out,
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _layer_report(tracer, workload, facts, untraced_wall_s, traced_wall_s,
                  trace_path, out) -> dict:
    from benchmarks.suite.layers import layer_metrics

    called = tracer.by_name()
    missing = [
        suffix
        for suffix in workload.expect
        if not any(name.endswith(suffix) and row["calls"] for name, row in called.items())
    ]
    if missing:
        out["errors"].append(
            f"entry points never called in the timed region: {missing}"
        )
    try:
        metrics = layer_metrics(
            tracer, facts, untraced_wall_s, traced_wall_s,
            fixed_work=untraced_wall_s > 0.0,
        )
    except RuntimeError as exc:  # layer split does not sum to the root span
        out["errors"].append(str(exc))
        metrics = {}
    if trace_path is not None:
        tracer.write(trace_path, {"workload": workload.name, "seed": out["seed"]})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--untraced-wall", type=float, default=0.0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)
    report = run_rep(
        args.workload, args.seed, args.traced, args.setup_only,
        args.untraced_wall, args.trace_file,
    )
    print(json.dumps(report))
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
