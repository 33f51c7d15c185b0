"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        one experiment (protocol, n, batch, adversary, …);
               ``--out DIR`` instruments it and writes the run directory
``explain``    read a run directory: per-stage commit-latency
               decomposition, causal critical path, health verdict,
               metric and journal-count tables
``fuzz``       seed-deterministic fault-schedule sweep with invariant
               oracles on; failing cases are shrunk and reported as
               reproducible command lines
``explore``    exhaustive delivery-order search of a small zero-latency
               model, oracles armed at every step
``loadtest``   end-to-end client traffic against the replicated KV:
               open/closed-loop populations, admission control, and a
               consensus-vs-end-to-end summary; ``--sweep`` ramps the
               offered rate and renders the saturation knee
``table1``     regenerate Table I (paper vs measured communication steps)
``fig``        regenerate a figure sweep (12, 13, 14 or 15)
``steps``      measure one protocol's commit latency in steps
``viz``        run a short simulation and print the DAG as ASCII art
``protocols``  list available protocols and their worst-case attack

Every command prints a plain-text table.  ``run --out DIR`` also leaves
one artifact: ``DIR/run.json`` (config, argv, git commit, result rows,
metrics, journal counts, health), ``DIR/journal.jsonl`` and a Chrome trace
``DIR/trace.json`` (Perfetto); with ``--repeats``, ``run.json`` only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .adversary.schedule import ATTACKS
from .analysis.obs_export import (
    JOURNAL_JSONL,
    RUN_JSON,
    format_run_dir,
    write_run_dir,
)
from .analysis.stats import repeat_experiment
from .config import CHECK_LEVELS, ExperimentConfig, ProtocolConfig, SystemConfig
from .errors import ConfigError, SweepError
from .harness.cluster import WORST_ATTACK
from .harness.experiments import (
    batch_size_sweep,
    scalability_sweep,
    tradeoff_curve,
    unfavorable_curve,
)
from .harness.report import format_table, render_series, results_table, series_by_protocol
from .harness.runner import PROTOCOL_REGISTRY, run_experiment
from .harness.steps import measure_commit_steps, table1_rows
from .obs import (
    BoundedJournal,
    EventJournal,
    MetricsRegistry,
    Observability,
    Tracer,
)
from .workload.clients import ARRIVAL_KINDS


ADVERSARY_CHOICES = [*ATTACKS, "worst"]


def _adversary(value: str) -> str:
    """Argparse type for the adversary argument: a named adversary or a
    ``schedule:<spec>`` fault schedule (validated fully by the harness)."""
    if value in ADVERSARY_CHOICES or value.startswith("schedule:"):
        return value
    raise argparse.ArgumentTypeError(
        f"unknown adversary {value!r}; choose from "
        f"{', '.join(ADVERSARY_CHOICES)} or 'schedule:<spec>'"
    )


def _add_run_args(
    parser: argparse.ArgumentParser,
    *,
    replicas: int,
    batch: int = 400,
    batch_help: Optional[str] = None,
    adversary: bool = True,
) -> None:
    """The block every command that runs one experiment shares: protocol,
    system size, batch, (adversary,) run length, seed, crypto backend."""
    parser.add_argument("--protocol", default="lightdag2",
                        choices=sorted(PROTOCOL_REGISTRY))
    parser.add_argument("-n", "--replicas", type=int, default=replicas)
    parser.add_argument("--batch", type=int, default=batch, help=batch_help)
    if adversary:
        parser.add_argument("--adversary", default="none", type=_adversary,
                            metavar="ADVERSARY")
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--warmup", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--crypto", default="hmac",
                        choices=["schnorr", "hmac", "null"])


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sweep execution (default: all CPUs "
             "available to this process; 1 = in-process, no pool). "
             "Results are identical at any job count.",
    )


def build_parser() -> argparse.ArgumentParser:
    """The complete argparse tree (exposed for shell-completion tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LightDAG reproduction (IPDPS 2024) — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_run_args(run_p, replicas=7)
    run_p.add_argument("--latency-model", default="wan4", metavar="SPEC",
                       help="latency model name or spec string, e.g. wan4 or "
                            "topology:clusters=8,loss=0.01,jitter_frac=0.1 "
                            "(see repro.net.latency.LATENCY_MODELS)")
    run_p.add_argument("--gc-depth", type=int, default=None, metavar="ROUNDS",
                       help="prune DAG/broadcast state this many rounds below "
                            "the settled commit frontier (bounds memory on "
                            "long large-n runs; default: keep everything)")
    run_p.add_argument(
        "--check-level", default="prefix", choices=CHECK_LEVELS,
        help="how hard to check the run: off, prefix (ledger digest "
             "prefixes, default), final (+post-run deep audit), "
             "full (+mid-run invariant monitor)",
    )
    run_p.add_argument("--repeats", type=int, default=1,
                       help="seeds to average over (§VI-A uses 5)")
    _add_jobs_arg(run_p)
    run_p.add_argument("--out", metavar="DIR",
                       help="instrument the run (metrics, journal, lifecycle "
                            "tracing, health watchdog) and write run.json, "
                            "journal.jsonl and trace.json into DIR; with "
                            "--repeats > 1 only run.json")
    run_p.add_argument("--journal-max-events", type=int, default=None,
                       metavar="N",
                       help="with --out: bound journal memory to a ring of "
                            "the newest N events while the full log streams "
                            "to DIR/journal.jsonl (long-run mode); "
                            "trace.json then covers only the ring")

    explain_p = sub.add_parser(
        "explain",
        help="read a run directory: latency decomposition, health, metrics",
        description="Read the directory 'repro run --out DIR' wrote and "
                    "print the result, where each committed block's latency "
                    "went (broadcast / quorum / gating / coin / ordering), "
                    "the slowest block's causal critical path, the run's "
                    "health verdict, and its metric and journal-count "
                    "tables.",
    )
    explain_p.add_argument("dir", metavar="DIR",
                           help="a directory written by 'repro run --out'")

    fuzz_p = sub.add_parser(
        "fuzz",
        help="fault-schedule fuzzing with invariant oracles",
        description="Sweep seed-deterministic fault schedules across "
                    "protocols with every invariant oracle enabled; shrink "
                    "and report failures as reproducible command lines. "
                    "With --schedule, replay exactly one case instead.",
    )
    fuzz_p.add_argument("--seeds", type=int, default=10,
                        help="number of seeds to sweep (default 10)")
    fuzz_p.add_argument("--seed-start", type=int, default=0,
                        help="first seed (also the seed of a --schedule replay)")
    fuzz_p.add_argument("--protocol", action="append", metavar="NAME",
                        help="protocol(s) to fuzz; repeatable "
                             "(default: every registered protocol)")
    fuzz_p.add_argument("-n", "--replicas", type=int, default=4)
    fuzz_p.add_argument("--duration", type=float, default=6.0,
                        help="simulated seconds per case (default 6)")
    fuzz_p.add_argument("--time-box", type=float, default=None,
                        help="wall-clock budget for the whole sweep (seconds)")
    fuzz_p.add_argument("--schedule", metavar="SPEC", default=None,
                        help="replay one exact fault schedule instead of "
                             "sweeping (grammar: kind@start+duration[:k=v,..];"
                             "...)")
    fuzz_p.add_argument("--gc-depth", type=int, default=None, metavar="ROUNDS",
                        help="GC horizon in rounds for a --schedule replay")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    _add_jobs_arg(fuzz_p)

    explore_p = sub.add_parser(
        "explore",
        help="bounded model checking: exhaustive small-model search",
        description="Enumerate every delivery interleaving of a small "
                    "zero-latency run (DFS over scheduling decisions with "
                    "sleep-set partial-order reduction and canonical state "
                    "hashing), running the invariant oracles at every step "
                    "and the deep audit at every leaf. Violations are "
                    "shrunk and emitted as replayable --schedule command "
                    "lines. Timed fault schedules (loss, partitions) are "
                    "'repro fuzz'.",
    )
    explore_p.add_argument("--protocol", default="lightdag1", metavar="NAME",
                           help="protocol, including registry-excluded "
                                "mutants (default lightdag1)")
    explore_p.add_argument("-n", "--replicas", type=int, default=4)
    explore_p.add_argument("--rounds", type=int, default=3,
                           help="round horizon of the order-space model "
                                "(default 3)")
    explore_p.add_argument("--seed", type=int, default=0)
    explore_p.add_argument("--max-inflight", type=int, default=0,
                           help="cap on schedulable decisions considered "
                                "per state, canonical order (0 = all)")
    explore_p.add_argument("--no-por", action="store_true",
                           help="disable sleep-set partial-order reduction")
    explore_p.add_argument("--max-states", type=int, default=1_000_000)
    explore_p.add_argument("--keep-going", action="store_true",
                           help="keep searching after the first violation")
    explore_p.add_argument("--time-box", type=float, default=None,
                           help="wall-clock budget in seconds")
    explore_p.add_argument("--schedule", metavar="SPEC", default=None,
                           help="replay one 'order' schedule instead of "
                                "searching")
    explore_p.add_argument("--progress", action="store_true",
                           help="print progress to stderr while searching")

    load_p = sub.add_parser(
        "loadtest",
        help="end-to-end client load against the replicated KV",
        description="Drive the repro.smr KV service with a client "
                    "population (open or closed loop) and report consensus "
                    "TPS/latency next to client-observed end-to-end "
                    "TPS/latency. With --sweep, ramp the offered rate "
                    "across the given points and render the saturation "
                    "knee (ASCII figure + JSON).",
    )
    _add_run_args(
        load_p, replicas=4, batch=64, adversary=False,
        batch_help="commands per block proposal (the capacity knob)",
    )
    load_p.add_argument("--latency-model", default="uniform", metavar="SPEC",
                        help="latency model name or spec string (default "
                             "uniform 10-50 ms; e.g. wan4, "
                             "topology:clusters=8,loss=0.01)")
    load_p.add_argument("--clients", type=int, default=100)
    load_p.add_argument("--mode", default="open", choices=["open", "closed"])
    load_p.add_argument("--rate", type=float, default=500.0,
                        help="aggregate offered tx/s (open loop)")
    load_p.add_argument("--arrival", default="poisson",
                        choices=list(ARRIVAL_KINDS),
                        help="open-loop arrival process")
    load_p.add_argument("--arrival-period", type=float, default=2.0,
                        help="bursty/diurnal period in seconds")
    load_p.add_argument("--arrival-duty", type=float, default=0.25,
                        help="bursty on-fraction of each period")
    load_p.add_argument("--arrival-amplitude", type=float, default=0.8,
                        help="diurnal rate swing in [0, 1)")
    load_p.add_argument("--think", type=float, default=0.0,
                        help="closed-loop think time in seconds")
    load_p.add_argument("--outstanding", type=int, default=1,
                        help="closed-loop in-flight commands per client")
    load_p.add_argument("--keys", type=int, default=1000,
                        help="keyspace size per client (or total with "
                             "--shared-keys)")
    load_p.add_argument("--zipf", type=float, default=0.99,
                        help="key popularity skew (0 = uniform)")
    load_p.add_argument("--value-size", type=int, default=16)
    load_p.add_argument("--mix", default="45,45,5,5", metavar="S,G,D,C",
                        help="relative SET,GET,DEL,CAS weights")
    load_p.add_argument("--shared-keys", action="store_true",
                        help="one shared keyspace (disables read-your-"
                             "writes verification)")
    load_p.add_argument("--max-pending", type=int, default=2048,
                        help="admission queue bound per replica "
                             "(0 = unbounded)")
    load_p.add_argument("--admission-policy", default="reject",
                        choices=["reject", "shed-oldest"])
    load_p.add_argument("--per-client-cap", type=int, default=0,
                        help="max queued commands per client (0 = none)")
    load_p.add_argument("--sweep", default=None, metavar="R1,R2,..",
                        help="offered rates to sweep instead of one run")
    _add_jobs_arg(load_p)
    load_p.add_argument("--json", metavar="PATH",
                        help="write results JSON (single run or sweep)")
    load_p.add_argument("--figure", metavar="PATH",
                        help="write the ASCII saturation figure "
                             "(sweep only; also printed)")

    sub.add_parser("table1", help="Table I: paper vs measured step counts")

    fig_p = sub.add_parser("fig", help="regenerate a figure sweep")
    fig_p.add_argument("number", type=int, choices=[12, 13, 14, 15])
    fig_p.add_argument("--duration", type=float, default=10.0)
    fig_p.add_argument("--seed", type=int, default=0)
    fig_p.add_argument("--small", action="store_true",
                       help="reduced axes (quick look)")
    _add_jobs_arg(fig_p)

    steps_p = sub.add_parser("steps", help="measure commit steps for one protocol")
    steps_p.add_argument("--protocol", default="lightdag2",
                         choices=sorted(PROTOCOL_REGISTRY))
    steps_p.add_argument("-n", "--replicas", type=int, default=4)

    viz_p = sub.add_parser("viz", help="short run + ASCII DAG")
    viz_p.add_argument("--protocol", default="lightdag2",
                       choices=sorted(PROTOCOL_REGISTRY))
    viz_p.add_argument("-n", "--replicas", type=int, default=4)
    viz_p.add_argument("--duration", type=float, default=3.0)
    viz_p.add_argument("--rounds", type=int, default=12,
                       help="DAG rounds to display")
    viz_p.add_argument("--seed", type=int, default=0)

    sub.add_parser("protocols", help="list protocols")
    return parser


def _make_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        system=SystemConfig(
            n=args.replicas, crypto=args.crypto, seed=args.seed
        ),
        protocol=ProtocolConfig(
            batch_size=args.batch,
            gc_depth=args.gc_depth,
        ),
        protocol_name=args.protocol,
        adversary_name=args.adversary,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        check_level=args.check_level,
        latency_model=args.latency_model,
    )


def _cmd_run(args) -> int:
    cfg = _make_config(args)
    out = Path(args.out) if args.out else None
    if out is None and args.journal_max_events is not None:
        raise ConfigError("--journal-max-events bounds the journal of "
                          "--out DIR; give --out")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    if args.repeats > 1:
        repeated = repeat_experiment(cfg, repeats=args.repeats, jobs=args.jobs)
        print(format_table([repeated.row()], list(repeated.row())))
        if out is not None:
            write_run_dir(out, cfg, [*repeated.runs, repeated], args.argv)
            print(f"wrote {out / RUN_JSON}")
        return 0
    if out is None:
        print(results_table([run_experiment(cfg)]))
        return 0
    if args.journal_max_events is not None:
        journal = BoundedJournal(
            args.journal_max_events, spill_path=str(out / JOURNAL_JSONL)
        )
    else:
        journal = EventJournal()
    obs = Observability(MetricsRegistry(), journal, trace=Tracer(journal))
    result = run_experiment(cfg, obs=obs, health=True)
    print(results_table([result]))
    write_run_dir(out, cfg, [result], args.argv, obs=obs, health=result.health)
    print(f"wrote {out}/ (read it with: repro explain {out})")
    return 0


def _cmd_explain(args) -> int:
    print(format_run_dir(args.dir))
    return 0


def _cmd_fuzz(args) -> int:
    # Lazy import: the fuzzer pulls in the harness, which most CLI paths
    # already have, but keeping it here mirrors repro.check's layering.
    from .check.fuzzer import FuzzCase, fuzz, run_case, shrink
    from .check.mutants import MUTANT_REGISTRY

    registry = {**PROTOCOL_REGISTRY, **MUTANT_REGISTRY}
    for name in args.protocol or []:
        if name not in registry:
            print(f"unknown protocol {name!r}; choose from "
                  f"{', '.join(sorted(registry))}", file=sys.stderr)
            return 2

    if args.schedule is not None:
        protocols = args.protocol or ["lightdag2"]
        if len(protocols) != 1:
            print("--schedule replays exactly one case; give one --protocol",
                  file=sys.stderr)
            return 2
        case = FuzzCase(
            protocol=protocols[0], seed=args.seed_start, n=args.replicas,
            duration=args.duration, schedule=args.schedule,
            gc_depth=args.gc_depth,
        )
        error = run_case(case, registry=registry)
        if error is None:
            print(f"OK: {case.command()}")
            return 0
        print(f"FAIL: {error}")
        if not args.no_shrink:
            shrunk, attempts = shrink(case, registry=registry)
            if shrunk != case:
                print(f"shrunk ({attempts} attempts): {shrunk.command()}")
        print(f"reproduce with: {case.command()}")
        return 1

    report = fuzz(
        protocols=args.protocol or None,
        seeds=range(args.seed_start, args.seed_start + args.seeds),
        n=args.replicas,
        duration=args.duration,
        time_box=args.time_box,
        registry=registry,
        shrink_failures=not args.no_shrink,
        log=print,
        jobs=args.jobs,
    )
    suffix = " (time box hit)" if report.timed_out else ""
    rate = report.runs / report.elapsed if report.elapsed > 0 else float("inf")
    print(f"{report.runs} runs in {report.elapsed:.1f}s "
          f"({rate:.1f} runs/s), {len(report.failures)} failure(s){suffix}")
    for failure in report.failures:
        print(f"\n{failure.case.protocol} seed={failure.case.seed}: "
              f"{failure.error}")
        print(f"  reproduce: {failure.minimal().command()}")
        if failure.health is not None:
            alerts = failure.health.get("alerts") or {}
            alert_note = (
                " (" + ", ".join(f"{k}×{v}" for k, v in sorted(alerts.items()))
                + ")" if alerts else ""
            )
            print(f"  health: {failure.health['verdict']}{alert_note}")
    return 1 if report.failures else 0


def _cmd_explore(args) -> int:
    # Lazy import, like the fuzzer: the explorer pulls in the harness and
    # the mutant registry.
    from .check.explorer import (
        ExploreConfig,
        default_registry,
        explore,
        replay_schedule,
    )

    registry = default_registry()
    if args.protocol not in registry:
        print(f"unknown protocol {args.protocol!r}; choose from "
              f"{', '.join(sorted(registry))}", file=sys.stderr)
        return 2

    cfg = ExploreConfig(
        protocol=args.protocol,
        n=args.replicas,
        max_rounds=args.rounds,
        seed=args.seed,
        max_inflight=args.max_inflight,
        por=not args.no_por,
        max_states=args.max_states,
        time_box_s=args.time_box,
        stop_on_violation=not args.keep_going,
    )
    if args.schedule is not None:
        violation = replay_schedule(cfg, args.schedule, registry=registry)
        if violation is None:
            print("OK: schedule replayed without violation")
            return 0
        print(f"FAIL: {violation.error}")
        print(f"  reproduce: {violation.command}")
        return 1

    def explore_progress(report) -> None:
        print(f"  {report.states_explored} states, "
              f"{report.states_pruned} pruned, depth<="
              f"{report.max_depth_seen}", file=sys.stderr)

    report = explore(
        cfg, registry=registry,
        progress=explore_progress if args.progress else None,
    )
    status = "complete" if report.complete else "incomplete"
    print(f"explore: {report.states_explored} states explored, "
          f"{report.states_pruned} pruned, {report.distinct_states} "
          f"distinct, {report.leaves} leaves, {report.sleep_skips} sleep "
          f"skips, depth<={report.max_depth_seen} in {report.elapsed:.1f}s "
          f"({status})")
    for v in report.violations:
        where = "leaf" if v.at_leaf else "step"
        print(f"\n{v.oracle} ({where}, {len(v.path)} decisions): {v.error}")
        print(f"  schedule: {v.schedule}")
        print(f"  reproduce: {v.command}")
    return 1 if report.violations else 0


def _cmd_loadtest(args) -> int:
    # Lazy import: the loadtest stack (clients, admission, report) is only
    # needed by this command.
    from .analysis.loadreport import (
        format_load_summary,
        format_sweep_table,
        loadtest_results_to_json,
        render_saturation_figure,
    )
    from .harness.loadtest import LoadtestConfig, run_loadtest, run_loadtest_sweep
    from .workload.admission import AdmissionConfig
    from .workload.clients import WorkloadSpec

    try:
        mix = tuple(float(w) for w in args.mix.split(","))
    except ValueError:
        print(f"--mix must be 4 comma-separated numbers, got {args.mix!r}",
              file=sys.stderr)
        return 2
    workload = WorkloadSpec(
        clients=args.clients,
        mode=args.mode,
        rate=args.rate,
        arrival=args.arrival,
        arrival_period=args.arrival_period,
        arrival_duty=args.arrival_duty,
        arrival_amplitude=args.arrival_amplitude,
        think_s=args.think,
        outstanding=args.outstanding,
        keys=args.keys,
        zipf=args.zipf,
        value_size=args.value_size,
        mix=mix,
        shared_keys=args.shared_keys,
        seed=args.seed,
    )
    cfg = LoadtestConfig(
        n=args.replicas,
        protocol_name=args.protocol,
        batch_size=args.batch,
        crypto=args.crypto,
        latency_model=args.latency_model,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        workload=workload,
        admission=AdmissionConfig(
            max_pending=args.max_pending,
            policy=args.admission_policy,
            per_client_cap=args.per_client_cap,
        ),
    )

    if args.sweep is None:
        result = run_loadtest(cfg)
        print(format_load_summary(result))
        if result.verify_failures:
            print(f"ERROR: {result.verify_failures} read-your-writes "
                  f"verification failure(s)", file=sys.stderr)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(loadtest_results_to_json([result]))
            print(f"wrote {args.json}")
        return 1 if result.verify_failures else 0

    try:
        rates = [float(r) for r in args.sweep.split(",") if r.strip() != ""]
    except ValueError:
        print(f"--sweep must be comma-separated rates, got {args.sweep!r}",
              file=sys.stderr)
        return 2
    if not rates:
        print("--sweep needs at least one rate", file=sys.stderr)
        return 2
    results = run_loadtest_sweep(
        [cfg.with_rate(rate) for rate in rates], jobs=args.jobs
    )
    print(format_sweep_table(results))
    print()
    figure = render_saturation_figure(results)
    print(figure)
    if args.figure:
        with open(args.figure, "w", encoding="utf-8") as fh:
            fh.write(figure + "\n")
        print(f"wrote {args.figure}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(loadtest_results_to_json(results))
        print(f"wrote {args.json}")
    failures = sum(r.verify_failures for r in results)
    if failures:
        print(f"ERROR: {failures} read-your-writes verification failure(s)",
              file=sys.stderr)
    return 1 if failures else 0


def _cmd_table1(args) -> int:
    rows = table1_rows()
    print(format_table(rows, [
        "protocol", "wave_length", "broadcast", "paper_best",
        "paper_best_early", "paper_worst", "measured_best", "measured_mean",
    ]))
    return 0


def _cmd_fig(args) -> int:
    duration = args.duration
    if args.number == 12:
        results = batch_size_sweep(
            replica_counts=(4, 7) if args.small else (7, 22),
            batch_sizes=(100, 400) if args.small else (100, 200, 400, 600, 800, 1000),
            duration=duration, seed=args.seed, jobs=args.jobs,
        )
        print(render_series(series_by_protocol(results, "batch"), "batch"))
    elif args.number == 13:
        results = scalability_sweep(
            replica_counts=(4, 7, 13) if args.small else (7, 13, 22, 31, 43, 61),
            duration=duration, seed=args.seed, jobs=args.jobs,
        )
        print(render_series(series_by_protocol(results, "n"), "n"))
    else:
        sweep = tradeoff_curve if args.number == 14 else unfavorable_curve
        results = sweep(
            replica_counts=(4,) if args.small else (7, 22),
            batch_ramp=(100, 800) if args.small else (100, 400, 1000, 2000),
            duration=max(duration, 15.0) if args.number == 15 else duration,
            seed=args.seed, jobs=args.jobs,
        )
        print(render_series(series_by_protocol(results, "batch"), "batch"))
    return 0


def _cmd_steps(args) -> int:
    measured = measure_commit_steps(args.protocol, n=args.replicas)
    print(f"{args.protocol}: best={measured.best_steps:.0f} steps, "
          f"mean={measured.mean_steps:.2f}, waves={measured.waves_committed}")
    return 0


def _cmd_viz(args) -> int:
    from .analysis.dagviz import dag_to_ascii
    from .harness.cluster import assemble
    from .net.latency import UniformLatency
    from .net.simulator import Simulation

    system = SystemConfig(n=args.replicas, crypto="hmac", seed=args.seed)
    cluster = assemble(
        system, ProtocolConfig(batch_size=10), PROTOCOL_REGISTRY[args.protocol]
    )
    sim = Simulation(
        cluster.factories,
        latency_model=UniformLatency(0.02, 0.06),
        seed=args.seed,
    )
    sim.run(until=args.duration)
    node = sim.nodes[0]
    leaders = {
        node.leader_block_of(w).digest
        for w in node.commit.committed_leader_waves
        if node.leader_block_of(w) is not None
    }
    print(f"{args.protocol} after {args.duration:.1f}s simulated "
          f"(replica 0's view, {len(node.ledger)} blocks committed):\n")
    print(dag_to_ascii(node.store, ledger=node.ledger, leaders=leaders,
                       last_round=min(args.rounds, node.store.highest_round())))
    return 0


def _cmd_protocols(args) -> int:
    rows = [
        {
            "name": name,
            "class": cls.__name__,
            "wave": f"{cls.WAVE_LENGTH}{'*' if cls.WAVE_OVERLAP else ''}",
            "broadcast": ",".join(cls.BROADCAST),
            "support": f"{cls.SUPPORT_THRESHOLD} @+{cls.SUPPORT_DEPTH}",
            "leaders": cls.LEADER_SOURCE,
            "worst_attack": WORST_ATTACK[name],
        }
        for name, cls in sorted(PROTOCOL_REGISTRY.items())
    ]
    print(format_table(rows, ["name", "class", "wave", "broadcast", "support",
                              "leaders", "worst_attack"]))
    print("(* = overlapping wave boundary; support = supporters needed, in "
          "the round that many after the leader's)")
    print("Each attack is a fault schedule; at n=7, --adversary NAME runs "
          "what --adversary 'schedule:SPEC' runs:")
    for name in sorted(set(WORST_ATTACK.values())):
        print(f"  {name:12}  {ATTACKS[name](SystemConfig(n=7))}")
    return 0


_HANDLERS = {
    "run": _cmd_run,
    "explain": _cmd_explain,
    "fuzz": _cmd_fuzz,
    "explore": _cmd_explore,
    "loadtest": _cmd_loadtest,
    "table1": _cmd_table1,
    "fig": _cmd_fig,
    "steps": _cmd_steps,
    "viz": _cmd_viz,
    "protocols": _cmd_protocols,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A value the configuration refuses exits 2 with one line on stderr, as
    argparse does for a malformed flag.  A sweep with a failed run exits 1,
    as a fuzz violation does, after its message (replay lines included)
    on stderr."""
    args = build_parser().parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except SweepError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
