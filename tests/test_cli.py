"""Tests for the CLI (invoked in-process through main())."""

import argparse
import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.latency import explain_report, format_report
from repro.analysis.obs_export import load_journal_jsonl
from repro.cli import build_parser, main
from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.harness.runner import run_experiment
from repro.obs import EventJournal, MetricsRegistry, Observability


def cli_surface() -> dict:
    """Every sub-command's options: flag spellings, default, choices, type."""
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {
            (a.option_strings[-1] if a.option_strings else a.dest): {
                "flags": sorted(a.option_strings),
                "default": a.default,
                "choices": list(a.choices) if a.choices is not None else None,
                "type": getattr(a.type, "__name__", None),
            }
            for a in command._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, command in sub.choices.items()
    }


class TestParser:
    def test_surface_is_the_pinned_one(self):
        """``cli_surface.json`` pins every sub-command's options: no flag
        may appear, vanish, or change spelling, default, choices or type
        unless the file is regenerated on purpose."""
        pinned = json.loads(
            Path(__file__).with_name("cli_surface.json").read_text()
        )
        surface = cli_surface()
        assert sorted(surface) == sorted(pinned)
        for command in pinned:
            assert surface[command] == pinned[command], command

    def test_help_lists_every_pinned_flag(self, capsys):
        pinned = json.loads(
            Path(__file__).with_name("cli_surface.json").read_text()
        )
        for command in ("run", "explain", "loadtest"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            text = capsys.readouterr().out
            for option in pinned[command].values():
                assert all(flag in text for flag in option["flags"]), option

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "pbft"])

    def test_fig_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "99"])

    @pytest.mark.parametrize("command", ["run", "fuzz"])
    def test_gc_depth_documented_in_rounds(self, command):
        """``ProtocolConfig.gc_depth`` is a horizon in rounds, not waves."""
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        (action,) = [
            a for a in sub.choices[command]._actions
            if "--gc-depth" in a.option_strings
        ]
        assert action.metavar == "ROUNDS"
        assert "round" in action.help and "wave" not in action.help

    @pytest.mark.parametrize("argv", [
        ["run", "--batch", "0"],
        ["run", "--gc-depth", "2"],
        ["run", "--adversary", "schedule:bogus@1"],
        ["run", "--latency-model", "nosuch"],
        ["run", "--journal-max-events", "64"],  # bounds --out's journal
        ["run", "--repeats", "0"],
        ["run", "--repeats", "-1"],
        ["loadtest", "--duration", "1"],  # the default warmup is 2 s
        ["fuzz", "--protocol", "nope"],
        ["explore", "--protocol", "nope"],
        ["fuzz", "--schedule", "S",
         "--protocol", "lightdag1", "--protocol", "lightdag2"],
    ])
    def test_config_error_is_a_usage_error(self, argv, capsys):
        """A value the configuration refuses exits 2 with one stderr line,
        as argparse does for a malformed flag — never a traceback."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "loadtest"])
def test_out_naming_a_file_is_a_usage_error(command, monkeypatch, capsys, tmp_path):
    """``--out`` is checked before any simulation runs."""
    from repro import cli
    from repro.harness import loadtest

    def no_simulation(cfg, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(cli, "run_experiment", no_simulation)
    monkeypatch.setattr(loadtest, "run_loadtest", no_simulation)
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "sub"):
        assert main([command, "--duration", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: --out ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestFailedSweeps:
    """A sweep with a failed run exits 1 with its replay lines on stderr —
    the same code as a fuzz violation — and never a traceback."""

    @pytest.fixture
    def second_run_fails(self, monkeypatch):
        from repro.harness import parallel

        real, calls = parallel.run_experiment, []

        def run_experiment(cfg):
            calls.append(cfg)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return real(cfg)

        monkeypatch.setattr(parallel, "run_experiment", run_experiment)

    @pytest.mark.parametrize("argv", [
        ["run", "-n", "4", "--batch", "20", "--duration", "3", "--repeats", "2"],
        ["fig", "12", "--small", "--duration", "3"],
    ])
    def test_experiment_sweep(self, second_run_fails, argv, capsys):
        assert main([*argv, "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error: 1 of ")
        assert "RuntimeError: boom" in err and "replay: python -m repro run " in err
        assert "Traceback" not in err

    def test_loadtest_sweep(self, monkeypatch, capsys):
        from repro.harness import loadtest

        def run_loadtest(cfg):
            raise RuntimeError(f"boom at {cfg.workload.rate}")

        monkeypatch.setattr(loadtest, "run_loadtest", run_loadtest)
        assert main(["loadtest", "--sweep", "100,200", "--duration", "3",
                     "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error: 2 loadtest point(s) failed")
        assert "rate=100.0: RuntimeError: boom at 100.0" in err


class TestCommands:
    def test_protocols(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "lightdag2" in out and "worst_attack" in out

    def test_run_prints_result(self, capsys):
        assert main(["run", "--protocol", "lightdag1", "-n", "4",
                     "--batch", "20", "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "lightdag1" in out and "tps" in out

    def test_run_with_adversary(self, capsys):
        assert main(["run", "--protocol", "tusk", "-n", "4", "--batch", "20",
                     "--duration", "4", "--adversary", "worst"]) == 0
        assert "tusk" in capsys.readouterr().out

    def test_run_exports(self, capsys, tmp_path):
        argv = ["run", "-n", "4", "--batch", "20", "--duration", "3",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        # Strict JSON: an empty histogram's NaN statistics are null.
        run = json.loads((tmp_path / "run.json").read_text(),
                         parse_constant=pytest.fail)
        assert any(m.get("mean", 0) is None for m in run["metrics"])
        assert run["results"][0]["protocol"] == "lightdag2"
        assert run["config"]["system"]["n"] == 4 and run["seed"] == 0
        assert run["argv"] == argv
        assert "git_commit" in run

    @pytest.mark.parametrize("rates", [[200.0, 400.0], [300.0]])
    def test_loadtest_out_is_explainable(self, rates, capsys, tmp_path):
        """explain prints the sweep table the command printed, and the
        saturation figure exactly when the command printed one."""
        assert main(["loadtest", "--duration", "3", "--warmup", "1",
                     "--sweep", ",".join(map(str, rates)), "--jobs", "1",
                     "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        run = json.loads((tmp_path / "run.json").read_text(),
                         parse_constant=pytest.fail)
        assert run["config"]["workload"]["mode"] == "open"
        assert [row["offered_tps"] for row in run["results"]] == rates
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
        assert main(["explain", str(tmp_path)]) == 0
        explained = capsys.readouterr().out
        assert "e2e_p99_s" in explained
        assert ("c=consensus mean" in explained) == (len(rates) > 1)
        assert printed.startswith(explained)

    def test_run_repeats(self, capsys):
        assert main(["run", "-n", "4", "--batch", "20", "--duration", "3",
                     "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "tps_mean" in out and "tps_ci95" in out

    def test_run_obs_exports(self, capsys, tmp_path):
        assert main(["run", "--protocol", "lightdag1", "-n", "4",
                     "--batch", "20", "--duration", "3",
                     "--out", str(tmp_path)]) == 0
        parsed = json.loads((tmp_path / "trace.json").read_text())
        assert any(e["ph"] == "X" for e in parsed["traceEvents"])
        run = json.loads((tmp_path / "run.json").read_text())
        assert any(m["name"] == "net.messages_sent" and m["kind"] == "counter"
                   for m in run["metrics"])
        events = load_journal_jsonl(tmp_path / "journal.jsonl")
        assert sum(run["journal_counts"].values()) == len(events)
        first = next(e for e in events if not e["type"].startswith("trace."))
        assert first["type"] == "block.propose"
        assert run["health"]["verdict"] == "healthy"

    def test_run_obs_ignored_with_repeats(self, capsys, tmp_path):
        """Several seeds record no telemetry: run.json holds each seed's
        row and the aggregate, and nothing else is written."""
        assert main(["run", "-n", "4", "--batch", "20", "--duration", "3",
                     "--repeats", "2", "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
        run = json.loads((tmp_path / "run.json").read_text())
        assert [row["protocol"] for row in run["results"]] == ["lightdag2"] * 3
        assert "tps_mean" in run["results"][-1]
        assert "metrics" not in run

    def test_run_bounded_journal_streams(self, capsys, tmp_path):
        assert main(["run", "--protocol", "lightdag1", "-n", "4",
                     "--batch", "20", "--duration", "3",
                     "--out", str(tmp_path),
                     "--journal-max-events", "16"]) == 0
        events = load_journal_jsonl(tmp_path / "journal.jsonl")
        # Far more events streamed to disk than the 16-slot ring holds.
        assert len(events) > 16
        run = json.loads((tmp_path / "run.json").read_text())
        assert sum(run["journal_counts"].values()) == len(events)
        # explain decomposes the whole streamed log, not the ring.
        blocks = explain_report(events)["blocks"]
        assert blocks > 0 and explain_report(events[-16:])["blocks"] == 0
        capsys.readouterr()
        assert main(["explain", str(tmp_path)]) == 0
        assert f"{blocks} committed block timeline(s)" in capsys.readouterr().out

    def test_explain_prints_breakdown(self, capsys, tmp_path):
        assert main(["run", "-n", "4", "--batch", "20", "--duration", "3",
                     "--warmup", "1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["explain", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "end-to-end commit latency" in out
        assert "broadcast" in out and "ordering" in out
        assert "reconciles with end-to-end mean" in out
        assert "health: healthy" in out
        report = explain_report(load_journal_jsonl(tmp_path / "journal.jsonl"))
        assert report["blocks"] > 0
        assert report["reconciliation_max_abs_error"] < 1e-9

    def test_explain_trace_export_has_flows(self, capsys, tmp_path):
        assert main(["run", "-n", "4", "--batch", "20", "--duration", "3",
                     "--out", str(tmp_path)]) == 0
        parsed = json.loads((tmp_path / "trace.json").read_text())
        phases = {e["ph"] for e in parsed["traceEvents"]}
        assert {"s", "f"} <= phases  # Perfetto flow arrows present
        cats = {e.get("cat") for e in parsed["traceEvents"]}
        assert "lifecycle" in cats

    def test_explain_reads_what_run_recorded(self, capsys, tmp_path):
        """The report explain derives from DIR/journal.jsonl is the one
        the same run's in-memory journal gives."""
        assert main(["run", "-n", "4", "--batch", "20", "--duration", "4",
                     "--warmup", "1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["explain", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        cfg = ExperimentConfig(
            system=SystemConfig(n=4, crypto="hmac", seed=0),
            protocol=ProtocolConfig(batch_size=20),
            duration=4.0,
            warmup=1.0,
        )
        run = json.loads((tmp_path / "run.json").read_text())
        assert dataclasses.asdict(cfg) == run["config"]
        journal = EventJournal()
        obs = Observability(MetricsRegistry(), journal)
        result = run_experiment(cfg, obs=obs, health=True)
        report = explain_report(journal, protocol="lightdag2", n=4)
        assert report == explain_report(
            load_journal_jsonl(tmp_path / "journal.jsonl"),
            protocol="lightdag2", n=4,
        )
        report["health"] = result.health
        assert format_report(report) in out

    @pytest.mark.parametrize("files", [
        {},
        {"run.json": "{not json"},
        {"run.json": "{}", "journal.jsonl": ""},
        {"run.json": '{"config": {}}', "journal.jsonl": '{"t": 0}\n'},
    ])
    def test_explain_bad_dir_is_a_usage_error(self, files, capsys, tmp_path):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(["explain", str(tmp_path / "missing")]) == 2
        assert main(["explain", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("repro: error: ") == 2 and "Traceback" not in err

    def test_explain_prints_every_seed(self, capsys, tmp_path):
        """A --repeats directory explains as the command printed it: each
        seed's row, then the aggregate."""
        assert main(["run", "-n", "4", "--batch", "20", "--duration", "3",
                     "--repeats", "2", "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert main(["explain", str(tmp_path)]) == 0
        explained = capsys.readouterr().out
        assert printed.startswith(explained)
        assert explained.count("lightdag2") == 3 and "tps_ci95" in explained

    @pytest.mark.parametrize("second", [
        ["run", "-n", "4", "--batch", "20", "--duration", "3", "--repeats", "2"],
        ["loadtest", "--duration", "3", "--warmup", "1"],
    ], ids=["run-repeats", "loadtest"])
    def test_reused_out_dir_explains_the_new_run(self, second, capsys, tmp_path):
        """An uninstrumented run into a directory an instrumented run wrote
        leaves no stale journal or trace, and explain reads the new run."""
        assert main(["run", "-n", "4", "--batch", "20", "--duration", "3",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "journal.jsonl").exists()
        capsys.readouterr()
        assert main([*second, "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
        assert main(["explain", str(tmp_path)]) == 0
        explained = capsys.readouterr().out
        assert "health" not in explained and "journal events" not in explained
        if second[0] == "run":
            assert printed.startswith(explained)
        else:
            assert "e2e_p99_s" in explained

    def test_report(self, capsys, tmp_path):
        """The metric and journal-count tables ride along in explain."""
        assert main(["run", "--protocol", "lightdag2", "-n", "4",
                     "--batch", "20", "--duration", "3",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["explain", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "broadcast.steps" in out
        assert "wave.commit" in out
        assert "journal events" in out

    def test_steps(self, capsys):
        assert main(["steps", "--protocol", "lightdag2"]) == 0
        assert "best=4" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "dagrider" in out and "measured_best" in out

    def test_viz(self, capsys):
        assert main(["viz", "-n", "4", "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out and "#" in out

    def test_fig_small(self, capsys):
        assert main(["fig", "12", "--small", "--duration", "4"]) == 0
        out = capsys.readouterr().out
        assert "tusk@n=4" in out and "lightdag2@n=7" in out

    def test_fig_small_parallel(self, capsys):
        assert main(["fig", "12", "--small", "--duration", "4",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "tusk@n=4" in out and "lightdag2@n=7" in out

    def test_fuzz_parallel_summary(self, capsys):
        assert main(["fuzz", "--seeds", "2", "--duration", "4",
                     "--protocol", "lightdag2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 runs in" in out
        assert "runs/s" in out
        assert "0 failure(s)" in out
