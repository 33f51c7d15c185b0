"""Tests for the CLI (invoked in-process through main())."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


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
        """``cli_surface.json`` was captured before run/explain/report/
        loadtest started sharing one options block: no flag may appear,
        vanish, or change spelling, default, choices or type."""
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
        for command in ("run", "explain", "report", "loadtest"):
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
        ["loadtest", "--duration", "1"],  # the default warmup is 2 s
    ])
    def test_config_error_is_a_usage_error(self, argv, capsys):
        """A value the configuration refuses exits 2 with one stderr line,
        as argparse does for a malformed flag — never a traceback."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
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
        json_path = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        assert main(["run", "-n", "4", "--batch", "20", "--duration", "3",
                     "--json", str(json_path), "--csv", str(csv_path)]) == 0
        rows = json.loads(json_path.read_text())
        assert rows[0]["protocol"] == "lightdag2"
        assert csv_path.read_text().startswith("adversary")

    def test_run_repeats(self, capsys):
        assert main(["run", "-n", "4", "--batch", "20", "--duration", "3",
                     "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "tps_mean" in out and "tps_ci95" in out

    def test_run_obs_exports(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        prom = tmp_path / "m.prom"
        journal = tmp_path / "j.jsonl"
        assert main(["run", "--protocol", "lightdag1", "-n", "4",
                     "--batch", "20", "--duration", "3",
                     "--trace", str(trace), "--metrics", str(prom),
                     "--journal", str(journal)]) == 0
        parsed = json.loads(trace.read_text())
        assert any(e["ph"] == "X" for e in parsed["traceEvents"])
        assert "# TYPE repro_net_messages_sent counter" in prom.read_text()
        first = json.loads(journal.read_text().splitlines()[0])
        assert first["type"] == "block.propose"

    def test_run_obs_ignored_with_repeats(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["run", "-n", "4", "--batch", "20", "--duration", "3",
                     "--repeats", "2", "--trace", str(trace)]) == 0
        assert not trace.exists()
        assert "ignoring" in capsys.readouterr().err

    def test_run_bounded_journal_streams(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        assert main(["run", "--protocol", "lightdag1", "-n", "4",
                     "--batch", "20", "--duration", "3",
                     "--journal", str(journal),
                     "--journal-max-events", "16"]) == 0
        assert "streamed" in capsys.readouterr().out
        lines = journal.read_text().splitlines()
        # Far more events streamed to disk than the 16-slot ring holds.
        assert len(lines) > 16
        assert json.loads(lines[0])["type"] == "block.propose"

    def test_explain_prints_breakdown(self, capsys, tmp_path):
        report_path = tmp_path / "explain.json"
        assert main(["explain", "-n", "4", "--batch", "20",
                     "--duration", "3", "--warmup", "1",
                     "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "end-to-end commit latency" in out
        assert "broadcast" in out and "ordering" in out
        assert "reconciles with end-to-end mean" in out
        assert "health: healthy" in out
        report = json.loads(report_path.read_text())
        assert report["blocks"] > 0
        assert report["reconciliation_max_abs_error"] < 1e-9

    def test_explain_trace_export_has_flows(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["explain", "-n", "4", "--batch", "20",
                     "--duration", "3", "--trace", str(trace)]) == 0
        parsed = json.loads(trace.read_text())
        phases = {e["ph"] for e in parsed["traceEvents"]}
        assert {"s", "f"} <= phases  # Perfetto flow arrows present
        cats = {e.get("cat") for e in parsed["traceEvents"]}
        assert "lifecycle" in cats

    def test_report(self, capsys):
        assert main(["report", "--protocol", "lightdag2", "-n", "4",
                     "--batch", "20", "--duration", "3"]) == 0
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
