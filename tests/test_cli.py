"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import REGISTRY


class TestParser:
    def test_experiment_args(self):
        args = build_parser().parse_args(["experiment", "fig6", "--fast"])
        assert args.command == "experiment"
        assert args.id == "fig6"
        assert args.fast

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_solve_requires_topology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve"])

    def test_solve_grid(self):
        args = build_parser().parse_args(
            ["solve", "--grid", "4", "--algorithm", "appx"]
        )
        assert args.grid == 4

    def test_solve_trace_flag(self):
        args = build_parser().parse_args(
            ["solve", "--grid", "4", "--trace", "t.json"]
        )
        assert args.trace == "t.json"

class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "appx" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1

    def test_solve_grid_appx(self, capsys):
        assert main(["solve", "--grid", "4", "--chunks", "2",
                     "--algorithm", "appx"]) == 0
        out = capsys.readouterr().out
        assert "total contention cost" in out
        assert "chunk 0" in out

    def test_solve_random_hopc(self, capsys):
        assert main(["solve", "--nodes", "15", "--seed", "3",
                     "--chunks", "1", "--algorithm", "hopc"]) == 0
        assert "Hopc" in capsys.readouterr().out

    def test_experiment_fast(self, capsys, monkeypatch, experiment_result):
        # The session's one fast fig6 run, printed through the CLI.
        result = experiment_result("fig6")
        monkeypatch.setitem(REGISTRY, "fig6", lambda fast: result)
        assert main(["experiment", "fig6", "--fast"]) == 0
        assert "p75-fairness" in capsys.readouterr().out


class TestShowMap:
    def test_grid_map_rendered(self, capsys):
        assert main(["solve", "--grid", "3", "--chunks", "1",
                     "--show-map"]) == 0
        out = capsys.readouterr().out
        assert "per-node load map" in out
        assert "*" in out

    def test_map_requires_grid(self, capsys):
        assert main(["solve", "--nodes", "12", "--chunks", "1",
                     "--show-map"]) == 0
        assert "--show-map requires" in capsys.readouterr().out

    def test_greedy_alias(self, capsys):
        assert main(["solve", "--grid", "4", "--chunks", "1",
                     "--algorithm", "greedy"]) == 0
        assert "Greedy" in capsys.readouterr().out


class TestTraceExport:
    def test_solve_writes_perfetto_trace(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        assert main(["solve", "--nodes", "20", "--chunks", "1",
                     "--algorithm", "dist", "--trace", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        names = {event["name"] for event in events}
        # Per-round Algorithm 2 message events, keyed by Table II type.
        assert "msg.NPI" in names and "msg.CC" in names
        assert "dist.tick" in names
        assert "solver.Dist" in names
        assert doc["otherData"]["manifest"]["schema"] == "repro-manifest/1"
        assert "wrote trace" in capsys.readouterr().err

    def test_no_trace_flag_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--nodes", "10", "--chunks", "1",
                     "--algorithm", "appx"]) == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["serve", "--grid", "3", "--chunks", "1", "--requests", "100"],
        ["adapt", "--grid", "3", "--chunks", "2", "--capacity", "2",
         "--epochs", "2", "--epoch-requests", "100"],
    ], ids=["serve", "adapt"])
    def test_json_stdout_stays_parseable_with_trace(self, argv, tmp_path,
                                                   capsys):
        import json

        trace_path = tmp_path / "t.json"
        assert main(argv + ["--json", "--trace", str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert isinstance(json.loads(captured.out), dict)
        assert "wrote trace" in captured.err
        assert json.loads(trace_path.read_text())["traceEvents"]


    @pytest.mark.parametrize("argv, json_out", [
        (["solve", "--grid", "3", "--chunks", "1"], False),
        (["serve", "--grid", "3", "--chunks", "1", "--requests", "100",
          "--json"], True),
        (["adapt", "--grid", "3", "--chunks", "2", "--capacity", "2",
          "--epochs", "2", "--epoch-requests", "100", "--json"], True),
        (["sweep", "--topology", "grid:3", "--chunks", "1", "--requests",
          "100", "--workers", "1", "-o", "SWEEP.json"], False),
    ], ids=["solve", "serve", "adapt", "sweep"])
    def test_observability_flags_write_their_files(self, argv, json_out,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--trace", "t.json", "--series", "s.json",
                            "--openmetrics", "m.txt"]) == 0
        captured = capsys.readouterr()
        if json_out:
            assert isinstance(json.loads(captured.out), dict)
        for line in ("wrote trace t.json", "wrote series s.json",
                     "wrote openmetrics m.txt"):
            assert line in captured.err
        assert json.loads((tmp_path / "t.json").read_text())["traceEvents"]
        series = json.loads((tmp_path / "s.json").read_text())
        assert series["schema"] == "repro-series/1"
        assert (tmp_path / "m.txt").read_text().endswith("# EOF\n")


def test_removed_bench_command_is_unknown(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ("-1", "argument --max-retries: must be >= 0, got -1"),
    ("two", "argument --max-retries: expected an integer, got 'two'"),
], ids=["negative", "not-an-integer"])
def test_bad_max_retries_rejected_at_parse_time(value, message, capsys):
    # The parser rejects the value before any other fault flag is read.
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--grid", "3", "--algorithm", "dist",
              "--max-retries", value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--max-retries", "5", "--fault-seed", "9"],
    ["--max-retries", "5"],
    ["--fault-seed", "9"],
    ["--loss-rate", "0.2"],
    ["--jitter", "0.1"],
    ["--retx-timeout", "0.5"],
    ["--churn", "5:3:leave"],
], ids=["retries-and-seed", "retries", "seed", "loss", "jitter", "retx",
        "churn"])
def test_fault_flags_off_dist_exit_2(flags, capsys):
    assert main(["solve", "--grid", "3", "--algorithm", "appx", *flags]) == 2
    captured = capsys.readouterr()
    assert "fault-injection flags require --algorithm dist" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_fault_flags_at_their_defaults_are_not_fault_flags(capsys):
    argv = ["solve", "--grid", "3", "--algorithm", "appx",
            "--max-retries", "3", "--fault-seed", "0", "--loss-rate", "0"]
    assert main(argv) == 0
    assert "Appx on 3x3 grid" in capsys.readouterr().out


def test_max_retries_without_retx_timeout_exit_2_on_dist(capsys):
    argv = ["solve", "--grid", "3", "--algorithm", "dist",
            "--max-retries", "5", "--jitter", "0.1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--retx-timeout" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert main(argv + ["--retx-timeout", "0.5"]) == 0


def test_experiment_all_accepted():
    args = build_parser().parse_args(["experiment", "all", "--fast"])
    assert args.id == "all"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--grid", "0"], "solve: grid dimensions must be positive"),
    (["serve", "--grid", "0", "--requests", "10"],
     "serve: grid dimensions must be positive"),
    (["solve", "--nodes", "1"], "solve: need at least 2 nodes"),
    (["adapt", "--nodes", "1"], "adapt: need at least 2 nodes"),
    (["solve", "--grid", "3", "--chunks", "-1"],
     "solve: num_chunks must be >= 0"),
    (["solve", "--grid", "3", "--capacity", "-2"],
     "solve: capacity must be >= 0"),
    (["solve", "--grid", "3", "--algorithm", "dist", "--loss-rate", "nan"],
     "solve: loss_rate must be finite, got nan"),
    (["solve", "--grid", "3", "--algorithm", "dist", "--jitter", "nan"],
     "solve: jitter must be finite, got nan"),
    (["solve", "--grid", "3", "--algorithm", "dist", "--jitter", "inf"],
     "solve: jitter must be finite, got inf"),
    (["solve", "--grid", "3", "--algorithm", "dist", "--retx-timeout", "nan"],
     "solve: retx_timeout must be finite, got nan"),
    (["solve", "--grid", "3", "--algorithm", "dist", "--churn", "nan:3:leave"],
     "solve: churn event time must be finite, got nan"),
], ids=["solve-grid0", "serve-grid0", "solve-nodes1", "adapt-nodes1",
        "solve-chunks-neg", "solve-capacity-neg", "solve-loss-rate-nan",
        "solve-jitter-nan", "solve-jitter-inf", "solve-retx-timeout-nan",
        "solve-churn-nan"])
def test_bad_problem_sizes_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["serve", "--grid", "3", "--failure-rate", "1.5"],
     "serve: failure_rate must be in [0, 1], got 1.5"),
    (["serve", "--grid", "3", "--rate", "-1"],
     "serve: request rate must be >= 0, got -1.0"),
    (["sweep", "--failure-rate", "1.5"],
     "sweep: failure_rate must be in [0, 1], got 1.5"),
    (["sweep", "--rate", "-1"],
     "sweep: request rate must be >= 0, got -1.0"),
    (["serve", "--grid", "3", "--chunks", "2", "--rate", "nan", "--json"],
     "serve: workload rate must be finite, got nan"),
    (["serve", "--grid", "3", "--rate", "inf"],
     "serve: workload rate must be finite, got inf"),
    (["sweep", "--rate", "nan"],
     "sweep: workload rate must be finite, got nan"),
    (["sweep", "--rate", "inf"],
     "sweep: workload rate must be finite, got inf"),
], ids=["serve-failure-rate", "serve-rate", "sweep-failure-rate",
        "sweep-rate", "serve-rate-nan", "serve-rate-inf", "sweep-rate-nan",
        "sweep-rate-inf"])
def test_bad_serve_inputs_exit_2(argv, message, capsys, tmp_path,
                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["adapt", "--grid", "4", "--rate", "-1"],
     "adapt: request rate must be >= 0, got -1.0"),
    (["adapt", "--grid", "4", "--shift-period", "-2"],
     "adapt: shift_period must be > 0, got -2.0"),
    # The default shift period is one epoch: zero requests, zero seconds.
    (["adapt", "--grid", "4", "--epoch-requests", "0"],
     "adapt: shift_period must be > 0, got 0.0"),
    (["adapt", "--grid", "4", "--workload", "shift", "--shift-period", "nan"],
     "adapt: workload shift_period must be finite, got nan"),
    (["adapt", "--grid", "4", "--rate", "nan"],
     "adapt: workload rate must be finite, got nan"),
    (["adapt", "--grid", "4", "--rate", "inf"],
     "adapt: workload rate must be finite, got inf"),
], ids=["adapt-rate", "adapt-shift-period", "adapt-epoch-requests0",
        "adapt-shift-period-nan", "adapt-rate-nan", "adapt-rate-inf"])
def test_bad_adapt_workload_args_exit_2(argv, message, capsys, tmp_path,
                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--trace", "t.json"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
