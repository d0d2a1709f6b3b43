"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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
        assert main(["solve", "--random", "15", "--seed", "3",
                     "--chunks", "1", "--algorithm", "hopc"]) == 0
        assert "Hopc" in capsys.readouterr().out

    def test_experiment_fast(self, capsys):
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
        assert main(["solve", "--random", "12", "--chunks", "1",
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
        assert main(["solve", "--random", "20", "--chunks", "1",
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
        assert main(["solve", "--random", "10", "--chunks", "1",
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


def test_removed_bench_command_is_unknown(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_experiment_all_accepted():
    args = build_parser().parse_args(["experiment", "all", "--fast"])
    assert args.id == "all"
