"""Tests for the multiprocessing sweep runner (repro.sweep).

The load-bearing property is determinism under sharding: the merged
repro-sweep/1 artifact must be byte-identical whatever the worker
count, because every cell is a self-seeded substream and merge order is
fixed by shard index.
"""

import json

import pytest

from repro.errors import ProblemError
from repro.serve import ServeConfig, ZipfWorkload, serve_placement
from repro.sweep import (
    SWEEP_SCHEMA,
    SweepGrid,
    aggregate_cells,
    parse_topology,
    render_sweep,
    resolve_workers,
    run_sweep,
    write_sweep,
)
from repro.workloads import grid_problem
from repro.core.approximation import solve_approximation

SMALL_GRID = SweepGrid(
    topologies=("grid:4",),
    workloads=("zipf", "uniform"),
    policies=("cheapest",),
    seeds=(1, 2),
    requests=200,
)


class TestTopologySpecs:
    def test_parse(self):
        assert parse_topology("grid:6") == ("grid", 6)
        assert parse_topology("random:30") == ("random", 30)

    @pytest.mark.parametrize(
        "spec", ["ring:5", "grid", "grid:", "grid:x", "grid:0", "random:-2"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ProblemError):
            parse_topology(spec)


class TestGridValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(ProblemError, match="empty"):
            SweepGrid(seeds=())

    def test_unknown_names_rejected(self):
        with pytest.raises(ProblemError, match="workload"):
            SweepGrid(workloads=("nope",))
        with pytest.raises(ProblemError, match="policy"):
            SweepGrid(policies=("nope",))
        with pytest.raises(ProblemError, match="algorithm"):
            SweepGrid(algorithm="Nope")
        with pytest.raises(ProblemError, match="requests"):
            SweepGrid(requests=-1)

    def test_cells_enumerate_in_shard_order(self):
        grid = SweepGrid(
            topologies=("grid:4", "grid:5"),
            workloads=("zipf", "uniform"),
            policies=("cheapest", "p2c"),
            seeds=(1, 2),
            requests=10,
        )
        cells = grid.cells()
        assert len(cells) == 16
        assert [c.index for c in cells] == list(range(16))
        # Seed is the innermost axis, topology the outermost.
        assert (cells[0].topology, cells[0].seed) == ("grid:4", 1)
        assert (cells[1].topology, cells[1].seed) == ("grid:4", 2)
        assert cells[8].topology == "grid:5"

    def test_resolve_workers(self):
        assert resolve_workers(1, 8) == 1
        assert resolve_workers(16, 4) == 4
        assert resolve_workers(0, 4) >= 1
        assert resolve_workers(3, 0) == 1
        with pytest.raises(ProblemError):
            resolve_workers(-1, 4)


class TestSweepDeterminism:
    def test_workers_do_not_change_the_artifact(self):
        """The contract: 1 worker and 4 workers, byte-identical JSON."""
        extra = {"created_unix": 0}
        doc1 = run_sweep(SMALL_GRID, workers=1, manifest_extra=extra)
        doc4 = run_sweep(SMALL_GRID, workers=4, manifest_extra=extra)
        text1 = json.dumps(doc1, indent=2, sort_keys=True)
        text4 = json.dumps(doc4, indent=2, sort_keys=True)
        assert text1 == text4

    def test_repeat_runs_identical(self):
        extra = {"created_unix": 0}
        doc_a = run_sweep(SMALL_GRID, workers=2, manifest_extra=extra)
        doc_b = run_sweep(SMALL_GRID, workers=2, manifest_extra=extra)
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(
            doc_b, sort_keys=True
        )

    def test_cell_matches_direct_serve(self):
        """A sweep cell reproduces a hand-built serve_placement call."""
        doc = run_sweep(SMALL_GRID, workers=1)
        cell = doc["cells"][0]
        assert cell["cell"] == {
            "index": 0, "topology": "grid:4", "workload": "zipf",
            "policy": "cheapest", "seed": 1, "adaptive": "off",
        }
        placement = solve_approximation(grid_problem(4))
        report = serve_placement(
            placement, ZipfWorkload(seed=1), 200,
            policy="cheapest", config=ServeConfig(seed=1),
        )
        assert cell["report"] == report.to_dict()


class TestSweepDocument:
    def test_schema_and_shape(self):
        doc = run_sweep(SMALL_GRID, workers=1)
        assert doc["schema"] == SWEEP_SCHEMA
        assert sorted(doc["grid"]) == [
            "adaptive", "algorithm", "capacity", "chunks", "epochs",
            "failure_rate", "policies", "rate", "requests", "seeds",
            "topologies", "workloads",
        ]
        assert doc["grid"]["requests"] == 200
        assert len(doc["cells"]) == 4
        assert "manifest" in doc
        assert doc["manifest"]["cells"] == 4
        # The worker count must not leak into the artifact.
        assert "workers" not in json.dumps(doc["manifest"])

    def test_aggregates_group_by_workload_policy(self):
        doc = run_sweep(SMALL_GRID, workers=1)
        rows = doc["aggregates"]
        assert [(r["workload"], r["policy"]) for r in rows] == [
            ("uniform", "cheapest"), ("zipf", "cheapest"),
        ]
        for row in rows:
            assert row["cells"] == 2
            assert row["completed"] == 400
            assert 0.0 <= row["mean_served_gini"] <= 1.0
            assert 0.0 < row["mean_served_jains"] <= 1.0

    def test_aggregate_means_are_exact(self):
        doc = run_sweep(SMALL_GRID, workers=1)
        reports = [
            c["report"] for c in doc["cells"]
            if c["cell"]["workload"] == "zipf"
        ]
        row = next(
            r for r in doc["aggregates"] if r["workload"] == "zipf"
        )
        expected = sum(r["served_gini"] for r in reports) / len(reports)
        assert row["mean_served_gini"] == expected

    def test_aggregate_cells_empty(self):
        assert aggregate_cells([]) == []

    def test_write_sweep_round_trips(self, tmp_path):
        doc = run_sweep(SMALL_GRID, workers=1)
        path = tmp_path / "sweep.json"
        write_sweep(doc, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(
            json.dumps(doc, sort_keys=True)
        )

    def test_render_sweep_mentions_every_group(self):
        doc = run_sweep(SMALL_GRID, workers=1)
        text = render_sweep(doc)
        assert "zipf" in text and "uniform" in text
        assert "4 cells" in text


class TestSweepCLI:
    def test_cli_writes_artifact(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        status = main([
            "sweep", "--topology", "grid:4",
            "--workloads", "zipf,uniform", "--policies", "cheapest",
            "--seeds", "1,2", "--requests", "200",
            "--workers", "2", "-o", str(out),
        ])
        assert status == 0
        captured = capsys.readouterr()
        assert "zipf" in captured.out
        doc = json.loads(out.read_text())
        assert doc["schema"] == SWEEP_SCHEMA
        assert len(doc["cells"]) == 4

    def test_cli_rejects_unknown_axis_values(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--workloads", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err
        assert main(["sweep", "--topology", "ring:9"]) == 2
        assert main(["sweep", "--seeds", "one,two"]) == 2

    def test_cli_serve_engine_flag(self, capsys):
        """No command selects a replay path: ``--engine`` is an unknown
        argument, so argparse exits 2 with its usage error."""
        from repro.cli import main

        for argv in (["serve", "--grid", "4"], ["adapt", "--grid", "4"],
                     ["sweep"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--engine", "per-request"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage:")
            assert "unrecognized arguments: --engine per-request" in err
