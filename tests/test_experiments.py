"""Smoke + shape tests for the experiment runners (fast mode)."""

import pytest

from repro.experiments import (
    APPX,
    CONT,
    DIST,
    HOPC,
    REGISTRY,
    run_algorithms,
    summarize,
)
from repro.experiments.report import ExperimentResult, format_cell, render_table
from repro.workloads import grid_problem


class TestReport:
    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(1234.5) == "1,234"
        assert format_cell(3.14159) == "3.14"
        assert format_cell(0.001234) == "0.0012"
        assert format_cell(float("nan")) == "-"
        assert format_cell("x") == "x"
        assert format_cell(0.0) == "0"

    def test_render_table_aligned(self):
        text = render_table(["a", "bb"], [[1, 2], [33, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len({len(line) for line in lines[2:]}) == 1

    def test_result_helpers(self):
        result = ExperimentResult(
            experiment_id="x", description="d",
            headers=["k", "v"], rows=[["a", 1], ["b", 2]],
        )
        assert result.column("v") == [1, 2]
        assert result.filtered(k="a") == [["a", 1]]
        assert "x: d" in result.to_text()


class TestRunnerHelpers:
    def test_run_algorithms_validates(self, small_problem):
        placements = run_algorithms(small_problem, [APPX, HOPC])
        assert set(placements) == {APPX, HOPC}

    def test_unknown_algorithm(self, small_problem):
        with pytest.raises(KeyError):
            run_algorithms(small_problem, ["Magic"])

    def test_summarize_fields(self, small_problem):
        placements = run_algorithms(small_problem, [APPX])
        s = summarize(APPX, placements[APPX])
        assert s.total_cost == pytest.approx(
            s.access_cost + s.dissemination_cost
        )
        assert 0 <= s.gini <= 1
        assert 0 <= s.p75_fairness <= 1
        assert s.nodes_used <= len(small_problem.clients)


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_experiment_runs_fast(experiment_result, experiment_id):
    result = experiment_result(experiment_id)
    assert isinstance(result, ExperimentResult)
    assert result.rows, experiment_id
    assert result.to_text()


class TestPaperShapes:
    """The qualitative claims of Sec. V, asserted on the paper's 6x6 grid."""

    @pytest.fixture(scope="class")
    def summaries(self):
        problem = grid_problem(6)
        placements = run_algorithms(problem, [APPX, DIST, HOPC, CONT])
        return {n: summarize(n, p) for n, p in placements.items()}

    def test_ours_much_cheaper_than_hopc(self, summaries):
        for ours in (APPX, DIST):
            assert (
                summaries[ours].access_cost < 0.75 * summaries[HOPC].access_cost
            )

    def test_ours_close_to_cont_on_total(self, summaries):
        for ours in (APPX, DIST):
            assert summaries[ours].total_cost <= 1.1 * summaries[CONT].total_cost

    def test_fairness_ordering(self, summaries):
        """Appx ≈ Dist ≫ Cont ≫ Hopc on p75 fairness (paper Fig. 6)."""
        assert summaries[APPX].p75_fairness > summaries[CONT].p75_fairness
        assert summaries[DIST].p75_fairness > summaries[CONT].p75_fairness
        assert summaries[CONT].p75_fairness > summaries[HOPC].p75_fairness

    def test_gini_ordering(self, summaries):
        for ours in (APPX, DIST):
            assert summaries[ours].gini < 0.6
            assert summaries[ours].gini < summaries[CONT].gini
            assert summaries[ours].gini < summaries[HOPC].gini

    def test_ours_use_more_nodes(self, summaries):
        assert summaries[APPX].nodes_used > summaries[CONT].nodes_used
        assert summaries[CONT].nodes_used > summaries[HOPC].nodes_used

    def test_hopc_p75_matches_paper_value(self, summaries):
        # paper: 4.28% for Hopc on the 6x6 grid
        assert 100 * summaries[HOPC].p75_fairness == pytest.approx(4.28, abs=0.3)
