"""Unit tests for the request-level latency report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import solve_approximation
from repro.baselines import solve_hopcount
from repro.delay import DcfParameters, LatencyReport, latency_report, percentile
from repro.metrics import evaluate_contention
from repro.workloads import grid_problem


@pytest.fixture(scope="module")
def placement():
    return solve_approximation(grid_problem(4, num_chunks=3))


class TestReportStats:
    def test_fetch_count(self, placement):
        report = latency_report(placement)
        clients = len(placement.problem.clients)
        assert report.count == clients * 3

    def test_all_latencies_nonnegative(self, placement):
        report = latency_report(placement)
        assert all(lat >= 0 for lat in report.fetch_latencies)

    def test_self_service_is_free(self, placement):
        report = latency_report(placement)
        # at least one client caches a chunk itself => zero-latency fetches
        assert min(report.fetch_latencies) == 0.0

    def test_mean_median_max_consistent(self, placement):
        report = latency_report(placement)
        assert 0 <= report.median <= report.maximum
        assert 0 <= report.mean <= report.maximum

    def test_percentiles_monotone(self, placement):
        report = latency_report(placement)
        values = [report.percentile(p) for p in (0, 25, 50, 75, 95, 100)]
        assert values == sorted(values)
        assert report.percentile(100) == report.maximum

    def test_invalid_percentile(self, placement):
        report = latency_report(placement)
        with pytest.raises(ValueError):
            report.percentile(101)

    def test_worst_chunk_completion(self, placement):
        report = latency_report(placement)
        assert report.worst_chunk_completion() == max(
            report.per_chunk_completion.values()
        )
        assert set(report.per_chunk_completion) == {0, 1, 2}

    def test_empty_report(self):
        report = LatencyReport(fetch_latencies=(), per_chunk_completion={})
        assert report.mean == 0.0
        assert report.maximum == 0.0
        assert report.percentile(50) == 0.0
        assert report.worst_chunk_completion() == 0.0


class TestModelBehavior:
    def test_faster_radio_lower_latency(self, placement):
        slow = latency_report(placement, DcfParameters())
        fast = latency_report(
            placement, DcfParameters(chunk_transmission=0.073,
                                     collision_duration=0.073)
        )
        assert fast.mean < slow.mean

    def test_ranking_agrees_with_contention(self):
        """The paper's core modelling claim: optimizing contention cost
        orders algorithms the same way modelled latency does."""
        problem = grid_problem(6)
        appx = solve_approximation(problem)
        hopc = solve_hopcount(problem)
        assert (
            evaluate_contention(appx).access
            < evaluate_contention(hopc).access
        )
        assert latency_report(appx).mean < latency_report(hopc).mean

    def test_reassign_roughly_not_worse(self, placement):
        # "Nearest" minimizes the *linear* contention cost, while the full
        # DCF model adds a quadratic collision term — so nearest-copy can
        # lose individual fetches, but not by much in aggregate.
        nearest = latency_report(placement, reassign=True)
        recorded = latency_report(placement, reassign=False)
        assert nearest.mean <= 1.1 * recorded.mean + 1e-9


class TestPercentileFunction:
    """Edge cases of the shared interpolated percentile."""

    def test_p0_is_min_and_p100_is_max(self):
        values = [5.0, 1.0, 9.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_single_sample_every_percentile(self):
        for p in (0, 1, 50, 99, 100):
            assert percentile([4.2], p) == 4.2

    def test_empty_input_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile((), 0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    def test_linear_interpolation(self):
        # rank (p/100)*(n-1): p=25 over [0,10] -> 2.5
        assert percentile([0.0, 10.0], 25) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_input_order_irrelevant(self):
        assert percentile([3.0, 1.0, 2.0], 50) == percentile(
            [1.0, 2.0, 3.0], 50
        )

    def test_accepts_any_iterable(self):
        assert percentile(iter([2.0, 1.0]), 100) == 2.0

    def test_report_method_delegates(self):
        report = LatencyReport(
            fetch_latencies=(1.0, 2.0, 3.0), per_chunk_completion={}
        )
        assert report.percentile(50) == percentile([1.0, 2.0, 3.0], 50)


#: A tie between two caches on paths of unequal DCF delay.  Producer
#: ``p`` sits four hops from client ``j``; caches ``a`` (degree 4) and
#: ``b`` (degree 1, behind the degree-6 node ``m``) each cost
#: ``c(·, j) = 11`` once they hold the chunk.
TIE_SCRIPT = """
from repro.core import CachingProblem, commit_chunk
from repro.core.placement import CachePlacement
from repro.delay import latency_report
from repro.graphs import Graph

graph = Graph()
edges = "j-a a-x1 a-x2 a-x3 j-m m-b m-z1 m-z2 m-z3 m-z4 j-q1 q1-q2 q2-q3 q3-q4 q4-p"
for edge in edges.split():
    graph.add_edge(*edge.split("-"))
problem = CachingProblem(graph=graph, producer="p", num_chunks=1, capacity=2)
state = problem.new_state()
assert state.costs.contention_cost("a", "j") == 7.0
chunk = commit_chunk(state, 0, ["b", "a"])
assert state.costs.contention_cost("a", "j") == 11.0
assert state.costs.contention_cost("b", "j") == 11.0
report = latency_report(CachePlacement(problem=problem, chunks=[chunk]))
print(repr(report.fetch_latencies[problem.clients.index("j")]))
"""


def _tie_latency(hash_seed: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", TIE_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def test_tied_copies_do_not_depend_on_the_hash_seed():
    # Caches go to the tie-break in str order, so "a" wins under every
    # hash seed (frozenset order once picked "a" or "b" by seed).
    assert _tie_latency("1") == _tie_latency("2") == "8.760119999999999"
