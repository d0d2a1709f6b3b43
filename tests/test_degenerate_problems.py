"""Valid but degenerate problems: edge cases for an ``n×n`` cost store.

A one-node network (the producer is the whole graph), zero capacity
everywhere, and more chunks than the network can store are all legal
inputs.  Appx and Dist must solve each one, with every runtime
invariant check on, and return a placement that validates.
"""

from __future__ import annotations

import pytest

from repro.core import CachingProblem, solve_approximation
from repro.distributed import solve_distributed
from repro.graphs import Graph, grid_graph


def _one_node() -> CachingProblem:
    graph = Graph()
    graph.add_node("solo")
    return CachingProblem(graph=graph, producer="solo", num_chunks=3, capacity=2)


def _zero_capacity() -> CachingProblem:
    return CachingProblem(graph=grid_graph(4), producer=0, num_chunks=3, capacity=0)


def _more_chunks_than_storage() -> CachingProblem:
    # 8 caching nodes with one slot each, 12 chunks.
    return CachingProblem(graph=grid_graph(3), producer=4, num_chunks=12, capacity=1)


CASES = {
    "one-node": _one_node,
    "zero-capacity": _zero_capacity,
    "more-chunks-than-storage": _more_chunks_than_storage,
}


@pytest.fixture(autouse=True)
def _sanitize(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


@pytest.mark.parametrize("case", sorted(CASES))
def test_appx_placement_validates(case):
    problem = CASES[case]()
    placement = solve_approximation(problem)
    placement.validate()
    assert len(placement.chunks) == problem.num_chunks


@pytest.mark.parametrize("case", sorted(CASES))
def test_dist_placement_validates(case):
    problem = CASES[case]()
    outcome = solve_distributed(problem)
    outcome.placement.validate()
    assert len(outcome.placement.chunks) == problem.num_chunks


@pytest.mark.parametrize("case", ["one-node", "zero-capacity"])
@pytest.mark.parametrize("solve", ["appx", "dist"])
def test_nothing_to_cache_places_no_copies(case, solve):
    problem = CASES[case]()
    if solve == "appx":
        placement = solve_approximation(problem)
    else:
        placement = solve_distributed(problem).placement
    assert placement.total_copies() == 0
