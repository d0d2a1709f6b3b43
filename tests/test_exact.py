"""Cross-checks of the exact solvers: ILP vs enumeration vs local search.

These are the correctness anchors of the whole reproduction: three
independent solution paths (the HiGHS MILP, subset enumeration with exact
Dreyfus–Wagner trees, and the local search) must agree on small instances.
"""

import pytest

from repro.core import CachingProblem, build_confl_instance, solve_approximation
from repro.exact import (
    build_chunk_model,
    enumerate_optimal,
    optimize_chunk_local,
    solve_exact,
)
from repro.graphs import cycle_graph, grid_graph, path_graph, star_graph
from repro.workloads import grid_problem

EPSILON_SLACK = 1e-2  # symmetry-breaking epsilons in the MILP objective


def _tiny_instances():
    yield CachingProblem(graph=path_graph(5), producer=0, num_chunks=1)
    yield CachingProblem(graph=cycle_graph(6), producer=0, num_chunks=1)
    yield CachingProblem(graph=star_graph(5), producer=0, num_chunks=1)
    yield CachingProblem(graph=grid_graph(3), producer=4, num_chunks=1)
    # non-empty starting storage: place a chunk first
    problem = CachingProblem(graph=grid_graph(3), producer=4, num_chunks=2,
                             capacity=2)
    yield problem


@pytest.mark.parametrize("problem", list(_tiny_instances()),
                         ids=["path5", "cycle6", "star5", "grid3", "grid3-2ch"])
class TestExactAgreement:
    def test_enumeration_matches_local_search(self, problem):
        state = problem.new_state()
        for chunk in problem.chunks:
            instance = build_confl_instance(state)
            enum = enumerate_optimal(instance)
            _, _, _, local_obj = optimize_chunk_local(instance)
            assert local_obj == pytest.approx(enum.objective, abs=1e-9)
            # advance the state along the enumeration optimum
            for node in enum.caches:
                state.cache(node, chunk)

    def test_enumeration_matches_milp(self, problem):
        state = problem.new_state()
        for chunk in problem.chunks:
            instance = build_confl_instance(state)
            enum = enumerate_optimal(instance)
            solution = build_chunk_model(instance).model.solve()
            assert solution.objective == pytest.approx(
                enum.objective, abs=EPSILON_SLACK
            )
            for node in enum.caches:
                state.cache(node, chunk)


class TestMilpEncodings:
    def test_extract_consistency(self):
        problem = CachingProblem(graph=path_graph(5), producer=0, num_chunks=1)
        instance = build_confl_instance(problem.new_state())
        chunk_model = build_chunk_model(instance)
        solution = chunk_model.model.solve()
        caches, assignment, edges = chunk_model.extract(solution)
        assert set(assignment) == set(instance.clients)
        for client, server in assignment.items():
            assert server == instance.producer or server in caches


class TestSolveExact:
    def test_local_placement_feasible(self):
        problem = grid_problem(4, num_chunks=3)
        placement = solve_exact(problem)
        placement.validate()
        assert placement.algorithm == "bruteforce"

    def test_exact_beats_approximation_single_chunk(self):
        for side in (3, 4):
            problem = grid_problem(side, num_chunks=1)
            exact = solve_exact(problem)
            appx = solve_approximation(problem)
            assert (
                exact.objective_value()
                <= appx.objective_value() + 1e-9
            )

    def test_enumeration_guard(self):
        problem = grid_problem(5, num_chunks=1)
        instance = build_confl_instance(problem.new_state())
        with pytest.raises(ValueError):
            enumerate_optimal(instance, max_facilities=10)


class TestApproximationRatio:
    def test_ratio_within_bound_single_chunk(self):
        """Theorem 1's 6.55 bound, empirically (paper observes ≤ 5.6)."""
        for side in (3, 4):
            problem = grid_problem(side, num_chunks=1)
            exact = solve_exact(problem)
            appx = solve_approximation(problem)
            ratio = appx.objective_value() / exact.objective_value()
            assert 1.0 - 1e-9 <= ratio <= 6.55
