"""Cross-checks of the exact solvers: ILP vs enumeration vs local search.

These are the correctness anchors of the whole reproduction: three
independent solution paths (the HiGHS MILP, subset enumeration with exact
Dreyfus–Wagner trees, and the local search) must agree on small instances.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import CachingProblem, build_confl_instance, solve_approximation
from repro.core.confl import ConFLInstance
from repro.errors import SolverError
from repro.exact import (
    build_chunk_model,
    enumerate_optimal,
    optimize_chunk_local,
    solve_exact,
)
from repro.graphs import Graph, cycle_graph, grid_graph, path_graph, star_graph
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
            solution = build_chunk_model(instance).solve()
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
        solution = chunk_model.solve()
        caches, assignment, edges = chunk_model.extract(solution)
        assert set(assignment) == set(instance.clients)
        for client, server in assignment.items():
            assert server == instance.producer or server in caches


class TestMilpSolve:
    def test_non_optimal_status_raises_solver_error(self, monkeypatch):
        import scipy.optimize

        def stalled_milp(**kwargs):
            return SimpleNamespace(status=4, message="numerical trouble")

        monkeypatch.setattr(scipy.optimize, "milp", stalled_milp)
        problem = CachingProblem(graph=path_graph(5), producer=0, num_chunks=1)
        chunk_model = build_chunk_model(build_confl_instance(problem.new_state()))
        with pytest.raises(SolverError, match="numerical trouble"):
            chunk_model.solve()

    def test_grid6_build_stays_sparse(self, monkeypatch):
        """The 6×6 grid's first chunk (5555 columns × 6720 rows, 0.055 %
        nonzero) builds and reaches ``milp`` without a dense row."""
        import scipy.optimize
        import scipy.sparse  # noqa: F401  (imported outside the trace)

        def stub_milp(c, **kwargs):
            return SimpleNamespace(status=0, x=np.zeros(len(c)), fun=0.0,
                                   message="")

        monkeypatch.setattr(scipy.optimize, "milp", stub_milp)
        instance = build_confl_instance(grid_problem(6).new_state())
        tracemalloc.start()
        try:
            build_chunk_model(instance).solve()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestEnumerationTieOrder:
    def test_equal_cost_client_goes_to_producer(self):
        """An exact producer/cache tie in ``connect_matrix`` goes to the
        producer, which ``enumerate_optimal`` lists first."""
        instance = ConFLInstance(
            producer=0,
            clients=(1, 2),
            facilities=(2,),
            open_cost={2: 0.0},
            # Rows: producer, then facility 2; columns: clients 1, 2.
            connect_matrix=np.array([[3.0, 10.0], [3.0, 0.0]]),
            # Every node costs 0.5, so both edges weigh 1.0.
            topology=Graph([(0, 1), (1, 2)]),
            node_costs=np.array([0.5, 0.5, 0.5]),
            contention_weight=1.0,
            dissemination_scale=1.0,
        )
        result = enumerate_optimal(instance)
        assert result.caches == (2,)
        assert result.objective == 5.0
        assert result.assignment == {1: 0, 2: 2}


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
