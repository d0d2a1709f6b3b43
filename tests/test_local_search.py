"""Direct unit tests for the local-search optimum finder internals."""

import math
import random

import pytest

from repro.core import build_confl_instance, dual_ascent
from repro.exact.local_search import (
    MAX_EXACT_TERMINALS,
    _ChunkObjective,
    optimize_chunk_local,
)
from repro.graphs import steiner_tree
from repro.workloads import grid_problem, random_problem


@pytest.fixture
def instance():
    return build_confl_instance(grid_problem(4, num_chunks=1).new_state())


@pytest.fixture
def objective(instance):
    return _ChunkObjective(instance)


class TestChunkObjective:
    def test_empty_set_is_producer_only(self, instance, objective):
        cost = objective.evaluate(frozenset())
        manual = sum(
            instance.connect_matrix[instance.row_of[instance.producer]].tolist()
        )
        assert cost == pytest.approx(manual)

    def test_tree_cost_cached(self, objective):
        caches = frozenset({0, 15})
        first = objective.tree_cost(caches)
        assert objective.tree_cost(caches) == first
        assert caches in objective._tree_cost_cache

    def test_empty_tree_free(self, objective):
        assert objective.tree_cost(frozenset()) == 0.0
        cost, edges = objective.exact_tree(frozenset())
        assert cost == 0.0 and edges == []

    def test_exact_tree_cost_leq_kmb(self, objective):
        caches = frozenset({0, 3, 12, 15})
        exact_cost, _ = objective.exact_tree(caches)
        assert exact_cost <= objective.tree_cost(caches) + 1e-9

    def test_exact_tree_edges_are_graph_edges(self, instance, objective):
        caches = frozenset({0, 10})
        _, edges = objective.exact_tree(caches)
        for u, v in edges:
            assert instance.steiner_graph.has_edge(u, v)

    def test_assignment_prefers_self(self, objective):
        assignment = objective.assignment(frozenset({1, 14}))
        assert assignment[1] == 1
        assert assignment[14] == 14

    def test_evaluate_monotone_components(self, instance, objective):
        """Adding a facility never raises the access component."""
        small = frozenset({5})
        large = frozenset({5, 10})
        assert objective.access_cost(large) <= objective.access_cost(small)

    def test_infinite_cost_facilities_excluded(self):
        problem = grid_problem(3, num_chunks=1, capacity=1)
        state = problem.new_state()
        state.cache(0, 0)  # node 0 now full
        inst = build_confl_instance(state)
        obj = _ChunkObjective(inst)
        assert 0 not in obj.facilities


class TestOptimizeChunkLocal:
    def test_result_is_local_optimum_for_single_moves(self, instance):
        caches, _, _, best = optimize_chunk_local(instance)
        objective = _ChunkObjective(instance)
        current = frozenset(caches)
        # no single add or drop improves the (KMB-priced) objective by
        # more than the exact-repricing slack
        base = objective.evaluate(current)
        for i in objective.facilities:
            if i in current:
                continue
            assert objective.evaluate(current | {i}) >= base - 1e-6
        for i in current:
            assert objective.evaluate(current - {i}) >= base - 1e-6

    def test_warm_start_never_hurts(self, instance):
        cold = optimize_chunk_local(instance)[3]
        warm_set = dual_ascent(instance).admins
        warm = optimize_chunk_local(instance, starts=[warm_set])[3]
        assert warm <= cold + 1e-9

    def test_invalid_start_nodes_filtered(self, instance):
        caches, _, _, _ = optimize_chunk_local(
            instance, starts=[[instance.producer, "ghost", 1]]
        )
        assert instance.producer not in caches
        assert "ghost" not in caches

    def test_assignment_complete(self, instance):
        caches, assignment, _, _ = optimize_chunk_local(instance)
        assert set(assignment) == set(instance.clients)
        allowed = set(caches) | {instance.producer}
        assert set(assignment.values()) <= allowed


def _cached_state(problem, seed, chunks=2):
    """A state with a few chunks cached at random nodes, so edge weights
    differ from the bare degree sums."""
    rng = random.Random(seed)
    state = problem.new_state()
    for chunk in range(chunks):
        for node in rng.sample(problem.clients, 3):
            if state.can_cache(node):
                state.cache(node, chunk)
    return state


def _kmb_fallback_cases():
    cases = [pytest.param(grid_problem(6, num_chunks=3), 20, id="grid6")]
    for nodes, terminals in ((30, 11), (50, 15), (80, 20)):
        problem, _ = random_problem(nodes, seed=nodes, num_chunks=3)
        cases.append(pytest.param(problem, terminals, id=f"random{nodes}"))
    return cases


class TestExactTreeKmbFallback:
    """Above ``MAX_EXACT_TERMINALS`` terminals, ``exact_tree`` is the KMB
    tree of the dissemination graph: the one :func:`steiner_tree`
    builds, edge for edge, with its edge-weight sum as the cost."""

    @pytest.mark.parametrize("problem, size", _kmb_fallback_cases())
    def test_matches_steiner_tree(self, problem, size):
        state = _cached_state(problem, seed=size)
        instance = build_confl_instance(state)
        objective = _ChunkObjective(instance)
        rng = random.Random(size)
        for _ in range(3):
            caches = frozenset(rng.sample(objective.facilities, size))
            terminals = [instance.producer] + sorted(caches, key=str)
            assert len(terminals) > MAX_EXACT_TERMINALS
            tree = steiner_tree(instance.steiner_graph, terminals)
            cost, edges = objective.exact_tree(caches)
            assert edges == [(u, v) for u, v, _ in tree.edges()]
            assert cost == sum(w for _, _, w in tree.edges())
