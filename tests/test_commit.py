"""Unit tests for the shared commit/accounting layer."""

import pytest

from repro.core import commit_chunk, nearest_server_assignment
from repro.errors import ProblemError
from repro.core.placement import edge_key
from repro.workloads import grid_problem


class TestNearestAssignment:
    def test_self_service_when_caching(self, small_problem):
        state = small_problem.new_state()
        assignment = nearest_server_assignment(
            state.costs, small_problem, [1, 14]
        )
        assert assignment[1] == 1
        assert assignment[14] == 14

    def test_producer_when_no_caches(self, small_problem):
        state = small_problem.new_state()
        assignment = nearest_server_assignment(state.costs, small_problem, [])
        assert all(s == small_problem.producer for s in assignment.values())

    def test_all_clients_covered(self, small_problem):
        state = small_problem.new_state()
        assignment = nearest_server_assignment(state.costs, small_problem, [5])
        assert set(assignment) == set(small_problem.clients)

    def test_picks_cheaper_server(self, small_problem):
        state = small_problem.new_state()
        assignment = nearest_server_assignment(state.costs, small_problem, [0])
        # node 1 is adjacent to cache 0; producer 9 is farther
        assert assignment[1] == 0


class TestCommitChunk:
    def test_commit_updates_storage(self, small_problem):
        state = small_problem.new_state()
        placement = commit_chunk(state, 0, [1, 2])
        assert state.storage.used(1) == 1
        assert placement.caches == frozenset({1, 2})

    def test_duplicate_caches_deduplicated(self, small_problem):
        state = small_problem.new_state()
        placement = commit_chunk(state, 0, [1, 1, 2])
        assert placement.caches == frozenset({1, 2})
        assert state.storage.used(1) == 1

    def test_empty_caches_all_producer(self, small_problem):
        state = small_problem.new_state()
        placement = commit_chunk(state, 0, [])
        assert placement.tree_edges == frozenset()
        assert placement.stage_cost.dissemination == 0.0
        assert all(
            s == small_problem.producer for s in placement.assignment.values()
        )

    def test_stage_fairness_before_commit(self, small_problem):
        state = small_problem.new_state()
        commit_chunk(state, 0, [1])
        second = commit_chunk(state, 1, [1])
        assert second.stage_cost.fairness == pytest.approx(0.25)

    def test_full_node_rejected(self):
        problem = grid_problem(3, num_chunks=2, capacity=1)
        state = problem.new_state()
        commit_chunk(state, 0, [1])
        with pytest.raises(ProblemError):
            commit_chunk(state, 1, [1])

    def test_producer_cache_rejected(self, small_problem):
        state = small_problem.new_state()
        with pytest.raises(ProblemError):
            commit_chunk(state, 0, [small_problem.producer])

    def test_unknown_node_rejected(self, small_problem):
        state = small_problem.new_state()
        with pytest.raises(ProblemError):
            commit_chunk(state, 0, [999])

    def test_explicit_assignment_validated(self, small_problem):
        state = small_problem.new_state()
        bad = {j: 14 for j in small_problem.clients}  # 14 not caching
        with pytest.raises(ProblemError):
            commit_chunk(state, 0, [1], assignment=bad)

    def test_explicit_assignment_missing_client(self, small_problem):
        state = small_problem.new_state()
        partial = {small_problem.clients[0]: 1}
        with pytest.raises(ProblemError):
            commit_chunk(state, 0, [1], assignment=partial)

    def test_tree_connects_caches(self, small_problem):
        state = small_problem.new_state()
        placement = commit_chunk(state, 0, [0, 15])
        from repro.core import CachePlacement

        CachePlacement(
            problem=small_problem,
            chunks=[placement]
            + [commit_chunk(state, c, []) for c in (1, 2)],
        ).validate()

    def test_given_tree_edges_used(self, small_problem):
        state = small_problem.new_state()
        # producer 9 and cache 10 are adjacent on the 4x4 grid
        tree = frozenset({edge_key(9, 10)})
        placement = commit_chunk(state, 0, [10], tree_edges=tree)
        assert placement.tree_edges == tree
        # stage cost uses the pre-commit storage state
        expected = small_problem.new_state().costs.edge_cost(9, 10)
        assert placement.stage_cost.dissemination == pytest.approx(expected)

    def test_access_cost_matches_assignment(self, small_problem):
        state = small_problem.new_state()
        placement = commit_chunk(state, 0, [5])
        # recompute manually with a fresh state (same storage content)
        fresh = small_problem.new_state()
        expected = sum(
            fresh.costs.contention_cost(server, client)
            for client, server in placement.assignment.items()
        )
        assert placement.stage_cost.access == pytest.approx(expected)
