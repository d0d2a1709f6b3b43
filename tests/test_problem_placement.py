"""Unit tests for CachingProblem, ProblemState and CachePlacement."""

import pytest

from repro.core import (
    CachePlacement,
    CachingProblem,
    ChunkPlacement,
    StageCost,
    edge_key,
)
from repro.errors import ProblemError
from repro.graphs import Graph, grid_graph
from repro.workloads import grid_problem
from tests.oracles import bfs_shortest_path

CONNECTED_MESSAGE = (
    r"^the network graph must be connected \(Sec\. III-A\)$"
)


class TestCachingProblem:
    def test_defaults(self, paper_problem):
        assert paper_problem.producer == 9
        assert paper_problem.num_chunks == 5
        assert list(paper_problem.chunks) == [0, 1, 2, 3, 4]

    def test_clients_exclude_producer(self, paper_problem):
        clients = paper_problem.clients
        assert 9 not in clients
        assert len(clients) == 35

    def test_producer_must_exist(self):
        with pytest.raises(ProblemError):
            CachingProblem(graph=grid_graph(3), producer=42, num_chunks=1)

    def test_disconnected_graph_rejected(self):
        g = Graph([(0, 1), (2, 3)])
        with pytest.raises(ProblemError, match=CONNECTED_MESSAGE):
            CachingProblem(graph=g, producer=0, num_chunks=1)

    def test_isolated_producer_rejected(self):
        g = grid_graph(3)
        g.add_node("producer")
        with pytest.raises(ProblemError, match=CONNECTED_MESSAGE):
            CachingProblem(graph=g, producer="producer", num_chunks=1)

    def test_negative_chunks_rejected(self):
        with pytest.raises(ProblemError):
            CachingProblem(graph=grid_graph(3), producer=0, num_chunks=-1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ProblemError):
            CachingProblem(graph=grid_graph(3), producer=0, num_chunks=1,
                           capacity=-2)

    def test_negative_weights_rejected(self):
        with pytest.raises(ProblemError):
            CachingProblem(
                graph=grid_graph(3), producer=0, num_chunks=1,
                fairness_weight=-1,
            )

    def test_total_capacity_excludes_producer(self, paper_problem):
        assert paper_problem.total_capacity() == 35 * 5

    def test_new_storage_fresh(self, paper_problem):
        s1 = paper_problem.new_storage()
        s1.add(0, 0)
        s2 = paper_problem.new_storage()
        assert s2.used(0) == 0


class TestProblemState:
    def test_cache_updates_costs(self, small_problem):
        state = small_problem.new_state()
        before = state.costs.contention_cost(0, 2)
        state.cache(1, 0)
        assert state.storage.used(1) == 1
        assert state.costs.contention_cost(0, 2) > before

    def test_evict_restores(self, small_problem):
        state = small_problem.new_state()
        before = state.costs.contention_cost(0, 2)
        state.cache(1, 0)
        state.evict(1, 0)
        assert state.costs.contention_cost(0, 2) == before


class TestStageCost:
    def test_total(self):
        cost = StageCost(1.0, 2.0, 3.0)
        assert cost.total == 6.0

    def test_weighted_total(self):
        cost = StageCost(fairness=1.0, access=2.0, dissemination=3.0)
        assert cost.weighted_total(2.0, 1.0, 1.0) == 7.0
        assert cost.weighted_total(1.0, 1.0, 2.0) == 9.0

    def test_addition(self):
        total = StageCost(1, 2, 3) + StageCost(4, 5, 6)
        assert (total.fairness, total.access, total.dissemination) == (5, 7, 9)

    def test_zero(self):
        assert StageCost.zero().total == 0.0


class TestEdgeKey:
    def test_symmetric(self):
        assert edge_key(1, 2) == edge_key(2, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ProblemError):
            edge_key(1, 1)


def _manual_placement(problem, caches_by_chunk):
    """Build a placement with nearest-producer assignments by hand."""
    chunks = []
    for chunk, caches in enumerate(caches_by_chunk):
        assignment = {
            j: (caches[0] if caches else problem.producer)
            for j in problem.clients
        }
        # connect caches to producer along a row path for validity
        edges = set()
        for cache in caches:
            path = _grid_path(problem, cache)
            for u, v in zip(path, path[1:]):
                edges.add(edge_key(u, v))
        chunks.append(
            ChunkPlacement(
                chunk=chunk,
                caches=frozenset(caches),
                assignment=assignment,
                tree_edges=frozenset(edges),
            )
        )
    return CachePlacement(problem=problem, chunks=chunks)


def _grid_path(problem, target):
    return bfs_shortest_path(problem.graph, problem.producer, target)


class TestPlacementValidation:
    def test_valid_placement_passes(self, small_problem):
        placement = _manual_placement(small_problem, [[1], [2], [5]])
        placement.validate()

    def test_wrong_chunk_count_rejected(self, small_problem):
        placement = _manual_placement(small_problem, [[1]])
        with pytest.raises(ProblemError):
            placement.validate()

    def test_unserved_client_rejected(self, small_problem):
        placement = _manual_placement(small_problem, [[1], [2], [5]])
        del placement.chunks[0].assignment[small_problem.clients[0]]
        with pytest.raises(ProblemError):
            placement.validate()

    def test_server_without_cache_rejected(self, small_problem):
        placement = _manual_placement(small_problem, [[1], [2], [5]])
        client = small_problem.clients[0]
        placement.chunks[0].assignment[client] = 14  # does not cache chunk 0
        with pytest.raises(ProblemError):
            placement.validate()

    def test_capacity_overflow_rejected(self):
        problem = grid_problem(4, num_chunks=3, capacity=1)
        placement = _manual_placement(problem, [[1], [1], [1]])
        with pytest.raises(Exception):
            placement.validate()

    def test_disconnected_tree_rejected(self, small_problem):
        placement = _manual_placement(small_problem, [[15], [2], [5]])
        broken = ChunkPlacement(
            chunk=0,
            caches=placement.chunks[0].caches,
            assignment=placement.chunks[0].assignment,
            tree_edges=frozenset(),  # no dissemination edges at all
        )
        placement.chunks[0] = broken
        with pytest.raises(ProblemError):
            placement.validate()

    def test_non_network_edge_rejected(self, small_problem):
        placement = _manual_placement(small_problem, [[1], [2], [5]])
        bad = ChunkPlacement(
            chunk=0,
            caches=placement.chunks[0].caches,
            assignment=placement.chunks[0].assignment,
            tree_edges=frozenset({edge_key(0, 15)}),
        )
        placement.chunks[0] = bad
        with pytest.raises(ProblemError):
            placement.validate()


class TestPlacementViews:
    def test_loads(self, small_problem):
        placement = _manual_placement(small_problem, [[1], [1], [5]])
        loads = placement.loads()
        assert loads[1] == 2
        assert loads[5] == 1
        assert loads[0] == 0

    def test_holders(self, small_problem):
        placement = _manual_placement(small_problem, [[1, 2], [2], [5]])
        assert placement.holders(0) == frozenset({1, 2})

    def test_total_copies(self, small_problem):
        placement = _manual_placement(small_problem, [[1, 2], [2], [5]])
        assert placement.total_copies() == 4

    def test_final_storage(self, small_problem):
        placement = _manual_placement(small_problem, [[1], [1], [5]])
        storage = placement.final_storage()
        assert storage.used(1) == 2
        assert storage.chunks_at(5) == {2}

    def test_objective_uses_weights(self):
        problem = grid_problem(4, num_chunks=1, fairness_weight=2.0)
        chunk = ChunkPlacement(
            chunk=0, caches=frozenset(), assignment={
                j: problem.producer for j in problem.clients
            },
            tree_edges=frozenset(),
            stage_cost=StageCost(fairness=3.0, access=10.0, dissemination=0.0),
        )
        placement = CachePlacement(problem=problem, chunks=[chunk])
        assert placement.objective_value() == 2.0 * 3.0 + 10.0
