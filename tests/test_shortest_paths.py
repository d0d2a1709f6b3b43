"""Unit tests for the shortest-path oracles of ``tests/oracles.py``."""

import pytest

from repro.errors import NodeNotFoundError, NoPathError
from repro.graphs import Graph, grid_graph, hop_distances
from repro.graphs.steiner import PathTable
from tests.oracles import (
    bfs_shortest_path,
    bfs_tree,
    dijkstra,
    dijkstra_node_costs,
    floyd_warshall,
    path_from_tree,
)


class TestBfsPaths:
    def test_trivial_path(self, path5):
        assert bfs_shortest_path(path5, 2, 2) == [2]

    def test_path_endpoints(self, grid4):
        path = bfs_shortest_path(grid4, 0, 15)
        assert path[0] == 0 and path[-1] == 15

    def test_path_length_is_minimal(self, grid4):
        assert len(bfs_shortest_path(grid4, 0, 15)) == 7  # 6 hops

    def test_consecutive_nodes_adjacent(self, grid4):
        path = bfs_shortest_path(grid4, 0, 15)
        for u, v in zip(path, path[1:]):
            assert grid4.has_edge(u, v)

    def test_no_path_raises(self):
        g = Graph([(0, 1), (2, 3)])
        with pytest.raises(NoPathError):
            bfs_shortest_path(g, 0, 3)

    def test_missing_nodes_raise(self, path5):
        with pytest.raises(NodeNotFoundError):
            bfs_shortest_path(path5, 0, 99)
        with pytest.raises(NodeNotFoundError):
            bfs_shortest_path(path5, 99, 0)

    def test_hop_counts_match_paths(self, grid4):
        hops = hop_distances(grid4, 0)
        for target in grid4.nodes():
            assert hops[target] == len(bfs_shortest_path(grid4, 0, target)) - 1

    def test_bfs_tree_reconstruction(self, grid4):
        tree = bfs_tree(grid4, 0)
        path = path_from_tree(tree, 0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert len(path) == 7

    def test_path_from_tree_unreachable_raises(self):
        g = Graph([(0, 1), (2, 3)])
        tree = bfs_tree(g, 0)
        with pytest.raises(NoPathError):
            path_from_tree(tree, 0, 3)


class TestDijkstra:
    def test_weighted_shortest(self, triangle):
        dist, _ = dijkstra(triangle, 0)
        # 0->2 direct is 4.0, via 1 is 3.0
        assert dist[2] == 3.0

    def test_parents_reconstruct(self, triangle):
        _, parents = dijkstra(triangle, 0)
        assert path_from_tree(parents, 0, 2) == [0, 1, 2]

    def test_early_stop_with_target(self, grid4):
        dist, _ = dijkstra(grid4, 0, target=1)
        assert dist[1] == 1.0

    def test_unreachable_absent_from_dist(self):
        g = Graph([(0, 1), (2, 3)])
        dist, _ = dijkstra(g, 0)
        assert 3 not in dist

    def test_missing_source_raises(self, grid4):
        with pytest.raises(NodeNotFoundError):
            dijkstra(grid4, 777)

    def test_all_pairs_symmetry(self, triangle):
        table = PathTable(triangle)
        for u in triangle.nodes():
            for v in triangle.nodes():
                assert table.distance(u, v) == table.distance(v, u)


class TestNodeCostDijkstra:
    def test_source_cost_zero_distance(self, path5):
        dist, _ = dijkstra_node_costs(path5, 0, lambda n: 1.0)
        # path 0..4: node costs 1 each, including source: dist[4] = 5
        assert dist[4] == 5.0
        assert dist[0] == 1.0  # source own cost (include_source default)

    def test_exclude_source(self, path5):
        dist, _ = dijkstra_node_costs(
            path5, 0, lambda n: 1.0, include_source=False
        )
        assert dist[4] == 4.0

    def test_degree_cost_on_grid(self, grid4):
        dist, _ = dijkstra_node_costs(grid4, 0, grid4.degree)
        # 0 -> 1: deg(0)+deg(1) = 2 + 3
        assert dist[1] == 5.0

    def test_avoids_expensive_nodes(self):
        # Two routes 0->3: via hub 1 (cost 10) or via 2 (cost 1).
        g = Graph([(0, 1), (1, 3), (0, 2), (2, 3)])
        cost = {0: 1.0, 1: 10.0, 2: 1.0, 3: 1.0}
        dist, parents = dijkstra_node_costs(g, 0, cost.__getitem__)
        assert dist[3] == 3.0
        assert path_from_tree(parents, 0, 3) == [0, 2, 3]


class TestFloydWarshall:
    def test_matches_dijkstra(self, grid4):
        fw = floyd_warshall(grid4)
        for source in grid4.nodes():
            dist, _ = dijkstra(grid4, source)
            for target in grid4.nodes():
                assert fw[source][target] == pytest.approx(dist[target])

    def test_grid_corner_to_corner(self):
        assert floyd_warshall(grid_graph(8))[0][63] == 14.0

    def test_disconnected_is_inf(self):
        g = Graph([(0, 1), (2, 3)])
        fw = floyd_warshall(g)
        assert fw[0][2] == float("inf")

    def test_diagonal_zero(self, triangle):
        fw = floyd_warshall(triangle)
        assert all(fw[v][v] == 0.0 for v in triangle.nodes())

    def test_weighted_triangle(self, triangle):
        fw = floyd_warshall(triangle)
        assert fw[0][2] == 3.0
