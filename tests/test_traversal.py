"""Unit tests for BFS traversals and k-hop neighborhoods."""

import pytest

from repro.errors import NodeNotFoundError
from repro.graphs import bfs_order, grid_graph, hop_distances, k_hop_neighborhood


class TestBfs:
    def test_order_starts_at_source(self, path5):
        assert bfs_order(path5, 2)[0] == 2

    def test_order_visits_all_reachable(self, path5):
        assert sorted(bfs_order(path5, 0)) == [0, 1, 2, 3, 4]

    def test_missing_source_raises(self, path5):
        with pytest.raises(NodeNotFoundError):
            bfs_order(path5, 99)


class TestHopDistances:
    def test_distances_on_path(self, path5):
        assert hop_distances(path5, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_max_hops_truncates(self, path5):
        dist = hop_distances(path5, 0, max_hops=2)
        assert set(dist) == {0, 1, 2}

    def test_grid_layer_counts(self, grid4):
        dist = hop_distances(grid4, 0)
        counts = [list(dist.values()).count(h) for h in range(7)]
        assert counts == [1, 2, 3, 4, 3, 2, 1]

    def test_grid_center_distances(self, grid4):
        dist = hop_distances(grid4, 5)
        assert dist[5] == 0
        assert dist[10] == 2
        assert dist[15] == 4


class TestKHop:
    def test_one_hop_is_neighbors(self, grid4):
        assert k_hop_neighborhood(grid4, 5, 1) == set(grid4.neighbors(5))

    def test_zero_hops_empty(self, grid4):
        assert k_hop_neighborhood(grid4, 5, 0) == set()

    def test_include_source(self, grid4):
        hood = k_hop_neighborhood(grid4, 5, 1, include_source=True)
        assert 5 in hood

    def test_negative_k_rejected(self, grid4):
        with pytest.raises(ValueError):
            k_hop_neighborhood(grid4, 5, -1)

    def test_large_k_covers_graph(self, grid4):
        hood = k_hop_neighborhood(grid4, 0, 100, include_source=True)
        assert hood == set(grid4.nodes())

    def test_two_hop_grid_count(self):
        g = grid_graph(5)
        center = 12
        assert len(k_hop_neighborhood(g, center, 2)) == 12

