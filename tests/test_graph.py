"""Unit tests for the core Graph type."""

import pytest

from repro.errors import EdgeNotFoundError, NodeNotFoundError
from repro.graphs import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_from_edge_list(self):
        g = Graph([(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_from_weighted_edges(self):
        g = Graph([(0, 1, 2.5)])
        assert g.weight(0, 1) == 2.5

    def test_bad_edge_tuple_rejected(self):
        with pytest.raises(ValueError):
            Graph([(0,)])

    def test_mixed_edge_tuples(self):
        g = Graph([(0, 1), (1, 2, 3.0)])
        assert g.weight(0, 1) == 1.0
        assert g.weight(1, 2) == 3.0


class TestNodes:
    def test_add_node(self):
        g = Graph()
        g.add_node("a")
        assert "a" in g
        assert g.num_nodes == 1

    def test_add_node_idempotent(self):
        g = Graph([(0, 1)])
        g.add_node(0)
        assert g.num_nodes == 2
        assert g.has_edge(0, 1)

    def test_add_nodes_bulk(self):
        g = Graph()
        g.add_nodes(range(5))
        assert g.num_nodes == 5

    def test_remove_node_removes_incident_edges(self):
        g = Graph([(0, 1), (1, 2), (0, 2)])
        g.remove_node(1)
        assert 1 not in g
        assert g.num_edges == 1
        assert g.has_edge(0, 2)

    def test_remove_missing_node_raises(self):
        g = Graph()
        with pytest.raises(NodeNotFoundError):
            g.remove_node(7)

    def test_len_and_iter(self):
        g = Graph([(0, 1), (1, 2)])
        assert len(g) == 3
        assert sorted(g) == [0, 1, 2]

    def test_insertion_order_preserved(self):
        g = Graph()
        for node in [5, 3, 9, 1]:
            g.add_node(node)
        assert list(g.nodes()) == [5, 3, 9, 1]

    def test_hashable_node_types(self):
        g = Graph()
        g.add_edge("a", (1, 2))
        assert g.has_edge((1, 2), "a")


class TestEdges:
    def test_add_edge_creates_nodes(self):
        g = Graph()
        g.add_edge(0, 1)
        assert 0 in g and 1 in g

    def test_edge_is_undirected(self):
        g = Graph([(0, 1, 3.0)])
        assert g.has_edge(1, 0)
        assert g.weight(1, 0) == 3.0

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_negative_weight_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -1.0)

    def test_readd_edge_overwrites_weight(self):
        g = Graph([(0, 1, 1.0)])
        g.add_edge(0, 1, 9.0)
        assert g.weight(0, 1) == 9.0
        assert g.num_edges == 1

    def test_remove_edge(self):
        g = Graph([(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert 0 in g  # endpoints stay

    def test_remove_missing_edge_raises(self):
        g = Graph([(0, 1)])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 2)

    def test_weight_missing_edge_raises(self):
        g = Graph([(0, 1)])
        with pytest.raises(EdgeNotFoundError):
            g.weight(1, 2)

    def test_edges_yield_each_once(self):
        g = Graph([(0, 1), (1, 2), (0, 2)])
        edges = list(g.edges())
        assert len(edges) == 3
        keys = {frozenset((u, v)) for u, v, _ in edges}
        assert len(keys) == 3

    def test_num_edges(self):
        g = Graph([(0, 1), (1, 2), (2, 3)])
        assert g.num_edges == 3


class TestNeighborhood:
    def test_neighbors(self):
        g = Graph([(0, 1), (0, 2)])
        assert sorted(g.neighbors(0)) == [1, 2]

    def test_neighbors_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            list(Graph().neighbors(0))

    def test_degree(self):
        g = Graph([(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_degree_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            Graph().degree(5)

    def test_adjacency_returns_copy(self):
        g = Graph([(0, 1, 2.0)])
        adj = g.adjacency(0)
        adj[99] = 1.0
        assert 99 not in dict(g.adjacency(0))

    def test_neighbor_weights_is_a_live_view(self):
        g = Graph([(0, 1, 2.0), (0, 2)])
        view = g.neighbor_weights(0)
        assert list(view) == [(1, 2.0), (2, 1.0)]
        g.add_edge(0, 3, 0.5)
        assert list(view) == [(1, 2.0), (2, 1.0), (3, 0.5)]
        assert not hasattr(view, "__setitem__")
        with pytest.raises(NodeNotFoundError):
            g.neighbor_weights(5)


class TestDerivation:
    def test_copy_is_deep(self):
        g = Graph([(0, 1, 2.0)])
        h = g.copy()
        h.add_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert h.weight(0, 1) == 2.0

    def test_subgraph_induced(self):
        g = Graph([(0, 1), (1, 2), (2, 3), (0, 3)])
        sub = g.subgraph([0, 1, 2])
        assert sub.num_nodes == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_edge(0, 3)

    def test_subgraph_missing_node_raises(self):
        g = Graph([(0, 1)])
        with pytest.raises(NodeNotFoundError):
            g.subgraph([0, 5])

    def test_subgraph_keeps_weights(self):
        g = Graph([(0, 1, 7.0), (1, 2, 3.0)])
        sub = g.subgraph([0, 1])
        assert sub.weight(0, 1) == 7.0

    def test_relabeled(self):
        g = Graph([(0, 1, 2.0)])
        h = g.relabeled({0: "a"})
        assert h.has_edge("a", 1)
        assert h.weight("a", 1) == 2.0
        assert 0 not in h

    def test_grid_fixture_shape(self, grid4):
        assert grid4.num_nodes == 16
        assert grid4.num_edges == 24
        assert grid4.degree(5) == 4   # interior
        assert grid4.degree(0) == 2   # corner
