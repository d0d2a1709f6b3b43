"""Unit tests for MST and Steiner-tree algorithms."""

import random

import pytest

from repro.errors import DisconnectedGraphError
from repro.graphs import (
    Graph,
    grid_graph,
    is_connected,
    kruskal_mst,
    metric_closure,
    prim_mst,
    steiner_tree,
    tree_weight,
)
from repro.graphs.steiner import all_pairs_with_parents, dreyfus_wagner


def _random_weighted(num_nodes: int, seed: int) -> Graph:
    from repro.graphs import erdos_renyi_connected

    rng = random.Random(seed)
    base = erdos_renyi_connected(num_nodes, 0.35, seed=seed)
    g = Graph()
    for u, v, _ in base.edges():
        g.add_edge(u, v, rng.uniform(0.5, 4.0))
    return g


class TestMst:
    def test_kruskal_weight_on_triangle(self, triangle):
        assert tree_weight(kruskal_mst(triangle)) == 3.0

    def test_prim_matches_kruskal_weight(self):
        for seed in range(5):
            g = _random_weighted(12, seed)
            assert tree_weight(prim_mst(g)) == pytest.approx(
                tree_weight(kruskal_mst(g))
            )

    def test_mst_is_spanning_tree(self, grid4):
        mst = kruskal_mst(grid4)
        assert mst.num_nodes == 16
        assert mst.num_edges == 15
        assert is_connected(mst)

    def test_disconnected_raises(self):
        g = Graph([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            kruskal_mst(g)
        with pytest.raises(DisconnectedGraphError):
            prim_mst(g)

    def test_empty_graph_prim(self):
        assert prim_mst(Graph()).num_nodes == 0

    def test_mst_edges_subset_of_graph(self, grid4):
        mst = kruskal_mst(grid4)
        for u, v, _ in mst.edges():
            assert grid4.has_edge(u, v)


class TestMetricClosure:
    def test_closure_is_complete(self, grid4):
        closure, _ = metric_closure(grid4, [0, 5, 15])
        assert closure.num_edges == 3

    def test_closure_weights_are_distances(self, grid4):
        closure, _ = metric_closure(grid4, [0, 15])
        assert closure.weight(0, 15) == 6.0

    def test_paths_returned_both_directions(self, grid4):
        _, paths = metric_closure(grid4, [0, 15])
        assert paths[(0, 15)][0] == 0
        assert paths[(15, 0)][0] == 15

    def test_disconnected_terminals_raise(self):
        g = Graph([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            metric_closure(g, [0, 3])


class TestSteinerTree:
    def test_spans_terminals(self, grid4):
        terminals = [0, 3, 12, 15]
        tree = steiner_tree(grid4, terminals)
        for t in terminals:
            assert t in tree
        assert is_connected(tree)

    def test_two_terminals_is_shortest_path(self, grid4):
        tree = steiner_tree(grid4, [0, 15])
        assert tree_weight(tree) == 6.0

    def test_single_terminal(self, grid4):
        tree = steiner_tree(grid4, [7])
        assert tree.num_nodes == 1
        assert tree_weight(tree) == 0.0

    def test_empty_terminals_raise(self, grid4):
        with pytest.raises(ValueError):
            steiner_tree(grid4, [])

    def test_is_a_tree(self, grid4):
        tree = steiner_tree(grid4, [0, 3, 12, 15])
        assert tree.num_edges == tree.num_nodes - 1

    def test_no_nonterminal_leaves(self, grid4):
        terminals = {0, 3, 12, 15}
        tree = steiner_tree(grid4, terminals)
        for node in tree.nodes():
            if node not in terminals:
                assert tree.degree(node) >= 2

    def test_duplicate_terminals_ok(self, grid4):
        tree = steiner_tree(grid4, [0, 0, 15, 15])
        assert tree_weight(tree) == 6.0

    def test_within_2x_of_exact(self):
        for seed in range(4):
            g = _random_weighted(10, seed)
            terminals = sorted(g.nodes())[:4]
            kmb = tree_weight(steiner_tree(g, terminals))
            exact, _ = dreyfus_wagner(g, terminals)
            assert exact <= kmb + 1e-9
            assert kmb <= 2.0 * exact + 1e-9


class TestDreyfusWagner:
    def test_known_grid_optimum(self, grid4):
        cost, tree = dreyfus_wagner(grid4, [1, 7, 8, 14])
        assert cost == 7.0
        assert is_connected(tree)

    def test_tree_cost_matches_reported(self):
        for seed in range(4):
            g = _random_weighted(9, seed)
            terminals = sorted(g.nodes())[:4]
            cost, tree = dreyfus_wagner(g, terminals)
            assert tree_weight(tree) == pytest.approx(cost)

    def test_two_terminals_equals_shortest_path(self, grid4):
        cost, _ = dreyfus_wagner(grid4, [0, 15])
        assert cost == 6.0

    def test_single_terminal(self, grid4):
        cost, tree = dreyfus_wagner(grid4, [5])
        assert cost == 0.0
        assert tree.num_nodes == 1

    def test_too_many_terminals_rejected(self):
        g = grid_graph(5)
        with pytest.raises(ValueError):
            dreyfus_wagner(g, list(range(17)))

    def test_precomputed_apsp_matches(self, grid4):
        apsp = all_pairs_with_parents(grid4)
        cost_a, _ = dreyfus_wagner(grid4, [0, 3, 12], apsp=apsp)
        cost_b, _ = dreyfus_wagner(grid4, [0, 3, 12])
        assert cost_a == cost_b

    def test_empty_terminals_raise(self, grid4):
        with pytest.raises(ValueError):
            dreyfus_wagner(grid4, [])
