"""Unit tests for MST and Steiner-tree algorithms."""

import hashlib
import itertools
import json
import random

import pytest

from repro.errors import DisconnectedGraphError, NoPathError
from repro.graphs import (
    Graph,
    grid_graph,
    is_connected,
    kruskal_mst,
    steiner_tree,
    tree_weight,
)
from repro.graphs.steiner import (
    PathTable,
    dreyfus_wagner,
    dreyfus_wagner_costs,
)
from tests.oracles import prim_mst


def _random_weighted(num_nodes: int, seed: int) -> Graph:
    from repro.graphs import erdos_renyi_connected

    rng = random.Random(seed)
    base = erdos_renyi_connected(num_nodes, 0.35, seed=seed)
    g = Graph()
    for u, v, _ in base.edges():
        g.add_edge(u, v, rng.uniform(0.5, 4.0))
    return g


def _tie_heavy(seed: int):
    """A connected graph with weights in {1, 2, 3} (times 0.7 on odd
    seeds) and up to six terminals: many equal-cost trees."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    nodes = list(range(n))
    rng.shuffle(nodes)
    scale = 0.7 if seed % 2 else 1.0
    g = Graph()
    g.add_nodes(nodes)
    for k in range(1, n):
        g.add_edge(nodes[k], nodes[rng.randrange(k)], rng.randint(1, 3) * scale)
    for _ in range(2 * n):
        u, v = rng.sample(nodes, 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, rng.randint(1, 3) * scale)
    return g, rng.sample(nodes, rng.randint(1, min(n, 6)))


#: sha256 of the costs and tree edges of ``dreyfus_wagner`` on
#: ``_tie_heavy(0..59)``, taken from the dict-based DP that re-scanned
#: the submasks of each steal: the position-list DP must break every tie
#: the same way.
DW_TREES_DIGEST = (
    "0d98e3a9ea013b79aa9a438c608d3339e737180cd277ba21d4c5e429127f1150"
)


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
    """The metric closure as :class:`PathTable` answers it."""

    def test_closure_is_complete(self, grid4):
        table = PathTable(grid4)
        terminals = [0, 5, 15]
        for u, v in itertools.permutations(terminals, 2):
            assert table.distance(u, v) < float("inf")
        assert table.closure_mst(terminals) == [(0, 5), (5, 15)]

    def test_closure_weights_are_distances(self, grid4):
        table = PathTable(grid4)
        assert table.distance(0, 15) == 6.0
        assert table.distance(15, 0) == 6.0
        assert table.distance(7, 7) == 0.0

    def test_paths_returned_both_directions(self, grid4):
        table = PathTable(grid4)
        forward, backward = table.path(0, 15), table.path(15, 0)
        assert (forward[0], forward[-1]) == (0, 15)
        assert (backward[0], backward[-1]) == (15, 0)
        assert len(forward) == len(backward) == 7
        for path in (forward, backward):
            assert all(grid4.has_edge(a, b) for a, b in zip(path, path[1:]))

    def test_disconnected_terminals_raise(self):
        g = Graph([(0, 1), (2, 3)])
        table = PathTable(g)
        with pytest.raises(DisconnectedGraphError):
            table.closure_mst([0, 3])
        with pytest.raises(NoPathError):
            table.path(0, 3)
        assert table.distance(0, 3) == float("inf")

    def test_rows_are_computed_once_on_first_use(self, grid4):
        table = PathTable(grid4)
        table.closure_mst([0, 5, 15])
        # Dijkstra from every terminal but the last.
        computed = [table.nodes[p] for p, row in enumerate(table._rows) if row]
        assert sorted(computed) == [0, 5]
        row = table.row(0)
        table.path(0, 15)
        assert table.row(0) is row


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

    def test_precomputed_apsp_matches(self):
        for seed in range(4):
            g = _random_weighted(10, seed)
            table = PathTable(g)
            for terminals in ([0, 3, 7], [9, 1, 4, 6, 2]):
                cost_a, tree_a = dreyfus_wagner(g, terminals, paths=table)
                cost_b, tree_b = dreyfus_wagner(g, terminals)
                assert cost_a == cost_b
                assert list(tree_a.edges()) == list(tree_b.edges())

    def test_tie_broken_trees_match_pinned_digest(self):
        trees = []
        for seed in range(60):
            g, terminals = _tie_heavy(seed)
            cost, tree = dreyfus_wagner(g, terminals)
            trees.append([cost, list(tree.edges())])
        digest = hashlib.sha256(json.dumps(trees).encode()).hexdigest()
        assert digest == DW_TREES_DIGEST

    def test_subset_costs_equal_per_subset_runs(self):
        for seed in range(3):
            g = _random_weighted(9, seed)
            root, *others = [8, 0, 2, 5, 7]
            costs = dreyfus_wagner_costs(g, [root] + others)
            assert len(costs) == 1 << len(others)
            assert costs[0] == 0.0
            for mask in range(1, len(costs)):
                chosen = [t for i, t in enumerate(others) if mask >> i & 1]
                cost, _ = dreyfus_wagner(g, [root] + chosen)
                assert costs[mask] == cost

    def test_disconnected_terminals_raise(self):
        g = Graph([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            dreyfus_wagner(g, [0, 3])
        with pytest.raises(DisconnectedGraphError):
            dreyfus_wagner_costs(g, [0, 1, 3])

    def test_empty_terminals_raise(self, grid4):
        with pytest.raises(ValueError):
            dreyfus_wagner(grid4, [])
