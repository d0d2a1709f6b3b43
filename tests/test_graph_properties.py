"""Hypothesis property tests for the graph substrate."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    erdos_renyi_connected,
    grid_graph,
    hop_distances,
    is_connected,
    kruskal_mst,
    steiner_tree,
    tree_weight,
)
from repro.graphs.steiner import PathTable, dreyfus_wagner
from tests.oracles import prim_mst

connected_graphs = st.builds(
    erdos_renyi_connected,
    num_nodes=st.integers(min_value=2, max_value=14),
    edge_prob=st.floats(min_value=0.1, max_value=0.9),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _reweight(graph: Graph, seed: int) -> Graph:
    rng = random.Random(seed)
    g = Graph()
    g.add_nodes(graph.nodes())
    for u, v, _ in graph.edges():
        g.add_edge(u, v, rng.uniform(0.1, 5.0))
    return g


@given(connected_graphs)
@settings(max_examples=40, deadline=None)
def test_mst_algorithms_agree(graph):
    assert tree_weight(kruskal_mst(graph)) == tree_weight(prim_mst(graph))


@given(connected_graphs, st.integers(min_value=0, max_value=999))
@settings(max_examples=40, deadline=None)
def test_weighted_mst_algorithms_agree(graph, seed):
    g = _reweight(graph, seed)
    assert abs(tree_weight(kruskal_mst(g)) - tree_weight(prim_mst(g))) < 1e-9


@given(connected_graphs)
@settings(max_examples=40, deadline=None)
def test_mst_is_spanning_tree(graph):
    mst = kruskal_mst(graph)
    assert mst.num_nodes == graph.num_nodes
    assert mst.num_edges == graph.num_nodes - 1
    assert is_connected(mst)


@given(connected_graphs)
@settings(max_examples=30, deadline=None)
def test_dijkstra_triangle_inequality(graph):
    table = PathTable(graph)
    dist = table.row(0)[0]
    for u, v, w in graph.edges():
        p, q = table.positions((u, v))
        assert dist[q] <= dist[p] + w + 1e-9
        assert dist[p] <= dist[q] + w + 1e-9


@given(connected_graphs)
@settings(max_examples=30, deadline=None)
def test_hop_counts_bounded_by_nodes(graph):
    hops = hop_distances(graph, next(iter(graph.nodes())))
    assert len(hops) == graph.num_nodes
    assert all(0 <= h < graph.num_nodes for h in hops.values())


@given(
    connected_graphs,
    st.integers(min_value=0, max_value=999),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_kmb_within_twice_exact_steiner(graph, seed, num_terminals):
    g = _reweight(graph, seed)
    terminals = sorted(g.nodes())[: min(num_terminals, g.num_nodes)]
    exact, _ = dreyfus_wagner(g, terminals)
    kmb = tree_weight(steiner_tree(g, terminals))
    assert exact <= kmb + 1e-9
    assert kmb <= 2.0 * exact + 1e-9


@given(
    connected_graphs,
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_steiner_tree_spans_and_is_tree(graph, num_terminals):
    terminals = sorted(graph.nodes())[: min(num_terminals, graph.num_nodes)]
    tree = steiner_tree(graph, terminals)
    assert all(t in tree for t in terminals)
    assert tree.num_edges == tree.num_nodes - 1
    assert is_connected(tree)


@given(st.integers(min_value=2, max_value=8))
@settings(max_examples=10, deadline=None)
def test_grid_edge_count_formula(side):
    g = grid_graph(side)
    assert g.num_edges == 2 * side * (side - 1)
    assert g.num_nodes == side * side
