"""The hop forest and the index-list KMB against their per-node oracles.

* :func:`repro.graphs.forest.hop_forest` must give every source exactly
  the tree of :func:`repro.graphs.bfs_tree` (order, parents, hops) and
  the Euler ranges of a per-tree DFS layout.
* :func:`repro.graphs.steiner_tree` and :func:`metric_closure` must
  equal the dict-based KMB kept below as the oracle: the same edges, in
  the same order.

Graphs are random, connected or not, with int, str or tuple labels
inserted in shuffled order, so adjacency orders vary.  Every example is
derived from a fixed seed (``derandomize=True``).
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.core.storage import StorageState
from repro.errors import DisconnectedGraphError, NodeNotFoundError
from repro.graphs import (
    Graph,
    bfs_tree,
    dijkstra,
    kruskal_mst,
    metric_closure,
    path_from_tree,
    steiner_tree,
)
from repro.graphs.forest import csr_adjacency, hop_forest

LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"n{i}",
    "tuple": lambda i: (i % 3, i // 3),
}


@st.composite
def random_graphs(draw, max_nodes=24, weighted=False):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    nodes = [label(i) for i in range(n)]
    rng.shuffle(nodes)
    pairs = [(u, v) for a, u in enumerate(nodes) for v in nodes[a + 1:]]
    rng.shuffle(pairs)
    graph = Graph()
    graph.add_nodes(nodes)
    for u, v in pairs:
        if rng.random() < density:
            # Small integer weights make many equal-distance ties.
            weight = rng.randint(1, 4) if weighted else 1.0
            graph.add_edge(*((u, v) if rng.random() < 0.5 else (v, u)), weight)
    return graph


def euler_ranges(parents: Dict) -> Dict:
    """``node -> (tin, tout)``: DFS preorder, children in BFS order."""
    order = list(parents)
    children: Dict = {node: [] for node in order}
    for node in order[1:]:
        children[parents[node]].append(node)
    ranges: Dict = {}

    def visit(node, tin):
        tout = tin + 1
        for child in children[node]:
            tout = visit(child, tout)
        ranges[node] = (tin, tout)
        return tout

    visit(order[0], 0)
    return ranges


@given(random_graphs())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_forest_equals_per_source_bfs(graph):
    nodes = list(graph.nodes())
    index = {node: p for p, node in enumerate(nodes)}
    forest = hop_forest(*csr_adjacency(graph, nodes, index))
    n = len(nodes)
    for s, source in enumerate(nodes):
        parents = bfs_tree(graph, source)
        reach = forest.order[s, : forest.count[s]].tolist()
        assert [nodes[p] for p in reach] == list(parents)
        assert (forest.order[s, forest.count[s]:] == n).all()
        ranges = euler_ranges(parents)
        for node, parent in parents.items():
            p = index[node]
            assert nodes[forest.parent[s, p]] == parent
            hops = 0 if node == source else forest.hops[s, index[parent]] + 1
            assert forest.hops[s, p] == hops
            assert (forest.tin[s, p], forest.tout[s, p]) == ranges[node]
        outside = [index[node] for node in nodes if node not in parents]
        for name in ("parent", "hops", "tin", "tout"):
            assert (getattr(forest, name)[s, outside] == n).all()


@given(random_graphs())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_cost_model_trees_equal_bfs_tree(graph):
    model = CostModel(graph, StorageState(graph.nodes(), 5))
    for source in graph.nodes():
        parents = bfs_tree(graph, source)
        tree = model._hop_tree(source)
        assert list(tree.parents.items()) == list(parents.items())
        assert list(model.hop_counts(source)) == list(parents)
        for target in parents:
            assert model.path(source, target) == path_from_tree(
                parents, source, target
            )


# -- the dict-based KMB, kept as the oracle ----------------------------

def oracle_metric_closure(graph: Graph, terminals):
    terminal_list = list(dict.fromkeys(terminals))
    closure = Graph()
    closure.add_nodes(terminal_list)
    paths = {}
    for i, u in enumerate(terminal_list):
        dist, parent = dijkstra(graph, u)
        for v in terminal_list[i + 1:]:
            if v not in dist:
                raise DisconnectedGraphError(
                    f"terminals {u!r} and {v!r} are not connected"
                )
            closure.add_edge(u, v, dist[v])
            path = path_from_tree(parent, u, v)
            paths[(u, v)] = path
            paths[(v, u)] = list(reversed(path))
    return closure, paths


def oracle_steiner_tree(graph: Graph, terminals) -> Graph:
    terminal_list = list(dict.fromkeys(terminals))
    if len(terminal_list) == 1:
        tree = Graph()
        tree.add_node(terminal_list[0])
        return tree
    closure, closure_paths = oracle_metric_closure(graph, terminal_list)
    expanded = Graph()
    for u, v, _ in kruskal_mst(closure).edges():
        path = closure_paths[(u, v)]
        for a, b in zip(path, path[1:]):
            if not expanded.has_edge(a, b):
                expanded.add_edge(a, b, graph.weight(a, b))
    tree = kruskal_mst(expanded)
    terminal_set = set(terminal_list)
    pruned = True
    while pruned:
        pruned = False
        for node in list(tree.nodes()):
            if node not in terminal_set and tree.degree(node) <= 1:
                tree.remove_node(node)
                pruned = True
    return tree


def _terminals(graph: Graph, seed: int) -> List:
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    chosen = [rng.choice(nodes) for _ in range(rng.randint(1, len(nodes) + 2))]
    return chosen  # duplicates included: both sides dedupe them


class Disconnected(str):
    """The message of a :class:`DisconnectedGraphError`, as an outcome."""


def _outcome(build, *args):
    try:
        return build(*args)
    except DisconnectedGraphError as exc:
        return Disconnected(exc)


@given(random_graphs(weighted=True), st.integers(min_value=0, max_value=10**6))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_steiner_tree_equals_oracle(graph, seed):
    terminals = _terminals(graph, seed)
    new = _outcome(steiner_tree, graph, terminals)
    old = _outcome(oracle_steiner_tree, graph, terminals)
    if isinstance(old, Disconnected):
        assert isinstance(new, Disconnected) and new == old
        return
    assert list(new.nodes()) == list(old.nodes())
    assert list(new.edges()) == list(old.edges())


@given(random_graphs(weighted=True), st.integers(min_value=0, max_value=10**6))
@settings(derandomize=True, max_examples=80, deadline=None)
def test_metric_closure_equals_oracle(graph, seed):
    terminals = _terminals(graph, seed)
    new = _outcome(metric_closure, graph, terminals)
    old = _outcome(oracle_metric_closure, graph, terminals)
    if isinstance(old, Disconnected):
        assert isinstance(new, Disconnected) and new == old
        return
    (new_closure, new_paths), (old_closure, old_paths) = new, old
    assert list(new_closure.nodes()) == list(old_closure.nodes())
    assert list(new_closure.edges()) == list(old_closure.edges())
    assert new_paths == old_paths


def test_examples_cover_disconnected_and_tied_cases():
    # The strategies above must reach the cases the rewrite is subtle on.
    seen = {"disconnected": 0, "tree": 0}

    @given(random_graphs(weighted=True), st.integers(0, 10**6))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def census(graph, seed):
        result = _outcome(oracle_steiner_tree, graph, _terminals(graph, seed))
        seen["disconnected" if isinstance(result, Disconnected) else "tree"] += 1

    census()
    assert seen["disconnected"] >= 10 and seen["tree"] >= 10


@pytest.mark.parametrize("labels", sorted(LABELS))
def test_single_terminal_and_missing_terminal(labels):
    graph = Graph([(LABELS[labels](0), LABELS[labels](1))])
    only = LABELS[labels](1)
    assert list(steiner_tree(graph, [only, only]).nodes()) == [only]
    with pytest.raises(NodeNotFoundError):
        steiner_tree(graph, [only, "missing"])
    with pytest.raises(NodeNotFoundError):
        metric_closure(graph, ["missing", only])
