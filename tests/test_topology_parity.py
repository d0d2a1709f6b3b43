"""The hop forest, the cost model and the index-list KMB against their
per-node oracles (``tests/oracles.py`` and the dict KMB below).

* :func:`repro.graphs.forest.hop_forest` must give every source exactly
  the tree of ``bfs_tree`` (order, parents, hops) and the Euler ranges
  of a per-tree DFS layout.
* :class:`~repro.core.costs.CostModel` must route ``path()`` along the
  ``bfs_tree`` paths under ``"hops"``, and along the
  ``dijkstra_node_costs`` paths, with its distances as the cost rows,
  under ``"contention"``: on tie-heavy grids and rings, across storage
  changes.
* :func:`repro.graphs.steiner_tree` must equal the dict-based KMB kept
  below as the oracle: the same edges, in the same order.  Its
  :class:`~repro.graphs.steiner.PathTable` must give each source the
  distances and paths of ``dijkstra``, and the closure MST of
  ``kruskal_mst`` on the oracle's closure graph.
* The local search's descent prices a cache set with KMB too; its cost
  must equal the oracle's closure MST expanded into paths, summed in the
  same canonical edge order, bit for bit.

Graphs are random, connected or not, with int, str or tuple labels
inserted in shuffled order, so adjacency orders vary.  Every example is
derived from a fixed seed (``derandomize=True``).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confl import ConFLInstance
from repro.core.costs import CostModel, path_contention_cost
from repro.core.storage import StorageState
from repro.errors import DisconnectedGraphError, NodeNotFoundError, NoPathError
from repro.graphs import (
    Graph,
    cycle_graph,
    grid_graph,
    hop_distances,
    kruskal_mst,
    steiner_tree,
)
from repro.exact.local_search import _ChunkObjective
from repro.graphs.forest import csr_adjacency, hop_forest
from repro.graphs.steiner import PathTable
from tests.oracles import (
    bfs_tree,
    dijkstra,
    dijkstra_node_costs,
    path_from_tree,
)

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


def assert_paths_follow(model: CostModel, parents: Dict, source) -> None:
    """``model.path`` from ``source`` walks the oracle tree ``parents``."""
    for target in model.graph.nodes():
        if target in parents:
            assert model.path(source, target) == path_from_tree(
                parents, source, target
            )
        else:
            with pytest.raises(NoPathError):
                model.path(source, target)


@given(random_graphs())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_cost_model_trees_equal_bfs_tree(graph):
    model = CostModel(graph, StorageState(graph.nodes(), 5))
    for source in graph.nodes():
        parents = bfs_tree(graph, source)
        assert list(model.hop_counts(source)) == list(parents)
        assert_paths_follow(model, parents, source)


@st.composite
def tie_heavy_graphs(draw):
    """Grids, rings or both side by side: many equal-length paths.

    Labels are int, str or tuple; nodes and edges go in shuffled order
    and each edge in a random orientation, so adjacency orders vary.
    """
    kind = draw(st.sampled_from(["grid", "ring", "grid+ring"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    base = Graph()
    if kind != "ring":
        base = grid_graph(rng.randint(1, 5), rng.randint(2, 5))
    if kind != "grid":
        offset = base.num_nodes
        for u, v, _ in cycle_graph(rng.randint(3, 12)).edges():
            base.add_edge(u + offset, v + offset)
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    nodes = [label(i) for i in base.nodes()]
    edges = [(label(u), label(v)) for u, v, _ in base.edges()]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    graph = Graph()
    graph.add_nodes(nodes)
    for u, v in edges:
        graph.add_edge(*((u, v) if rng.random() < 0.5 else (v, u)))
    return graph


@given(tie_heavy_graphs(), st.integers(min_value=0, max_value=10**6))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_cost_model_paths_and_rows_equal_oracles(graph, seed):
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    storage = StorageState(nodes, 2)
    hops = CostModel(graph, storage)
    contention = CostModel(graph, storage, path_policy="contention")
    for chunk in range(3):
        for source in nodes:
            parents = bfs_tree(graph, source)
            assert_paths_follow(hops, parents, source)
            expected = [
                path_contention_cost(
                    graph, path_from_tree(parents, source, node), storage
                ) if node in parents else math.inf
                for node in nodes
            ]
            assert hops.cost_rows([source], nodes)[0].tolist() == expected
            dist, tree = dijkstra_node_costs(
                graph, source, contention.node_cost
            )
            assert_paths_follow(contention, tree, source)
            expected = [
                0.0 if node == source else float(dist.get(node, math.inf))
                for node in nodes
            ]
            row = contention.cost_rows([source], nodes)[0]
            assert row.tolist() == expected
        # Cache the next chunk on some nodes (evicting where full), then
        # tell both models which nodes changed.
        dirty = rng.sample(nodes, rng.randint(1, len(nodes)))
        for node in dirty:
            if storage.can_cache(node):
                storage.add(node, chunk)
            else:
                storage.remove(node, next(iter(storage.chunks_at(node))))
        hops.invalidate(dirty_nodes=dirty)
        contention.invalidate(dirty_nodes=dirty)


def test_tie_heavy_examples_tie_and_disconnect():
    # The parity above is only as strong as its ties: the examples must
    # reach nodes with two or more shortest-path predecessors, under hop
    # counts and under node costs, and must include disconnected graphs.
    seen = {"hop_tie": 0, "cost_tie": 0, "disconnected": 0}

    @given(tie_heavy_graphs(), st.integers(0, 10**6))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def census(graph, seed):
        source = next(iter(graph.nodes()))
        hop = hop_distances(graph, source)
        cost, _ = dijkstra_node_costs(graph, source, graph.degree)
        for name, dist, step in (
            ("hop_tie", hop, lambda v: 1),
            ("cost_tie", cost, graph.degree),
        ):
            seen[name] += any(
                sum(
                    dist.get(u) == dist[v] - step(v)
                    for u in graph.neighbors(v)
                ) > 1
                for v in dist
            )
        seen["disconnected"] += len(hop) < graph.num_nodes

    census()
    assert min(seen.values()) >= 10, seen


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
    terminal_list = list(dict.fromkeys(_terminals(graph, seed)))
    table = PathTable(graph)
    for u in terminal_list:
        dist, parent = dijkstra(graph, u)
        for v in terminal_list:
            if v in dist:
                assert table.distance(u, v) == dist[v]
                assert table.path(u, v) == path_from_tree(parent, u, v)
            else:
                assert table.distance(u, v) == float("inf")
    new = _outcome(table.closure_mst, terminal_list)
    old = _outcome(oracle_metric_closure, graph, terminal_list)
    if isinstance(old, Disconnected):
        assert isinstance(new, Disconnected) and new == old
        return
    closure, _ = old
    assert new == [(u, v) for u, v, _ in kruskal_mst(closure).edges()]


def _kmb_instance(graph: Graph, rng: random.Random, weight: float):
    """A ConFL instance on ``graph`` whose caches can all reach the producer.

    Node costs are small integers, so many dissemination paths tie.
    """
    nodes = list(graph.nodes())
    producer = rng.choice(nodes)
    clients = tuple(node for node in nodes if node != producer)
    facilities = tuple(node for node in clients if node in bfs_tree(graph, producer))
    return ConFLInstance(
        producer=producer,
        clients=clients,
        facilities=facilities,
        open_cost={node: 1.0 for node in facilities},
        connect_matrix=np.zeros((1 + len(facilities), len(clients))),
        topology=graph,
        node_costs=np.array([float(rng.randint(1, 3)) for _ in nodes]),
        contention_weight=weight,
        dissemination_scale=1.0,
    )


def oracle_kmb_cost(graph: Graph, terminals) -> float:
    """Closure MST by ``kruskal_mst``, union of its expanded edges, summed
    in the descent's canonical ``repr`` order."""
    closure, closure_paths = oracle_metric_closure(graph, terminals)
    edges = set()
    for u, v, _ in kruskal_mst(closure).edges():
        path = closure_paths[(u, v)]
        edges.update(frozenset(edge) for edge in zip(path, path[1:]))
    total = 0.0
    for key in sorted(edges, key=lambda e: tuple(sorted(map(repr, e)))):
        total += graph.weight(*tuple(key))
    return total


@given(
    random_graphs(),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1.0, 0.7]),
)
@settings(derandomize=True, max_examples=80, deadline=None)
def test_descent_kmb_cost_equals_oracle(graph, seed, weight):
    rng = random.Random(seed)
    instance = _kmb_instance(graph, rng, weight)
    if not instance.facilities:
        return
    objective = _ChunkObjective(instance)
    # Several cache sets per instance: the descent reuses its paths.
    for _ in range(4):
        size = rng.randint(1, len(instance.facilities))
        caches = frozenset(rng.sample(instance.facilities, size))
        terminals = [instance.producer] + sorted(caches, key=str)
        expected = oracle_kmb_cost(instance.steiner_graph, terminals)
        assert objective.tree_cost(caches) == expected


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
        PathTable(graph).closure_mst(["missing", only])
