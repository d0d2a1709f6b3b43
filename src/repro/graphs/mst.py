"""Minimum spanning trees by Kruskal's algorithm.

MSTs are the backbone of the Kou–Markowsky–Berman Steiner-tree
approximation (:mod:`repro.graphs.steiner`), which Algorithm 1's phase 2
uses to connect the selected caching (ADMIN) nodes to the producer.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import DisconnectedGraphError
from repro.graphs.graph import Graph, Node
from repro.graphs.unionfind import UnionFind


def kruskal_mst(graph: Graph) -> Graph:
    """Minimum spanning tree by Kruskal's algorithm.

    Raises :class:`DisconnectedGraphError` if the graph is not connected
    (an MST then does not exist).
    """
    edges: List[Tuple[float, int, Node, Node]] = [
        (w, i, u, v) for i, (u, v, w) in enumerate(graph.edges())
    ]
    edges.sort(key=lambda e: (e[0], e[1]))
    uf = UnionFind(graph.nodes())
    tree = Graph()
    tree.add_nodes(graph.nodes())
    # Counted here: Graph.num_edges walks every adjacency dict.
    needed = graph.num_nodes - 1
    added = 0
    for w, _, u, v in edges:
        if uf.union(u, v):
            tree.add_edge(u, v, w)
            added += 1
            if added == needed:
                break
    if graph.num_nodes > 0 and added != needed:
        raise DisconnectedGraphError("graph is not connected; no spanning tree")
    return tree


def tree_weight(tree: Graph) -> float:
    """Total edge weight of a graph (typically a tree)."""
    return sum(w for _, _, w in tree.edges())
