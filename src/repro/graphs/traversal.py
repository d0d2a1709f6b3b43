"""Breadth-first traversals: BFS order, hop distances, k-hop neighborhoods.

The distributed algorithm (Sec. IV-C) scopes all control messages —
CC / TIGHT / SPAN / FREEZE / NADMIN — to a ``k``-hop range (``k = 2`` in the
paper's evaluation, Fig. 3).  :func:`k_hop_neighborhood` implements exactly
that visibility set.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from repro.errors import NodeNotFoundError
from repro.graphs.graph import Graph, Node


def bfs_order(graph: Graph, source: Node) -> List[Node]:
    """Nodes reachable from ``source`` in breadth-first order."""
    if source not in graph:
        raise NodeNotFoundError(source)
    order: List[Node] = []
    seen: Set[Node] = {source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        order.append(node)
        for neighbor in graph.neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return order


def hop_distances(
    graph: Graph, source: Node, max_hops: Optional[int] = None
) -> Dict[Node, int]:
    """Hop counts from ``source`` to every reachable node.

    Parameters
    ----------
    max_hops:
        If given, stop exploring beyond this distance (used for k-hop
        scoped message delivery in the distributed simulator).
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    dist: Dict[Node, int] = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        d = dist[node]
        if max_hops is not None and d >= max_hops:
            continue
        for neighbor in graph.neighbors(node):
            if neighbor not in dist:
                dist[neighbor] = d + 1
                queue.append(neighbor)
    return dist


def k_hop_neighborhood(
    graph: Graph, source: Node, k: int, include_source: bool = False
) -> Set[Node]:
    """All nodes within ``k`` hops of ``source``.

    This is the visibility set of a node in the distributed algorithm: the
    nodes it can exchange CC / TIGHT / SPAN messages with.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    nodes = set(hop_distances(graph, source, max_hops=k))
    if not include_source:
        nodes.discard(source)
    return nodes
