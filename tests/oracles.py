"""Reference implementations that the tests compare production code against.

Plain dict-based versions of what :mod:`repro.graphs` computes over
node positions: BFS trees and paths, edge- and node-weighted Dijkstra
(Eq. 2's Path Contention Cost sums *node* costs, endpoints included),
Floyd–Warshall (the ``O(N^3)`` all-pairs step Sec. IV-B discusses for
Algorithm 1 lines 8–13) and Prim's MST.  Nothing in ``src`` imports
them.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DisconnectedGraphError, NodeNotFoundError, NoPathError
from repro.graphs.graph import Graph, Node

INF = float("inf")


def bfs_shortest_path(graph: Graph, source: Node, target: Node) -> List[Node]:
    """A minimum-hop path from ``source`` to ``target`` (inclusive).

    Raises :class:`NoPathError` if ``target`` is unreachable.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if target not in graph:
        raise NodeNotFoundError(target)
    if source == target:
        return [source]
    parent: Dict[Node, Node] = {source: source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor in parent:
                continue
            parent[neighbor] = node
            if neighbor == target:
                return path_from_tree(parent, source, target)
            queue.append(neighbor)
    raise NoPathError(source, target)


def bfs_tree(graph: Graph, source: Node) -> Dict[Node, Node]:
    """Parent pointers of a BFS tree rooted at ``source``.

    ``parents[source] == source``; follow pointers to walk a minimum-hop
    path back to the root.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    parent: Dict[Node, Node] = {source: source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in parent:
                parent[neighbor] = node
                queue.append(neighbor)
    return parent


def path_from_tree(parents: Dict[Node, Node], source: Node, target: Node) -> List[Node]:
    """Extract the ``source`` → ``target`` path from BFS/Dijkstra parents."""
    if target not in parents:
        raise NoPathError(source, target)
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def dijkstra(
    graph: Graph, source: Node, target: Optional[Node] = None
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Edge-weighted single-source shortest paths.

    Returns ``(distances, parents)``.  If ``target`` is given, stops early
    once it is settled.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if target is not None and target not in graph:
        raise NodeNotFoundError(target)
    dist: Dict[Node, float] = {source: 0.0}
    parent: Dict[Node, Node] = {source: source}
    heap: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
    settled = set()
    counter = 1  # tie-breaker so heterogeneous node labels never compare
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            break
        for neighbor, weight in graph.neighbor_weights(node):
            nd = d + weight
            if nd < dist.get(neighbor, INF):
                dist[neighbor] = nd
                parent[neighbor] = node
                heapq.heappush(heap, (nd, counter, neighbor))
                counter += 1
    return dist, parent


def dijkstra_node_costs(
    graph: Graph,
    source: Node,
    node_cost: Callable[[Node], float],
    include_source: bool = True,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Shortest paths where the cost of a path is the sum of *node* costs.

    This matches the Path Contention Cost of Eq. 2:
    ``c_ij = Σ_{k ∈ PATH(i, j)} w_k (1 + S(k))`` — the path cost is the sum
    of per-node contention costs over every node on the path, endpoints
    included.

    Parameters
    ----------
    node_cost:
        Callable returning the non-negative cost of visiting a node.
    include_source:
        Whether the source node's own cost counts toward every path
        (Eq. 2 sums over *all* nodes on the path, so the default is True).

    Returns
    -------
    (distances, parents):
        ``distances[v]`` is the minimum node-cost sum of any path from
        ``source`` to ``v``; ``parents`` reconstructs the paths.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    start = node_cost(source) if include_source else 0.0
    dist: Dict[Node, float] = {source: start}
    parent: Dict[Node, Node] = {source: source}
    heap: List[Tuple[float, int, Node]] = [(start, 0, source)]
    settled = set()
    counter = 1
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for neighbor in graph.neighbors(node):
            nd = d + node_cost(neighbor)
            if nd < dist.get(neighbor, INF):
                dist[neighbor] = nd
                parent[neighbor] = node
                heapq.heappush(heap, (nd, counter, neighbor))
                counter += 1
    return dist, parent


def floyd_warshall(graph: Graph) -> Dict[Node, Dict[Node, float]]:
    """All-pairs edge-weighted distances, ``O(N^3)``.

    Matches the complexity discussion of Sec. IV-B (Algorithm 1 lines 8–13).
    Unreachable pairs get ``float('inf')``.
    """
    nodes = list(graph.nodes())
    dist: Dict[Node, Dict[Node, float]] = {
        u: {v: (0.0 if u == v else INF) for v in nodes} for u in nodes
    }
    for u, v, w in graph.edges():
        if w < dist[u][v]:
            dist[u][v] = w
            dist[v][u] = w
    for k in nodes:
        dk = dist[k]
        for i in nodes:
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in nodes:
                through = dik + dk[j]
                if through < di[j]:
                    di[j] = through
    return dist


def prim_mst(graph: Graph) -> Graph:
    """Minimum spanning tree by Prim's algorithm (heap-based)."""
    if graph.num_nodes == 0:
        return Graph()
    start = next(iter(graph.nodes()))
    tree = Graph()
    tree.add_node(start)
    visited = {start}
    heap: List[Tuple[float, int, Node, Node]] = []
    counter = 0
    for neighbor, w in graph.neighbor_weights(start):
        heapq.heappush(heap, (w, counter, start, neighbor))
        counter += 1
    while heap and len(visited) < graph.num_nodes:
        w, _, u, v = heapq.heappop(heap)
        if v in visited:
            continue
        visited.add(v)
        tree.add_edge(u, v, w)
        for neighbor, nw in graph.neighbor_weights(v):
            if neighbor not in visited:
                heapq.heappush(heap, (nw, counter, v, neighbor))
                counter += 1
    if len(visited) != graph.num_nodes:
        raise DisconnectedGraphError("graph is not connected; no spanning tree")
    return tree
