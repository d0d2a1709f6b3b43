"""Shortest-path algorithms: BFS (hop count), Dijkstra, Floyd–Warshall.

Two distance notions matter in the paper:

* **Hop count** — used to pick the routes packets actually take ("A node
  will find the nearest copy of a chunk and go through the shortest hop
  path", Sec. V-A) and by the Hop-Count baseline [13].
* **Weighted node-cost paths** — the Path Contention Cost (Eq. 2) sums
  *node* contention costs ``w_k (1 + S(k))`` along a path.  Node-weighted
  shortest paths are reduced to edge-weighted ones by charging each edge
  ``(u, v)`` half the endpoint costs; :func:`dijkstra_node_costs` supports
  them directly instead, which is what the cost model uses.

Algorithm 1 computes all-pairs shortest paths (lines 8–13); the paper notes
Floyd–Warshall's ``O(N^3)`` there, which :func:`floyd_warshall` provides.
For sparse graphs, repeated Dijkstra is cheaper and is what the higher
layers default to.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import NodeNotFoundError, NoPathError
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


def bfs_all_hop_counts(graph: Graph, source: Node) -> Dict[Node, int]:
    """Hop distance from ``source`` to every reachable node."""
    if source not in graph:
        raise NodeNotFoundError(source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist


def bfs_tree(graph: Graph, source: Node) -> Dict[Node, Node]:
    """Parent pointers of a BFS tree rooted at ``source``.

    ``parents[source] == source``; follow pointers to walk a minimum-hop
    path back to the root.  Used to route packets along shortest hop paths.
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


def all_pairs_dijkstra(graph: Graph) -> Dict[Node, Dict[Node, float]]:
    """Edge-weighted all-pairs distances via repeated Dijkstra."""
    return {node: dijkstra(graph, node)[0] for node in graph.nodes()}


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
