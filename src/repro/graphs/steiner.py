"""Steiner-tree approximation (Kou–Markowsky–Berman, ratio 2).

Algorithm 1's phase 2 must "construct [a] Steiner tree" connecting the
selected caching (ADMIN) nodes and the producer, so data chunks can be
disseminated along it (constraint 6 of the ILP).  The paper cites the
Robins–Zelikovsky 1.55-approximation [25]; we substitute the classic KMB
2-approximation — polynomial, constant-ratio, and dramatically simpler —
and apply the *same* tree builder uniformly to every algorithm so all
comparisons stay apples-to-apples (see DESIGN.md §5).

KMB steps:

1. Build the metric closure on the terminal set (all-pairs shortest paths
   among terminals).
2. Compute an MST of that complete graph.
3. Expand each MST edge into its underlying shortest path.
4. Take the MST of the expanded subgraph and prune non-terminal leaves
   (the step :func:`dreyfus_wagner`'s reconstruction ends with too).

The commit, the adaptive rebuild and Brtf's final sets above its
exact-DP limit all run :func:`steiner_tree` on the topology weighted by
:func:`repro.core.costs.weighted_topology`.

Step 1 runs one Dijkstra per terminal but the last, over the graph
relabelled to positions ``0..n-1`` (neighbour index lists, no adjacency
copies), and keeps each run's parent array.  The closure edges go to
Kruskal as ``(distance, pair index)`` keys, pairs in lexicographic
terminal order, with no closure graph built; only the ``t - 1`` closure
MST edges are expanded into paths, each read off the earlier terminal's
tree.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import DisconnectedGraphError, NodeNotFoundError
from repro.graphs.graph import Graph, Node
from repro.graphs.mst import kruskal_mst
from repro.graphs.shortest_paths import dijkstra, path_from_tree
from repro.graphs.unionfind import UnionFind

INF = float("inf")


def _dijkstra_parents(
    adjacency: List[List[Tuple[int, float]]], source: int
) -> Tuple[List[float], List[int]]:
    """Edge-weighted Dijkstra over position lists; ``-1``: unreached.

    Settles, relaxes and breaks ties exactly as
    :func:`repro.graphs.shortest_paths.dijkstra`, so distances and parents
    match it bit for bit.
    """
    dist = [INF] * len(adjacency)
    parent = [-1] * len(adjacency)
    settled = [False] * len(adjacency)
    dist[source] = 0.0
    parent[source] = source
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, node = heapq.heappop(heap)
        if settled[node]:
            continue
        settled[node] = True
        for neighbor, weight in adjacency[node]:
            nd = d + weight
            if nd < dist[neighbor]:
                dist[neighbor] = nd
                parent[neighbor] = node
                heapq.heappush(heap, (nd, counter, neighbor))
                counter += 1
    return dist, parent


class _Closure:
    """The metric closure of a terminal list, kept as Dijkstra trees.

    ``pairs[k] = (i, j, d)`` for the ``k``-th terminal pair ``i < j`` in
    lexicographic order, ``d`` their shortest-path distance; the path of
    a pair is read off terminal ``i``'s parent array.
    """

    def __init__(self, graph: Graph, terminals: List[Node]) -> None:
        for t in terminals:
            if t not in graph:
                raise NodeNotFoundError(t)
        self.nodes = list(graph.nodes())
        index = {node: position for position, node in enumerate(self.nodes)}
        adjacency = [
            [(index[v], w) for v, w in graph.neighbor_weights(node)]
            for node in self.nodes
        ]
        self.terminals = terminals
        self.positions = [index[t] for t in terminals]
        self.parents: List[List[int]] = []
        self.pairs: List[Tuple[int, int, float]] = []
        for i, u in enumerate(terminals[:-1]):
            dist, parent = _dijkstra_parents(adjacency, self.positions[i])
            for j in range(i + 1, len(terminals)):
                p = self.positions[j]
                if parent[p] < 0:
                    raise DisconnectedGraphError(
                        f"terminals {u!r} and {terminals[j]!r} are not connected"
                    )
                self.pairs.append((i, j, dist[p]))
            self.parents.append(parent)

    def path(self, i: int, j: int) -> List[Node]:
        """Terminal ``i``'s shortest path to terminal ``j`` (``i < j``)."""
        parent, source = self.parents[i], self.positions[i]
        at = self.positions[j]
        path = [at]
        while at != source:
            at = parent[at]
            path.append(at)
        path.reverse()
        return [self.nodes[p] for p in path]

    def mst(self) -> List[Tuple[int, int]]:
        """Kruskal over the closure: the ``t - 1`` MST edges ``(i, j)``.

        Ties in distance go to the lower pair index.  The edges come in
        the order :meth:`Graph.edges` of the MST as a graph would yield
        them: by earlier terminal, then in acceptance order.
        """
        components = UnionFind(range(len(self.terminals)))
        accepted: List[Tuple[int, int]] = []
        # A stable sort keeps equal distances in pair-index order.
        for i, j, _ in sorted(self.pairs, key=itemgetter(2)):
            if components.union(i, j):
                accepted.append((i, j))
                if len(accepted) == len(self.terminals) - 1:
                    break
        accepted.sort(key=lambda edge: edge[0])
        return accepted


def metric_closure(
    graph: Graph, terminals: Iterable[Node]
) -> Tuple[Graph, Dict[Tuple[Node, Node], List[Node]]]:
    """Complete graph on ``terminals`` weighted by shortest-path distance.

    Returns the closure graph and a map from each closure edge ``(u, v)``
    (both orientations) to the realizing path in ``graph``.
    """
    terminal_list = list(dict.fromkeys(terminals))
    closure_graph = Graph()
    closure_graph.add_nodes(terminal_list)
    closure = _Closure(graph, terminal_list)
    paths: Dict[Tuple[Node, Node], List[Node]] = {}
    for i, j, d in closure.pairs:
        u, v = terminal_list[i], terminal_list[j]
        closure_graph.add_edge(u, v, d)
        path = closure.path(i, j)
        paths[(u, v)] = path
        paths[(v, u)] = path[::-1]
    return closure_graph, paths


def steiner_tree(graph: Graph, terminals: Iterable[Node]) -> Graph:
    """A Steiner tree spanning ``terminals`` (KMB 2-approximation).

    Returns a subgraph of ``graph`` that is a tree containing every
    terminal.  Edge weights are inherited from ``graph``.

    A single terminal yields a one-node tree; an empty terminal set is an
    error.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise ValueError("terminal set must be non-empty")
    if len(terminal_list) == 1:
        tree = Graph()
        if terminal_list[0] not in graph:
            raise NodeNotFoundError(terminal_list[0])
        tree.add_node(terminal_list[0])
        return tree

    closure = _Closure(graph, terminal_list)

    # Expand closure MST edges into their realizing paths.
    expanded = Graph()
    for i, j in closure.mst():
        path = closure.path(i, j)
        for a, b in zip(path, path[1:]):
            if not expanded.has_edge(a, b):
                expanded.add_edge(a, b, graph.weight(a, b))

    return _pruned_mst(expanded, terminal_list)


def _pruned_mst(subgraph: Graph, terminals: List[Node]) -> Graph:
    """MST of ``subgraph``, then its non-terminal leaves pruned away.

    The last step of both tree builders here: the union of shortest
    paths they expand can hold cycles and dead ends.
    """
    tree = kruskal_mst(subgraph)
    terminal_set = set(terminals)
    pruned = True
    while pruned:
        pruned = False
        for node in list(tree.nodes()):
            if node not in terminal_set and tree.degree(node) <= 1:
                tree.remove_node(node)
                pruned = True
    return tree


def all_pairs_with_parents(
    graph: Graph,
) -> Tuple[Dict[Node, Dict[Node, float]], Dict[Node, Dict[Node, Node]]]:
    """All-pairs Dijkstra distances *and* parent trees.

    Callers that price many Steiner trees on the same graph (the local
    search in :mod:`repro.exact.local_search`) compute this once and pass
    it to :func:`dreyfus_wagner` / reuse it for metric closures.
    """
    dist: Dict[Node, Dict[Node, float]] = {}
    parents: Dict[Node, Dict[Node, Node]] = {}
    for v in graph.nodes():
        dist[v], parents[v] = dijkstra(graph, v)
    return dist, parents


def dreyfus_wagner(
    graph: Graph,
    terminals: Iterable[Node],
    apsp: Optional[Tuple[Dict[Node, Dict[Node, float]], Dict[Node, Dict[Node, Node]]]] = None,
) -> Tuple[float, Graph]:
    """*Exact* minimum Steiner tree by the Dreyfus–Wagner DP.

    Exponential in the number of terminals (``O(3^t · n)`` subset states),
    so intended for the tiny instances the brute-force cross-checks use
    (``t`` ≲ 8).  Returns ``(cost, tree)``; the tree realizes the optimal
    cost using shortest-path expansions of the DP decisions.

    Used to validate both the KMB 2-approximation and the exact ILP's
    flow-based connectivity encoding.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise ValueError("terminal set must be non-empty")
    for t in terminal_list:
        if t not in graph:
            raise NodeNotFoundError(t)
    if len(terminal_list) == 1:
        tree = Graph()
        tree.add_node(terminal_list[0])
        return 0.0, tree
    if len(terminal_list) > 16:
        raise ValueError(
            f"dreyfus_wagner is exponential in terminals; got "
            f"{len(terminal_list)} (max 16)"
        )

    nodes = list(graph.nodes())
    if apsp is not None:
        dist, parents = apsp
    else:
        dist, parents = all_pairs_with_parents(graph)
    for t in terminal_list:
        for u in terminal_list:
            if u not in dist[t]:
                raise DisconnectedGraphError(
                    f"terminals {t!r} and {u!r} are not connected"
                )

    # DP over subsets of terminals[1:]; root the tree at terminals[0].
    base = terminal_list[1:]
    full = (1 << len(base)) - 1
    INF = float("inf")
    # S[mask][v] = cost of optimal tree spanning {base_i : i in mask} ∪ {v}
    S: List[Dict[Node, float]] = [dict() for _ in range(full + 1)]
    # choice[mask][v] = how the optimum was formed, for reconstruction:
    #   ("leaf", t)            — mask is a singleton {t}: path v→t
    #   ("split", m1, m2, v)   — two subtrees joined at v
    #   ("steal", u, mask)     — path v→u plus tree S[mask][u]
    choice: List[Dict[Node, tuple]] = [dict() for _ in range(full + 1)]

    for i, t in enumerate(base):
        mask = 1 << i
        for v in nodes:
            S[mask][v] = dist[v].get(t, INF)
            choice[mask][v] = ("leaf", t)

    masks_by_size = sorted(range(1, full + 1), key=lambda m: bin(m).count("1"))
    for mask in masks_by_size:
        if bin(mask).count("1") < 2:
            continue
        # Merge step: best split of mask into two non-empty halves at v.
        merged: Dict[Node, float] = {}
        merged_choice: Dict[Node, tuple] = {}
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:  # each unordered split once
                for v in nodes:
                    c = S[sub].get(v, INF) + S[other].get(v, INF)
                    if c < merged.get(v, INF):
                        merged[v] = c
                        merged_choice[v] = ("split", sub, other, v)
            sub = (sub - 1) & mask
        # Propagation step: Dijkstra-like relaxation over the metric
        # closure — S[mask][v] = min_u (dist(v, u) + merged[u]).
        S[mask] = {}
        choice[mask] = {}
        for v in nodes:
            best = INF
            best_choice = None
            for u, mu in merged.items():
                c = dist[v].get(u, INF) + mu
                if c < best:
                    best = c
                    best_choice = ("steal", u, mask) if u != v else merged_choice[u]
            if best < INF:
                S[mask][v] = best
                choice[mask][v] = best_choice

    root = terminal_list[0]
    cost = S[full][root]

    # ------------------------------------------------------------------
    # Reconstruction: walk the choice structure, emitting shortest paths.
    # ------------------------------------------------------------------
    tree = Graph()
    tree.add_node(root)

    def add_path(a: Node, b: Node) -> None:
        path = path_from_tree(parents[a], a, b)
        for u, v in zip(path, path[1:]):
            if not tree.has_edge(u, v):
                tree.add_edge(u, v, graph.weight(u, v))

    def rebuild(mask: int, v: Node) -> None:
        entry = choice[mask].get(v)
        if entry is None:
            return
        kind = entry[0]
        if kind == "leaf":
            add_path(v, entry[1])
        elif kind == "split":
            _, m1, m2, at = entry
            rebuild(m1, at)
            rebuild(m2, at)
        elif kind == "steal":
            _, u, m = entry
            add_path(v, u)
            # u's own entry is the split (or leaf) that formed merged[u].
            sub = (m - 1) & m
            best = None
            best_cost = float("inf")
            while sub:
                other = m ^ sub
                if sub < other:
                    c = S[sub].get(u, float("inf")) + S[other].get(u, float("inf"))
                    if c < best_cost:
                        best_cost = c
                        best = (sub, other)
                sub = (sub - 1) & m
            if best is not None:
                rebuild(best[0], u)
                rebuild(best[1], u)

    rebuild(full, root)
    # The reconstructed subgraph can contain redundant cycles when paths
    # overlap; reduce it like KMB's expansion.
    return cost, _pruned_mst(tree, terminal_list)
