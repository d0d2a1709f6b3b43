"""Steiner trees: the KMB 2-approximation and the exact Dreyfus–Wagner DP.

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

Every shortest path here comes from one :class:`PathTable` per graph.
It relabels the graph to positions ``0..n-1`` (neighbour index lists,
no adjacency copies) and runs one Dijkstra per source on first use,
keeping the run's parent array.  It answers distances, paths and the
closure MST of a terminal list: Kruskal over ``(distance, pair index)``
keys, pairs in lexicographic terminal order, with no closure graph
built.  :func:`steiner_tree` builds a table per call (Dijkstra from every
terminal but the last) and expands only the ``t - 1`` closure MST edges
into paths.  Brtf's local search keeps one table per ConFL instance for
its descent's KMB, its final trees and :func:`dreyfus_wagner`, which
reads every node's row; GreedyFair reads its wiring distances from one.

:func:`dijkstra_positions` is the program's only Dijkstra: besides the
table, the ``"contention"`` cost model runs it over node-cost arcs
(:mod:`repro.core.costs`).
"""

from __future__ import annotations

import heapq
from operator import add, itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import DisconnectedGraphError, NodeNotFoundError, NoPathError
from repro.graphs.graph import Graph, Node
from repro.graphs.mst import kruskal_mst
from repro.graphs.unionfind import UnionFind

INF = float("inf")

#: One Dijkstra run over positions: ``(dist, parent)``.
PathRow = Tuple[List[float], List[int]]


def dijkstra_positions(
    adjacency: Sequence[Sequence[Tuple[int, float]]],
    source: int,
    start: float = 0.0,
) -> PathRow:
    """Dijkstra over position lists: ``adjacency[u]`` holds ``(v, weight)``.

    The program's one weighted shortest-path kernel.  ``dist[source]``
    is ``start``; ``parent[source]`` is ``source`` and ``-1`` marks an
    unreached node.  Arcs relax in list order and equal distances settle
    in push order (a counter breaks heap ties), so the result depends
    only on the lists, never on node labels.
    """
    dist = [INF] * len(adjacency)
    parent = [-1] * len(adjacency)
    settled = [False] * len(adjacency)
    dist[source] = start
    parent[source] = source
    heap: List[Tuple[float, int, int]] = [(start, 0, source)]
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


class PathTable:
    """Shortest paths of one graph: one Dijkstra per source, on first use.

    Nodes are numbered by their position in graph order.  A source's row
    is its :func:`dijkstra_positions` run.  Distances and paths from ``u``
    are always read off ``u``'s row: on float weights ``distance(u, v)``
    and ``distance(v, u)`` can differ in the last bit, and tied paths
    can differ, so the direction is part of the answer.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.nodes = list(graph.nodes())
        self.index = index = {node: p for p, node in enumerate(self.nodes)}
        self._adjacency = [
            [(index[v], w) for v, w in graph.neighbor_weights(node)]
            for node in self.nodes
        ]
        self._rows: List[Optional[PathRow]] = [None] * len(self.nodes)

    def positions(self, nodes: Iterable[Node]) -> List[int]:
        """The positions of ``nodes``; a missing node raises."""
        try:
            return [self.index[node] for node in nodes]
        except KeyError as missing:
            raise NodeNotFoundError(missing.args[0]) from None

    def row(self, source: int) -> PathRow:
        """``(dist, parent)`` from the node at position ``source``."""
        row = self._rows[source]
        if row is None:
            row = dijkstra_positions(self._adjacency, source)
            self._rows[source] = row
        return row

    def distance(self, u: Node, v: Node) -> float:
        """Shortest-path distance from ``u`` to ``v`` (``inf``: unreached)."""
        source, target = self.positions((u, v))
        return self.row(source)[0][target]

    def path(self, u: Node, v: Node) -> List[Node]:
        """``u``'s shortest path to ``v``, read off ``u``'s parent array."""
        source, at = self.positions((u, v))
        parent = self.row(source)[1]
        if parent[at] < 0:
            raise NoPathError(u, v)
        path = [at]
        while at != source:
            at = parent[at]
            path.append(at)
        path.reverse()
        return [self.nodes[p] for p in path]

    def closure_mst(self, terminals: List[Node]) -> List[Tuple[Node, Node]]:
        """Kruskal over the metric closure of distinct ``terminals``.

        Pair ``(i, j)``, ``i < j``, weighs terminal ``i``'s distance to
        ``j``; ties in distance go to the earlier pair in lexicographic
        order.  The ``t - 1`` MST edges come as ``(terminal i, terminal
        j)``, by earlier terminal, then in acceptance order: the order
        :meth:`Graph.edges` yields them from a closure graph's MST.
        """
        positions = self.positions(terminals)
        pairs: List[Tuple[int, int, float]] = []
        for i, source in enumerate(positions[:-1]):
            dist, parent = self.row(source)
            for j in range(i + 1, len(positions)):
                p = positions[j]
                if parent[p] < 0:
                    raise DisconnectedGraphError(
                        f"terminals {terminals[i]!r} and {terminals[j]!r} "
                        "are not connected"
                    )
                pairs.append((i, j, dist[p]))
        components = UnionFind(range(len(terminals)))
        accepted: List[Tuple[int, int]] = []
        # A stable sort keeps equal distances in pair order.
        for i, j, _ in sorted(pairs, key=itemgetter(2)):
            if components.union(i, j):
                accepted.append((i, j))
                if len(accepted) == len(terminals) - 1:
                    break
        accepted.sort(key=itemgetter(0))
        return [(terminals[i], terminals[j]) for i, j in accepted]


def steiner_tree(
    graph: Graph, terminals: Iterable[Node], paths: Optional[PathTable] = None
) -> Graph:
    """A Steiner tree spanning ``terminals`` (KMB 2-approximation).

    Returns a subgraph of ``graph`` that is a tree containing every
    terminal.  Edge weights are inherited from ``graph``.  ``paths`` is a
    :class:`PathTable` of ``graph`` to reuse; without it one is built.

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

    if paths is None:
        paths = PathTable(graph)

    # Expand closure MST edges into their realizing paths.
    expanded = Graph()
    for u, v in paths.closure_mst(terminal_list):
        path = paths.path(u, v)
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


class _SubsetTable:
    """The Dreyfus–Wagner DP over subsets of ``terminals[1:]``.

    ``cost[mask][v]`` is the cost of an optimal tree spanning node ``v``
    (a position) and the terminals ``terminals[1 + i]`` for each bit
    ``i`` of ``mask`` (0 for the empty mask).  For a mask of two or more
    terminals, ``split[mask][u]`` is the first cheapest split ``(sub,
    other)`` of the mask joined at ``u``, and ``via[mask][v]`` the node
    ``u`` whose split ``cost[mask][v]`` extends by ``u``'s path to ``v``.
    """

    def __init__(self, paths: PathTable, terminals: List[Node]) -> None:
        n = len(paths.nodes)
        self.paths = paths
        self.positions = paths.positions(terminals)
        for t in self.positions:
            parent = paths.row(t)[1]
            for u in self.positions:
                if parent[u] < 0:
                    raise DisconnectedGraphError(
                        f"terminals {paths.nodes[t]!r} and "
                        f"{paths.nodes[u]!r} are not connected"
                    )
        rows = [paths.row(v)[0] for v in range(n)]
        base = self.positions[1:]
        self.full = (1 << len(base)) - 1
        self.cost: List[List[float]] = [[0.0] * n] * (self.full + 1)
        self.split: List[List[Tuple[int, int]]] = [[]] * (self.full + 1)
        self.via: List[List[int]] = [[]] * (self.full + 1)
        for i, t in enumerate(base):
            self.cost[1 << i] = [row[t] for row in rows]

        masks = range(1, self.full + 1)
        for mask in sorted(masks, key=lambda m: bin(m).count("1")):
            if mask & (mask - 1) == 0:
                continue
            # Merge step: the first cheapest split of mask into two
            # non-empty halves, at each node.
            merged = [INF] * n
            split = [(0, 0)] * n
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:  # each unordered split once
                    pair = (sub, other)
                    sums = map(add, self.cost[sub], self.cost[other])
                    for v, c in enumerate(sums):
                        if c < merged[v]:
                            merged[v] = c
                            split[v] = pair
                sub = (sub - 1) & mask
            # Propagation step: cost[mask][v] = min_u (dist(v, u) + merged[u]).
            reached = [u for u in range(n) if merged[u] < INF]
            cost = [INF] * n
            via = [-1] * n
            for v in range(n):
                row = rows[v]
                best = INF
                for u in reached:
                    c = row[u] + merged[u]
                    if c < best:
                        best = c
                        via[v] = u
                cost[v] = best
            self.cost[mask] = cost
            self.split[mask] = split
            self.via[mask] = via

    def expand(self, mask: int, v: int, tree: Graph) -> None:
        """Add the shortest paths that realize ``cost[mask][v]`` to ``tree``."""
        nodes, graph = self.paths.nodes, self.paths.graph
        if mask & (mask - 1) == 0:
            target = self.positions[mask.bit_length()]
        else:
            target = self.via[mask][v]
        path = self.paths.path(nodes[v], nodes[target])
        for a, b in zip(path, path[1:]):
            if not tree.has_edge(a, b):
                tree.add_edge(a, b, graph.weight(a, b))
        if mask & (mask - 1):
            sub, other = self.split[mask][target]
            self.expand(sub, target, tree)
            self.expand(other, target, tree)


def _checked_terminals(graph: Graph, terminals: Iterable[Node]) -> List[Node]:
    """Distinct terminals in first-seen order, all in ``graph``, 1 to 16."""
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise ValueError("terminal set must be non-empty")
    for t in terminal_list:
        if t not in graph:
            raise NodeNotFoundError(t)
    if len(terminal_list) > 16:
        raise ValueError(
            f"dreyfus_wagner is exponential in terminals; got "
            f"{len(terminal_list)} (max 16)"
        )
    return terminal_list


def dreyfus_wagner(
    graph: Graph, terminals: Iterable[Node], paths: Optional[PathTable] = None
) -> Tuple[float, Graph]:
    """*Exact* minimum Steiner tree by the Dreyfus–Wagner DP.

    Exponential in the number of terminals (``O(3^t · n)`` subset states),
    so intended for the tiny instances the brute-force cross-checks use
    (``t`` ≲ 8).  Returns ``(cost, tree)``; the tree realizes the optimal
    cost using shortest-path expansions of the DP decisions.  ``paths``
    is a :class:`PathTable` of ``graph`` to reuse; without it one is
    built.

    Used to validate both the KMB 2-approximation and the exact ILP's
    flow-based connectivity encoding.
    """
    terminal_list = _checked_terminals(graph, terminals)
    if len(terminal_list) == 1:
        tree = Graph()
        tree.add_node(terminal_list[0])
        return 0.0, tree
    table = _SubsetTable(paths or PathTable(graph), terminal_list)
    root = table.positions[0]
    tree = Graph()
    tree.add_node(terminal_list[0])
    table.expand(table.full, root, tree)
    # The reconstructed subgraph can contain redundant cycles when paths
    # overlap; reduce it like KMB's expansion.
    return table.cost[table.full][root], _pruned_mst(tree, terminal_list)


def dreyfus_wagner_costs(
    graph: Graph, terminals: Iterable[Node]
) -> List[float]:
    """Optimal Steiner costs of every subset, from one Dreyfus–Wagner DP.

    Entry ``mask`` is the cost of a minimum tree spanning ``terminals[0]``
    and ``terminals[1 + i]`` for each bit ``i`` of ``mask`` (duplicates
    dropped first); entry 0, the root alone, is 0.  Each entry equals
    :func:`dreyfus_wagner`'s cost of that terminal list, bit for bit.
    """
    terminal_list = _checked_terminals(graph, terminals)
    table = _SubsetTable(PathTable(graph), terminal_list)
    return [cost[table.positions[0]] for cost in table.cost]
