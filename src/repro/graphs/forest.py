"""Every source's BFS tree at once: the all-source hop forest.

The cost model of Eq. 2 routes each ``c_ij`` over a minimum-hop path
and lays each source's BFS tree out in DFS preorder (its *Euler
ranges*, see :mod:`repro.core.costs`).  :func:`hop_forest` builds those
trees for every source in one level-synchronous numpy pass over the
graph relabelled to positions ``0..n-1``, with neighbours in CSR form
(one flat array of neighbour positions plus per-node offsets, in
adjacency order).

Each tree equals the one a FIFO BFS grows from the same source (the
tests' ``bfs_tree`` oracle): such a BFS hands every node to its *first
discoverer*, so a level's nodes, their BFS order and their parents are
the first occurrences of ``(source, node)`` in the frontier's neighbour
lists, concatenated in queue order.  Siblings are discovered
consecutively, so each one's Euler range starts right after its
parent's slot plus the subtree sizes of the siblings before it: a
grouped exclusive cumsum per level.

Every matrix is ``n × n`` (row = source, column = node position) in
the narrowest unsigned type that holds ``n``, which marks a node
outside the source's tree.

The forest depends only on the topology, so it belongs to the graph:
:func:`build_forest` keeps it on the :class:`~repro.graphs.graph.Graph`
it was built from (node positions in graph order), where every cost
model on that graph finds it through :func:`cached_forest`, until a
mutator of the graph or :func:`drop_forest` drops it.  The entry holds
no reference to its graph, so it dies with the graph by reference
counting alone.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph, Node


class HopForest(NamedTuple):
    """Every source's BFS tree over node positions (row = source)."""

    order: np.ndarray  # row s: the reached positions in BFS order, then n
    count: np.ndarray  # how many positions each source reaches
    parent: np.ndarray  # BFS parent (the source's own: itself)
    hops: np.ndarray  # hop distance from the source
    tin: np.ndarray  # Euler range start: slot in DFS preorder
    tout: np.ndarray  # Euler range end: tin plus the subtree size


class SharedForest(NamedTuple):
    """A graph's hop forest and the CSR adjacency it was built from."""

    indptr: np.ndarray
    indices: np.ndarray
    forest: HopForest


def cached_forest(graph: Graph) -> Optional[SharedForest]:
    """The forest kept on ``graph``, or ``None`` if it has none."""
    entry: Optional[SharedForest] = graph._hop_forest
    return entry


def build_forest(graph: Graph) -> SharedForest:
    """Build ``graph``'s hop forest and keep it on the graph."""
    nodes = list(graph.nodes())
    index = {node: position for position, node in enumerate(nodes)}
    indptr, indices = csr_adjacency(graph, nodes, index)
    entry = SharedForest(indptr, indices, hop_forest(indptr, indices))
    graph._hop_forest = entry
    return entry


def drop_forest(graph: Graph) -> None:
    """Forget the forest kept on ``graph``; the next read rebuilds it."""
    graph._hop_forest = None


def csr_adjacency(
    graph: Graph, nodes: Sequence[Node], index: Dict[Node, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """``graph``'s neighbour lists as CSR ``(indptr, indices)`` arrays.

    Node ``nodes[p]``'s neighbours, in adjacency order, are the
    positions ``indices[indptr[p]:indptr[p + 1]]``.
    """
    indptr = np.zeros(len(nodes) + 1, dtype=np.intp)
    np.cumsum([graph.degree(node) for node in nodes], out=indptr[1:])
    indices = np.fromiter(
        (index[v] for node in nodes for v in graph.neighbors(node)),
        dtype=np.intp,
        count=int(indptr[-1]),
    )
    return indptr, indices


def hop_forest(indptr: np.ndarray, indices: np.ndarray) -> HopForest:
    """The BFS tree of every source of the CSR graph ``(indptr, indices)``."""
    n = len(indptr) - 1
    positions = np.min_scalar_type(n)  # the narrowest type holding n
    order = np.full((n, n), n, dtype=positions)
    parent = np.full((n, n), n, dtype=positions)
    hops = np.full((n, n), n, dtype=positions)
    flat_parent = parent.reshape(-1)
    flat_hops = hops.reshape(-1)
    # (source, node) pairs are flat keys ``source * n + node``.
    seen = np.zeros(n * n, dtype=bool)
    # The first candidate slot of each key; a key is claimed only on the
    # level that reaches it, so the array is never reset.
    claim = np.full(n * n, np.iinfo(np.intp).max, dtype=np.intp)
    count = np.ones(n, dtype=np.intp)

    sources = np.arange(n)
    roots = sources * (n + 1)
    seen[roots] = True
    flat_parent[roots] = sources
    flat_hops[roots] = 0
    order[:, 0] = sources
    # Each level's keys in BFS order, for the Euler pass.
    levels: List[np.ndarray] = []
    frontier = roots
    while True:
        frontier_s, frontier_v = np.divmod(frontier, n)
        start = indptr[frontier_v]
        degree = indptr[frontier_v + 1] - start
        ends = np.cumsum(degree)
        total = int(ends[-1]) if n else 0
        if total == 0:
            break
        # The frontier's neighbour lists, concatenated in queue order.
        slot = np.repeat(start - (ends - degree), degree)
        slot += np.arange(total)
        cand = indices[slot]
        cand += np.repeat(frontier - frontier_v, degree)
        fresh = np.flatnonzero(~seen[cand])
        if not fresh.size:
            break
        cand = cand[fresh]
        # A key's first occurrence is its node's first discoverer.
        rank = np.arange(cand.size)
        np.minimum.at(claim, cand, rank)
        first = np.flatnonzero(claim[cand] == rank)
        new = cand[first]
        seen[new] = True
        flat_parent[new] = frontier_v[np.searchsorted(ends, fresh[first], "right")]
        flat_hops[new] = len(levels) + 1
        # Sources stay sorted, so each source's new nodes are one run.
        new_s, new_v = np.divmod(new, n)
        reached = np.bincount(new_s, minlength=n)
        run_start = np.cumsum(reached) - reached
        order[new_s, count[new_s] + rank[: new.size] - run_start[new_s]] = new_v
        count += reached
        levels.append(new)
        frontier = new

    # Subtree sizes leaves-up, then Euler ranges root-down.  A level's
    # children of one parent are one run of its keys, in BFS order.
    size = np.ones(n * n, dtype=np.intp)
    runs = []
    for new in reversed(levels):
        up = new - new % n + flat_parent[new]
        bounds = np.flatnonzero(np.r_[True, up[1:] != up[:-1]])
        sub = size[new]
        size[up[bounds]] += np.add.reduceat(sub, bounds)
        runs.append((new, up, bounds, sub))
    tin = np.full(n * n, n, dtype=np.intp)
    tin[roots] = 0
    for new, up, bounds, sub in reversed(runs):
        # Each child starts after its parent's slot and the subtrees of
        # the siblings before it: an exclusive cumsum within its run.
        before = np.cumsum(sub) - sub
        before -= np.repeat(before[bounds], np.diff(np.r_[bounds, new.size]))
        tin[new] = tin[up] + 1 + before
    tout = np.where(tin < n, tin + size, n)
    return HopForest(
        order=order,
        count=count,
        parent=parent,
        hops=hops,
        tin=tin.astype(positions).reshape(n, n),
        tout=tout.astype(positions).reshape(n, n),
    )
