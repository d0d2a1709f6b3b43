"""Network-topology generators matching the paper's simulation scenarios.

Sec. V-A evaluates on two families:

* **Grid networks** — "all nodes can connect to other four neighbors except
  those on the network boundary": :func:`grid_graph`.
* **Random networks** — "nodes within a certain range are connected, and
  [we] make sure the random network is a connected graph":
  :func:`random_geometric_graph` with ``ensure_connected=True``.

Nodes are labelled with consecutive integers (row-major for grids) so the
paper's "node 9 is the data producer" convention maps directly.  Extra
canonical topologies (path, ring, star, complete, balanced tree) support
tests and ablations.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph

#: Default RNG seed (the paper's evaluation-year convention); every
#: generator is deterministic even when the caller passes no seed.
DEFAULT_SEED = 2017


def grid_graph(rows: int, cols: Optional[int] = None) -> Graph:
    """A ``rows × cols`` 4-neighbor grid with integer row-major labels.

    ``grid_graph(6)`` builds the paper's 6×6 grid; node ``r * cols + c``
    sits at row ``r``, column ``c``.
    """
    if cols is None:
        cols = rows
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    graph = Graph()
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            graph.add_node(node)
            if c + 1 < cols:
                graph.add_edge(node, node + 1)
            if r + 1 < rows:
                graph.add_edge(node, node + cols)
    return graph


def grid_coordinates(rows: int, cols: Optional[int] = None) -> dict:
    """Map each grid node label to its ``(row, col)`` coordinate."""
    if cols is None:
        cols = rows
    return {r * cols + c: (r, c) for r in range(rows) for c in range(cols)}


def random_geometric_graph(
    num_nodes: int,
    radius: float,
    seed: int = DEFAULT_SEED,
    area: float = 1.0,
    ensure_connected: bool = True,
    max_attempts: int = 200,
) -> Tuple[Graph, dict]:
    """Random geometric graph: nodes uniform in a square, edges within range.

    Parameters
    ----------
    num_nodes:
        Number of nodes (labelled ``0..num_nodes-1``).
    radius:
        Communication range; two nodes are connected iff their Euclidean
        distance is at most ``radius``.
    area:
        Side length of the deployment square.
    ensure_connected:
        Redraw positions until the graph is connected (the paper requires
        connected random networks).  Raises :class:`GraphError` after
        ``max_attempts`` failures — pick a larger radius in that case.

    Returns
    -------
    (graph, positions):
        The graph and a ``node -> (x, y)`` position map.

    Each attempt is one numpy range mask, tested for connectivity as it
    stands; only the accepted draw becomes a :class:`Graph`.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not (math.isfinite(area) and area > 0):
        raise ValueError(f"area must be positive and finite, got {area}")
    rng = random.Random(seed)
    r2 = radius * radius
    dist2 = np.empty((num_nodes, num_nodes))
    dy = np.empty_like(dist2)
    for _ in range(max_attempts):
        positions = {
            i: (rng.uniform(0, area), rng.uniform(0, area)) for i in range(num_nodes)
        }
        within = _within_range(positions, r2, dist2, dy)
        if not ensure_connected or _mask_connected(within):
            return _range_graph(within), positions
    raise GraphError(
        f"could not draw a connected geometric graph in {max_attempts} attempts "
        f"(n={num_nodes}, radius={radius}, area={area}); increase the radius"
    )


def _within_range(
    positions: dict, r2: float, dist2: np.ndarray, dy: np.ndarray
) -> np.ndarray:
    """The ``n × n`` mask ``dx*dx + dy*dy <= r2`` over nodes ``0..n-1``.

    The same float64 operations as a scalar pair test, so the two agree
    bit for bit.  ``dist2`` and ``dy`` are ``n × n`` float scratch
    buffers, reused by every attempt of a draw.
    """
    x, y = np.array(list(positions.values()), dtype=np.float64).T
    np.subtract.outer(x, x, out=dist2)
    np.multiply(dist2, dist2, out=dist2)
    np.subtract.outer(y, y, out=dy)
    np.multiply(dy, dy, out=dy)
    dist2 += dy
    return dist2 <= r2


def _mask_connected(within: np.ndarray) -> bool:
    """True if the range mask joins every node (frontier BFS from node 0)."""
    seen = np.zeros(len(within), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = within[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _range_graph(within: np.ndarray) -> Graph:
    """The graph of a range mask, edges added in row-major pair order.

    Nodes ``0..n-1`` first, then one ``add_edge(u, v)`` per pair
    ``u < v`` in range, ``u`` ascending and ``v`` ascending within it.
    """
    graph = Graph()
    graph.add_nodes(range(len(within)))
    rows, cols = np.nonzero(np.triu(within, 1))
    for u, v in zip(rows.tolist(), cols.tolist()):
        graph.add_edge(u, v)
    return graph


def connected_random_network(
    num_nodes: int, seed: int = DEFAULT_SEED, degree_target: float = 5.0
) -> Tuple[Graph, dict]:
    """A connected random network with a radius auto-sized to the node count.

    Chooses the communication radius so the expected node degree is about
    ``degree_target`` (comparable to the grid's interior degree of 4), then
    grows it until connectivity is reached.  This is the generator the
    random-network experiments (Figs. 4, 7b) use for 20–180 node sweeps.

    Every radius step reseeds with the same ``seed``, so each step redraws
    the same 20 position sets and only the radius differs.  Fresh
    positions per step would move every pinned random topology.
    """
    if num_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {num_nodes}")
    if not (math.isfinite(degree_target) and degree_target > 0):
        raise ValueError(
            f"degree_target must be positive and finite, got {degree_target}"
        )
    # Expected degree in a unit square is ~ n * pi * r^2; solve for r.
    radius = math.sqrt(degree_target / (num_nodes * math.pi))
    for _ in range(30):
        try:
            return random_geometric_graph(
                num_nodes, radius, seed=seed, ensure_connected=True,
                max_attempts=20,
            )
        except GraphError:
            radius *= 1.25
    raise GraphError(f"failed to build a connected random network (n={num_nodes})")


def path_graph(num_nodes: int) -> Graph:
    """A simple path ``0 - 1 - ... - (n-1)``."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    graph = Graph()
    graph.add_node(0)
    for i in range(num_nodes - 1):
        graph.add_edge(i, i + 1)
    return graph


def cycle_graph(num_nodes: int) -> Graph:
    """A ring of ``num_nodes`` nodes (needs at least 3)."""
    if num_nodes < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    graph = path_graph(num_nodes)
    graph.add_edge(num_nodes - 1, 0)
    return graph


def star_graph(num_leaves: int) -> Graph:
    """A star: hub ``0`` connected to leaves ``1..num_leaves``."""
    if num_leaves < 1:
        raise ValueError("a star needs at least one leaf")
    graph = Graph()
    for leaf in range(1, num_leaves + 1):
        graph.add_edge(0, leaf)
    return graph


def complete_graph(num_nodes: int) -> Graph:
    """The complete graph on ``num_nodes`` nodes."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    graph = Graph()
    graph.add_node(0)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            graph.add_edge(i, j)
    return graph


def balanced_tree(branching: int, depth: int) -> Graph:
    """A rooted balanced tree with the given branching factor and depth."""
    if branching < 1 or depth < 0:
        raise ValueError("branching must be >= 1 and depth >= 0")
    graph = Graph()
    graph.add_node(0)
    frontier: List[int] = [0]
    next_label = 1
    for _ in range(depth):
        new_frontier: List[int] = []
        for parent in frontier:
            for _ in range(branching):
                graph.add_edge(parent, next_label)
                new_frontier.append(next_label)
                next_label += 1
        frontier = new_frontier
    return graph


def erdos_renyi_connected(
    num_nodes: int, edge_prob: float, seed: int = DEFAULT_SEED
) -> Graph:
    """A connected Erdős–Rényi graph (extra edges added to join components).

    Draws G(n, p), then stitches any remaining components together with
    random bridging edges, keeping the result usable for property tests
    that need arbitrary connected topologies.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must be in [0, 1]")
    rng = random.Random(seed)
    graph = Graph()
    graph.add_nodes(range(num_nodes))
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_prob:
                graph.add_edge(i, j)
    components = connected_components(graph)
    while len(components) > 1:
        a = rng.choice(sorted(components[0]))
        b = rng.choice(sorted(components[1]))
        graph.add_edge(a, b)
        components = connected_components(graph)
    return graph
