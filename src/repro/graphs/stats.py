"""Topology statistics: diameter, radius, degree distribution.

Supporting analysis for the complexity discussions — e.g. Sec. IV-B's
round bound tracks ``max c_ij``, which grows with the network diameter,
and the BADMIN transmission budget in Table II scales with eccentricity.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.errors import DisconnectedGraphError
from repro.graphs.graph import Graph
from repro.graphs.traversal import hop_distances

Node = Hashable


def eccentricities(graph: Graph) -> Dict[Node, int]:
    """Hop eccentricity of every node (max distance to any other node).

    Raises :class:`DisconnectedGraphError` on disconnected graphs.
    """
    if graph.num_nodes == 0:
        return {}
    result: Dict[Node, int] = {}
    for node in graph.nodes():
        hops = hop_distances(graph, node)
        if len(hops) != graph.num_nodes:
            raise DisconnectedGraphError(
                "eccentricity undefined on a disconnected graph"
            )
        result[node] = max(hops.values())
    return result


def diameter(graph: Graph) -> int:
    """Longest shortest hop path in the graph."""
    ecc = eccentricities(graph)
    return max(ecc.values()) if ecc else 0


def radius(graph: Graph) -> int:
    """Smallest eccentricity (the center's reach)."""
    ecc = eccentricities(graph)
    return min(ecc.values()) if ecc else 0


def center(graph: Graph) -> Tuple[Node, ...]:
    """All nodes whose eccentricity equals the radius."""
    ecc = eccentricities(graph)
    if not ecc:
        return ()
    best = min(ecc.values())
    return tuple(node for node, value in ecc.items() if value == best)


def average_degree(graph: Graph) -> float:
    """Mean node degree (``2|E| / |V|``); 0 for the empty graph."""
    if graph.num_nodes == 0:
        return 0.0
    return 2.0 * graph.num_edges / graph.num_nodes


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Map degree → number of nodes with that degree."""
    histogram: Dict[int, int] = {}
    for node in graph.nodes():
        d = graph.degree(node)
        histogram[d] = histogram.get(d, 0) + 1
    return histogram
