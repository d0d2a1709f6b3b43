"""Graph substrate: types, algorithms and generators used by the caching stack.

Everything here is implemented from scratch (no networkx dependency) so the
library is a self-contained reproduction; see DESIGN.md §2.
"""

from repro.graphs.components import (
    connected_components,
    is_connected,
    largest_connected_component,
)
from repro.graphs.generators import (
    balanced_tree,
    complete_graph,
    connected_random_network,
    cycle_graph,
    erdos_renyi_connected,
    grid_coordinates,
    grid_graph,
    path_graph,
    random_geometric_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.mst import kruskal_mst, tree_weight
from repro.graphs.stats import (
    average_degree,
    center,
    degree_histogram,
    diameter,
    eccentricities,
    radius,
)
from repro.graphs.steiner import steiner_tree
from repro.graphs.traversal import bfs_order, hop_distances, k_hop_neighborhood
from repro.graphs.unionfind import UnionFind

__all__ = [
    "Graph",
    "UnionFind",
    "average_degree",
    "balanced_tree",
    "center",
    "bfs_order",
    "complete_graph",
    "connected_components",
    "connected_random_network",
    "cycle_graph",
    "degree_histogram",
    "diameter",
    "eccentricities",
    "erdos_renyi_connected",
    "grid_coordinates",
    "grid_graph",
    "hop_distances",
    "is_connected",
    "k_hop_neighborhood",
    "kruskal_mst",
    "largest_connected_component",
    "path_graph",
    "radius",
    "random_geometric_graph",
    "star_graph",
    "steiner_tree",
    "tree_weight",
]
