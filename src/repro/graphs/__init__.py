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
from repro.graphs.mst import kruskal_mst, prim_mst, tree_weight
from repro.graphs.shortest_paths import (
    all_pairs_dijkstra,
    bfs_all_hop_counts,
    bfs_shortest_path,
    bfs_tree,
    dijkstra,
    dijkstra_node_costs,
    floyd_warshall,
    path_from_tree,
)
from repro.graphs.stats import (
    average_degree,
    center,
    degree_histogram,
    diameter,
    eccentricities,
    radius,
)
from repro.graphs.steiner import steiner_tree
from repro.graphs.traversal import (
    bfs_layers,
    bfs_order,
    dfs_order,
    hop_distances,
    k_hop_neighborhood,
)
from repro.graphs.unionfind import UnionFind

__all__ = [
    "Graph",
    "UnionFind",
    "all_pairs_dijkstra",
    "average_degree",
    "balanced_tree",
    "center",
    "bfs_all_hop_counts",
    "bfs_layers",
    "bfs_order",
    "bfs_shortest_path",
    "bfs_tree",
    "complete_graph",
    "connected_components",
    "connected_random_network",
    "cycle_graph",
    "degree_histogram",
    "dfs_order",
    "diameter",
    "eccentricities",
    "dijkstra",
    "dijkstra_node_costs",
    "erdos_renyi_connected",
    "floyd_warshall",
    "grid_coordinates",
    "grid_graph",
    "hop_distances",
    "is_connected",
    "k_hop_neighborhood",
    "kruskal_mst",
    "largest_connected_component",
    "path_from_tree",
    "path_graph",
    "prim_mst",
    "radius",
    "random_geometric_graph",
    "star_graph",
    "steiner_tree",
    "tree_weight",
]
