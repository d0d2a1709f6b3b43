"""A minimal, dependency-free undirected graph type.

The paper models the network as a connected undirected graph ``G = (V, E)``
(Sec. III-A).  Nodes are arbitrary hashables (grid coordinates, integers);
edges carry an optional float weight (default ``1.0``).  The implementation
is an adjacency map of maps, which keeps neighbor iteration, degree lookup
and edge-weight access O(1) amortized — the operations the caching
algorithms hammer on.

This module is the foundation of the :mod:`repro.graphs` substrate; all the
algorithms in this package (shortest paths, MST, Steiner trees, traversals)
operate on :class:`Graph`.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    ItemsView,
    Iterator,
    Optional,
    Tuple,
)

from repro.errors import EdgeNotFoundError, NodeNotFoundError

Node = Hashable
Edge = Tuple[Node, Node]


class Graph:
    """An undirected graph with weighted edges.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` or ``(u, v, weight)`` tuples used to
        initialize the graph.  Nodes are created implicitly.

    Examples
    --------
    >>> g = Graph([(0, 1), (1, 2, 2.5)])
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.weight(1, 2)
    2.5
    >>> g.degree(1)
    2
    """

    def __init__(self, edges: Optional[Iterable[tuple]] = None) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}
        # The hop forest of :mod:`repro.graphs.forest`, kept while the
        # topology stands: every mutator drops it.
        self._hop_forest: Any = None
        if edges is not None:
            for edge in edges:
                if len(edge) == 2:
                    u, v = edge
                    self.add_edge(u, v)
                elif len(edge) == 3:
                    u, v, w = edge
                    self.add_edge(u, v, w)
                else:
                    raise ValueError(
                        f"edge tuples must have 2 or 3 elements, got {edge!r}"
                    )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph.  Adding an existing node is a no-op."""
        if node not in self._adj:
            self._adj[node] = {}
            self._hop_forest = None

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add every node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add the undirected edge ``(u, v)`` with the given weight.

        Endpoints are created if missing.  Re-adding an edge overwrites its
        weight.  Self-loops are rejected: the network model has no use for
        them and they break degree-based contention accounting.
        """
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u!r})")
        if weight < 0:
            raise ValueError(f"edge weight must be non-negative, got {weight}")
        self.add_node(u)
        self.add_node(v)
        self._hop_forest = None
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``(u, v)``; raise if it does not exist."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._hop_forest = None

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges; raise if missing."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for neighbor in list(self._adj[node]):
            del self._adj[neighbor][node]
        del self._adj[node]
        self._hop_forest = None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of nodes, ``|V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, ``|E|``."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._adj)

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate over undirected edges as ``(u, v, weight)``, each once."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if (v, u) not in seen:
                    seen.add((u, v))
                    yield (u, v, w)

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbors of ``node``."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return iter(self._adj[node])

    def degree(self, node: Node) -> int:
        """Number of neighbors of ``node``.

        In the paper's contention model (Sec. III-C) the node contention
        cost ``w_k`` equals the degree, so this is on the hot path.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return len(self._adj[node])

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return True if the undirected edge ``(u, v)`` exists."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Node, v: Node) -> float:
        """Weight of edge ``(u, v)``; raise if absent."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._adj[u][v]

    def adjacency(self, node: Node) -> Dict[Node, float]:
        """Read-only view (a copy) of ``node``'s neighbor→weight map."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return dict(self._adj[node])

    def neighbor_weights(self, node: Node) -> ItemsView[Node, float]:
        """``node``'s ``(neighbor, weight)`` pairs: a live read-only view.

        Unlike :meth:`adjacency` it copies nothing, so the graph must not
        change while the view is iterated.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return self._adj[node].items()

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep copy of this graph."""
        g = Graph()
        for node in self._adj:
            g.add_node(node)
        for u, v, w in self.edges():
            g.add_edge(u, v, w)
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the induced subgraph on ``nodes``.

        Used by the multi-item baseline extension (Sec. V-B), which
        repeatedly removes exhausted caching nodes and re-runs placement on
        what remains.
        """
        keep = set(nodes)
        missing = keep - set(self._adj)
        if missing:
            raise NodeNotFoundError(next(iter(missing)))
        # Insert in this graph's adjacency order, not set order: the
        # subgraph's node/edge ordering must not vary with hash seeds.
        ordered = [node for node in self._adj if node in keep]
        g = Graph()
        for node in ordered:
            g.add_node(node)
        for u in ordered:
            for v, w in self._adj[u].items():
                if v in keep and not g.has_edge(u, v):
                    g.add_edge(u, v, w)
        return g

    def relabeled(self, mapping: Dict[Node, Node]) -> "Graph":
        """Return a copy with nodes renamed through ``mapping``.

        Nodes absent from ``mapping`` keep their labels.
        """
        g = Graph()
        for node in self._adj:
            g.add_node(mapping.get(node, node))
        for u, v, w in self.edges():
            g.add_edge(mapping.get(u, u), mapping.get(v, v), w)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
