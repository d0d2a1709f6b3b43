"""The paper's cost model: Fairness Degree Cost and Contention Cost.

Implements Sec. III-B and III-C:

* **Fairness Degree Cost** (Eq. 1)::

      f_i = S(i) / (S_tot(i) - S(i))

  0 when empty, ∞ when full — a "penalty the network must pay" to cache on
  a loaded node.

* **Node Contention Cost** ``w_k`` — the node's degree (each cached chunk
  is sent to every neighbor, so transmissions through ``k`` scale with its
  degree).

* **Path Contention Cost** (Eq. 2)::

      c_ij = Σ_{k ∈ PATH(i,j)} w_k · (1 + S(k))

  summed over *every* node of the shortest path between ``i`` and ``j``
  (endpoints included), where already-cached chunks ``S(k)`` inflate the
  contention.  ``c_ii`` is defined as 0: a local cache hit transmits
  nothing.

:class:`CostModel` binds a graph + storage state and serves these costs
with caching keyed on a storage version counter, since Algorithm 1
recomputes all ``c_ij`` after every chunk placement (lines 5–16).

Incremental recomputation
-------------------------

Under the default ``"hops"`` policy PATH(i, j) depends only on the
topology, so the per-source BFS hop trees (and their child adjacency)
survive storage changes unconditionally.  A committed chunk changes
``S(k)`` only at the nodes that cached it, and each such change shifts a
cached cost row by a constant ``w_k · ΔS(k)`` on exactly the targets
whose tree path passes through ``k`` — the subtree below ``k`` (or every
target, when ``k`` is the row's source).  :meth:`invalidate` therefore
accepts the set of *dirty* nodes and patches the retained rows in place
instead of rebuilding the full ``c_ij`` matrix; the argument-free call
remains the full-recompute fallback, and ``REPRO_SANITIZE=1``
cross-checks every patch against a fresh rebuild
(:func:`repro.analysis.contracts.check_incremental_cost_rows`).

Because all node costs are integers (degree × occupancy), patched sums
are exact in float64: a patched row equals a freshly rebuilt one bit for
bit.  Under the ``"contention"`` policy storage changes can reroute
paths, so dirty invalidation falls back to the full drop there.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, TYPE_CHECKING, Tuple

from repro.errors import NodeNotFoundError, NoPathError, ProblemError
from repro.analysis import contracts
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_tree, dijkstra_node_costs, path_from_tree
from repro.core.storage import StorageState
from repro.obs import get_recorder, get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.resources import BatteryState

Node = Hashable

PATH_POLICY_HOPS = "hops"
PATH_POLICY_CONTENTION = "contention"


def fairness_degree_cost(used: int, capacity: int) -> float:
    """Eq. 1: ``f = S / (S_tot - S)``; ``inf`` when full, 0 when empty.

    Raises :class:`ProblemError` on invalid occupancy.
    """
    if capacity < 0 or used < 0 or used > capacity:
        raise ProblemError(f"invalid occupancy used={used}, capacity={capacity}")
    remaining = capacity - used
    if remaining == 0:
        return math.inf
    return used / remaining


def node_contention_cost(graph: Graph, node: Node) -> int:
    """``w_k``: the degree of ``node`` (Sec. III-C's estimation)."""
    return graph.degree(node)


def path_contention_cost(
    graph: Graph, path: List[Node], storage: StorageState
) -> float:
    """Eq. 2 evaluated on an explicit node path (endpoints included)."""
    if len(path) <= 1:
        return 0.0
    return float(
        sum(graph.degree(k) * (1 + storage.used(k)) for k in path)
    )


class CostModel:
    """Serves fairness and contention costs for a (graph, storage) pair.

    Parameters
    ----------
    graph:
        Network topology.
    storage:
        Live storage state; the model reads it lazily, so callers mutate
        storage and then call :meth:`invalidate` (or use
        :class:`~repro.core.problem.ProblemState`, which does it for them
        — passing the mutated nodes through as ``dirty_nodes`` so cached
        cost rows are delta-patched instead of rebuilt).
    path_policy:
        How PATH(i, j) of Eq. 2 is chosen:

        * ``"hops"`` (default) — minimum-hop path (Sec. V-A: data goes
          "through the shortest hop path"), ties broken deterministically
          by BFS order;
        * ``"contention"`` — path minimizing the summed node contention
          itself (an ablation; see benchmarks).
    battery / battery_weight:
        Optional :class:`~repro.core.resources.BatteryState`; when given,
        :meth:`fairness_cost` returns the weighted sum of the storage and
        battery Fairness Degree Costs (footnote 1 of the paper).
    """

    def __init__(
        self,
        graph: Graph,
        storage: StorageState,
        path_policy: str = PATH_POLICY_HOPS,
        battery: Optional["BatteryState"] = None,
        battery_weight: float = 1.0,
    ) -> None:
        if path_policy not in (PATH_POLICY_HOPS, PATH_POLICY_CONTENTION):
            raise ProblemError(f"unknown path policy {path_policy!r}")
        if battery_weight < 0:
            raise ProblemError("battery_weight must be non-negative")
        self.graph = graph
        self.storage = storage
        self.path_policy = path_policy
        self.battery = battery
        self.battery_weight = battery_weight
        self._version = 0
        # Topology-only structures: BFS hop trees and their child lists.
        # They survive every storage invalidation (only
        # :meth:`invalidate_topology` drops them).
        self._path_cache: Dict[Node, Dict[Node, Node]] = {}
        self._children_cache: Dict[Node, Dict[Node, List[Node]]] = {}
        self._hops_cache: Dict[Node, Dict[Node, int]] = {}
        # Storage-dependent structures, dropped (or patched) on invalidate.
        self._tree_cache: Dict[
            Node, Tuple[Dict[Node, float], Dict[Node, Node]]
        ] = {}
        self._cost_cache: Dict[Node, Dict[Node, float]] = {}
        # The S(k) values the cached cost rows reflect; deltas against it
        # drive the incremental patches.
        self._used_snapshot: Dict[Node, int] = {
            node: storage.used(node) for node in graph.nodes()
        }

    # ------------------------------------------------------------------
    def invalidate(self, dirty_nodes: Optional[Iterable[Node]] = None) -> None:
        """Refresh cached costs after the storage state changed.

        Parameters
        ----------
        dirty_nodes:
            The nodes whose occupancy ``S(k)`` changed since the last
            call.  When given (and the policy is ``"hops"``), cached cost
            rows are patched in place by adding ``w_k · ΔS(k)`` to every
            target routed through ``k`` — the retained BFS trees tell us
            exactly which ones.  ``None`` is the full-recompute fallback:
            every cached row (and, under ``"contention"``, every Dijkstra
            tree) is dropped.  The hop trees themselves are topology-only
            and survive either way.
        """
        self._version += 1
        recorder = get_recorder()
        recorder.count("costs.invalidations")
        if dirty_nodes is None:
            self._full_invalidate()
            return
        dirty: List[Node] = []
        for node in dirty_nodes:
            if node not in self.graph:
                raise ProblemError(f"dirty node {node!r} is not in the graph")
            dirty.append(node)
        if self.path_policy != PATH_POLICY_HOPS:
            # A storage delta can reroute minimum-contention paths, so
            # every cached Dijkstra tree and cost row is suspect.
            self._full_invalidate()
            return
        patched = False
        for node in dirty:
            used = self.storage.used(node)
            delta_units = used - self._used_snapshot[node]
            if delta_units == 0:
                continue
            self._used_snapshot[node] = used
            delta = float(self.graph.degree(node) * delta_units)
            if delta:
                for source, row in self._cost_cache.items():
                    self._patch_row(source, row, node, delta)
            patched = True
            recorder.count("costs.incremental_patches")
        trace = get_tracer()
        if trace.enabled:
            trace.instant(
                "costs.invalidate",
                track="commit",
                args={
                    "mode": "incremental",
                    "dirty": sorted(str(node) for node in dirty),
                    "rows_patched": len(self._cost_cache) if patched else 0,
                },
            )
        if patched and self._cost_cache and contracts.sanitize_enabled():
            contracts.check_incremental_cost_rows(
                dirty_nodes=dirty,
                patched=self._cost_cache,
                fresh={
                    source: self._build_row(source)
                    for source in self._cost_cache
                },
            )

    def invalidate_topology(self) -> None:
        """Drop *every* cache, including the topology-only BFS hop trees.

        Call this after mutating the graph itself (adding/removing edges
        or nodes); plain storage changes only need :meth:`invalidate`.
        """
        self._path_cache.clear()
        self._children_cache.clear()
        self._hops_cache.clear()
        self.invalidate()

    def _full_invalidate(self) -> None:
        """The blow-everything-away fallback (minus the hop trees)."""
        trace = get_tracer()
        if trace.enabled:
            trace.instant(
                "costs.invalidate",
                track="commit",
                args={
                    "mode": "full",
                    "rows_dropped": len(self._cost_cache),
                    "trees_dropped": len(self._tree_cache),
                },
            )
        self._cost_cache.clear()
        self._tree_cache.clear()
        used = self.storage.used
        self._used_snapshot = {node: used(node) for node in self.graph.nodes()}
        get_recorder().count("costs.full_rebuilds")

    def _patch_row(
        self, source: Node, row: Dict[Node, float], dirty: Node, delta: float
    ) -> None:
        """Add ``delta`` to every entry of ``row`` routed through ``dirty``.

        ``row`` is the cached cost row of ``source``; the affected targets
        are the subtree below ``dirty`` in the source's BFS tree (every
        target except the source itself when ``dirty == source`` — paths
        always include their source, but ``c_ii`` stays 0).
        """
        if dirty == source:
            for target in row:
                if target != source:
                    row[target] += delta
            return
        if dirty not in self._hop_tree(source):
            return  # unreachable from this source: no path uses it
        children = self._children_of(source)
        stack = [dirty]
        while stack:
            node = stack.pop()
            row[node] += delta
            stack.extend(children.get(node, ()))

    def affected_targets(self, source: Node, via: Node) -> frozenset:
        """Targets of ``source`` whose PATH passes through ``via``.

        The dirty region of a single-node occupancy change, as seen from
        one source: exactly the entries of ``source``'s cost row that a
        ``ΔS(via)`` shifts.  Under the ``"hops"`` policy this is the BFS
        subtree below ``via`` (every target but the source itself when
        ``via == source``, since ``c_ii`` stays 0); unreachable ``via``
        affects nothing.  Under ``"contention"`` a storage change can
        reroute paths, so the conservative answer is every reachable
        target.  The adaptive move evaluator uses this to re-price only
        the demand actually touched by a candidate move.
        """
        if via not in self.graph:
            raise ProblemError(f"node {via!r} is not in the graph")
        if self.path_policy != PATH_POLICY_HOPS:
            return frozenset(
                node for node in self._all_costs_from(source) if node != source
            )
        tree = self._hop_tree(source)
        if via == source:
            return frozenset(node for node in tree if node != source)
        if via not in tree:
            return frozenset()
        children = self._children_of(source)
        affected = []
        stack = [via]
        while stack:
            node = stack.pop()
            affected.append(node)
            stack.extend(children.get(node, ()))
        return frozenset(affected)

    def fairness_cost(self, node: Node) -> float:
        """Eq. 1 for ``node``, plus the weighted battery term (footnote 1)
        when a battery model is attached; ``inf`` for the producer."""
        if node == self.storage.producer:
            return math.inf
        storage_cost = fairness_degree_cost(
            self.storage.used(node), self.storage.capacity(node)
        )
        if self.battery is None:
            return storage_cost
        return storage_cost + self.battery_weight * self.battery.fairness_cost(node)

    def node_cost(self, node: Node) -> float:
        """Per-node term of Eq. 2: ``w_k (1 + S(k))``."""
        return self.graph.degree(node) * (1 + self.storage.used(node))

    # ------------------------------------------------------------------
    def path(self, source: Node, target: Node) -> List[Node]:
        """PATH(source, target) under the configured policy.

        Raises :class:`~repro.errors.NoPathError` when ``target`` is
        unreachable from ``source``.
        """
        if source == target:
            return [source]
        if self.path_policy == PATH_POLICY_HOPS:
            parents = self._hop_tree(source)
            return path_from_tree(parents, source, target)
        _, parents = self._contention_tree(source)
        return path_from_tree(parents, source, target)

    def contention_cost(self, source: Node, target: Node) -> float:
        """Eq. 2: ``c_ij`` between two nodes (0 when identical).

        Raises :class:`~repro.errors.NoPathError` when ``target`` is
        unreachable from ``source`` (disconnected or churned graphs), and
        :class:`~repro.errors.NodeNotFoundError` when ``target`` is not a
        node at all.
        """
        if source == target:
            return 0.0
        cached = self._cost_cache.get(source)
        if cached is not None and target in cached:
            get_recorder().count("costs.row_cache_hits")
            return cached[target]
        costs = self._all_costs_from(source)
        try:
            return costs[target]
        except KeyError:
            if target not in self.graph:
                raise NodeNotFoundError(target) from None
            raise NoPathError(source, target) from None

    def all_contention_costs(self, source: Node) -> Dict[Node, float]:
        """``c_ij`` from ``source`` to every reachable node (``c_ii = 0``)."""
        return dict(self._all_costs_from(source))

    def cost_matrix(self) -> Dict[Node, Dict[Node, float]]:
        """Full ``c_ij`` matrix (Algorithm 1, lines 8–13)."""
        return {node: self.all_contention_costs(node) for node in self.graph.nodes()}

    def edge_cost(self, u: Node, v: Node) -> float:
        """Dissemination edge cost ``c_e = c_ij`` for adjacent ``u, v``,
        priced under the configured path policy.

        Every node cost ``w_k (1 + S(k))`` is at least 1 on a connected
        graph, so any detour through an intermediate node costs strictly
        more than the direct edge: under *both* policies PATH(u, v) of two
        adjacent nodes is the edge itself and ``c_e`` equals
        ``w_u (1+S(u)) + w_v (1+S(v))``.  The ``"hops"`` branch uses that
        closed form (BFS from ``u`` discovers its neighbor ``v`` at depth
        1); the ``"contention"`` branch routes through
        :meth:`contention_cost` so Eq. 2 and the dissemination weights
        agree by construction even if a future cost extension voids the
        argument above.
        """
        if not self.graph.has_edge(u, v):
            raise ProblemError(f"({u!r}, {v!r}) is not an edge")
        if self.path_policy == PATH_POLICY_HOPS:
            return self.node_cost(u) + self.node_cost(v)
        return self.contention_cost(u, v)

    def contention_weighted_graph(self) -> Graph:
        """A copy of the topology with every edge weighted by ``c_e``.

        This is the graph the dissemination Steiner tree is built on
        (objective term 3 of Eq. 3 / the ``M Σ c_e z_en`` term of Eq. 8).
        """
        get_recorder().count("costs.weighted_graph_builds")
        weighted = Graph()
        weighted.add_nodes(self.graph.nodes())
        for u, v, _ in self.graph.edges():
            weighted.add_edge(u, v, self.edge_cost(u, v))
        return weighted

    # ------------------------------------------------------------------
    def _hop_tree(self, source: Node) -> Dict[Node, Node]:
        tree = self._path_cache.get(source)
        if tree is None:
            tree = bfs_tree(self.graph, source)
            self._path_cache[source] = tree
            get_recorder().count("costs.tree_rebuilds")
        return tree

    def _children_of(self, source: Node) -> Dict[Node, List[Node]]:
        """Child lists of the BFS tree rooted at ``source`` (cached)."""
        children = self._children_cache.get(source)
        if children is None:
            children = {}
            for node, parent in self._hop_tree(source).items():
                if node != source:
                    children.setdefault(parent, []).append(node)
            self._children_cache[source] = children
        return children

    def hop_counts(self, source: Node) -> Dict[Node, int]:
        """Hop distance from ``source`` to every reachable node.

        Read off the cached BFS tree, in its (breadth-first) order.  Like
        the tree it is topology-only: it survives storage invalidation and
        is dropped by :meth:`invalidate_topology`.  The returned dict is
        the cached one; do not mutate it.
        """
        hops = self._hops_cache.get(source)
        if hops is None:
            hops = {}
            for node, parent in self._hop_tree(source).items():
                hops[node] = 0 if node == source else hops[parent] + 1
            self._hops_cache[source] = hops
        return hops

    def _contention_tree(
        self, source: Node
    ) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
        cached = self._tree_cache.get(source)
        if cached is None:
            cached = dijkstra_node_costs(
                self.graph, source, self.node_cost, include_source=True
            )
            self._tree_cache[source] = cached
            get_recorder().count("costs.tree_rebuilds")
        return cached

    def _build_row(self, source: Node) -> Dict[Node, float]:
        """A fresh cost row for ``source`` from the current storage."""
        if self.path_policy == PATH_POLICY_HOPS:
            children = self._children_of(source)
            # Walk the BFS tree accumulating node costs root-to-leaf.
            costs: Dict[Node, float] = {source: 0.0}
            stack = [(source, self.node_cost(source))]
            while stack:
                node, acc = stack.pop()
                for child in children.get(node, ()):
                    total = acc + self.node_cost(child)
                    costs[child] = total
                    stack.append((child, total))
            return costs
        dist, _ = self._contention_tree(source)
        return {
            node: (0.0 if node == source else value)
            for node, value in dist.items()
        }

    def _all_costs_from(self, source: Node) -> Dict[Node, float]:
        cached = self._cost_cache.get(source)
        if cached is not None:
            get_recorder().count("costs.row_cache_hits")
            return cached
        get_recorder().count("costs.row_builds")
        costs = self._build_row(source)
        self._cost_cache[source] = costs
        return costs
