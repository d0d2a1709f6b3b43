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

Every cost row lives in one ``n×n`` float64 matrix, indexed by node
position in graph order; unreachable targets hold ``inf`` and ``c_ii``
holds 0.  Under the default ``"hops"`` policy PATH(i, j) depends only on
the topology, so every source's BFS hop tree is built once, in one numpy
pass over the graph relabelled to positions ``0..n-1``
(:func:`repro.graphs.forest.hop_forest`, the *hop forest*).  Each tree
is laid out in DFS preorder: the subtree below any node ``k`` then
occupies one contiguous *Euler range* ``[tin_k, tout_k)`` of that
source's positions.  The forest is topology-only, so it is kept on the
graph (:func:`repro.graphs.forest.build_forest`): the first tree read
of the first model on a graph builds it, every later model on the same
graph adopts it, and a graph mutator or
:meth:`CostModel.invalidate_topology` drops it.  Rows read only
``tin``/``tout``; a source's parents, hop counts, ``k``-hop prefix and
preorder become dicts and lists of the model's own on the first read
that needs them.

A row is one difference array over the source's Euler positions: node
``k`` adds ``x_k = w_k (1 + S(k))`` over its own range, so one
``cumsum`` yields the summed node costs of every root-to-target path.
The ``x`` vector is maintained, not re-read from storage per row, and
it weights the dissemination graph too: :func:`weighted_topology`
prices edge ``(u, v)`` at ``x_u + x_v``.

A committed chunk changes ``S(k)`` only at the nodes that cached it,
and each such change shifts ``c_ij`` by ``w_k · ΔS(k)`` on exactly the
targets whose path passes through ``k`` — ``k``'s Euler range (minus
the source itself when ``k`` is the source, since ``c_ii`` stays 0).
:meth:`CostModel.invalidate` therefore takes the set of *dirty* nodes
and queues each shift as a range add over every built row; the next
read writes everything queued into one difference array per row (one
vectorised write per dirty node) and applies it with one ``cumsum``.
The argument-free call remains the full-recompute fallback, and
``REPRO_SANITIZE=1`` cross-checks every patch against a fresh build
(:func:`repro.analysis.contracts.check_incremental_cost_rows`).

Every entry is an integer-valued float far below 2^53 (degrees times
occupancies, summed along a path), so summation order cannot change a
bit: a patched row equals a freshly built one exactly.  Under the
``"contention"`` policy storage changes can reroute paths, so its rows
are dropped on every invalidation.  Each is one
:func:`~repro.graphs.steiner.dijkstra_positions` run from its source
over the CSR adjacency with arc ``u → v`` weighted ``x_v``, started at
``x_s``; the run's parent list routes :meth:`CostModel.path`, as the
forest's parent row does under ``"hops"``.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Tuple,
)

import numpy as np

from repro.errors import NodeNotFoundError, NoPathError, ProblemError
from repro.analysis import contracts
from repro.graphs.forest import (
    HopForest,
    build_forest,
    cached_forest,
    csr_adjacency,
    drop_forest,
)
from repro.graphs.graph import Graph
from repro.graphs.steiner import PathRow, dijkstra_positions
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


def weighted_topology(
    graph: Graph, node_costs: np.ndarray, scale: float = 1.0
) -> Graph:
    """A copy of ``graph`` with edge ``(u, v)`` weighted ``scale · (x_u + x_v)``.

    ``node_costs`` holds ``x_k = w_k (1 + S(k))`` by node position in
    graph order (:meth:`CostModel.node_cost_vector`), so each weight is
    the dissemination edge cost ``c_e`` of Algorithm 1 lines 14–16,
    times ``scale``.  Edges go in :meth:`Graph.edges` order: KMB's
    Dijkstra breaks equal-distance ties by the copy's neighbour order,
    which that order fixes.  The only builder of the dissemination
    graph; each call counts one ``costs.weighted_graph_builds``.
    """
    get_recorder().count("costs.weighted_graph_builds")
    nodes = list(graph.nodes())
    x = dict(zip(nodes, node_costs.tolist()))
    weighted = Graph()
    weighted.add_nodes(nodes)
    for u, v, _ in graph.edges():
        weighted.add_edge(u, v, scale * (x[u] + x[v]))
    return weighted


class _HopTree:
    """One source's row of the hop forest, read as dicts and lists.

    Each field is built on its first read, from the forest's matrices.
    """

    def __init__(self, nodes: List[Node], forest: HopForest, row: int) -> None:
        self._nodes = nodes
        self._forest = forest
        self._row = row
        # Row-store positions of the reached nodes, in BFS order.
        self.reach = forest.order[row, : forest.count[row]]
        self._balls: Dict[int, Tuple[List[Node], List[int]]] = {}

    @cached_property
    def keys(self) -> List[Node]:
        """The reached nodes in BFS order."""
        return list(map(self._nodes.__getitem__, self.reach.tolist()))

    @cached_property
    def hops(self) -> Dict[Node, int]:
        """Hop distance of each reached node, in BFS order."""
        hops = self._forest.hops[self._row, self.reach].tolist()
        return dict(zip(self.keys, hops))

    def ball(self, limit: int) -> Tuple[List[Node], List[int]]:
        """The nodes at most ``limit`` hops away, the source excluded, and
        their hop counts, in BFS order; cached per ``limit``.

        BFS order sorts by hop count, so they are a prefix of the row.
        """
        ball = self._balls.get(limit)
        if ball is None:
            hops = self._forest.hops[self._row, self.reach]
            end = int(np.searchsorted(hops, limit, side="right"))
            nodes = self.reach[1:end].tolist()
            ball = (
                list(map(self._nodes.__getitem__, nodes)),
                hops[1:end].tolist(),
            )
            self._balls[limit] = ball
        return ball

    @cached_property
    def preorder(self) -> List[Node]:
        """The reached nodes by Euler position ``tin``."""
        slots = self._forest.tin[self._row, self.reach].tolist()
        preorder = self.keys[:]
        for node, slot in zip(self.keys, slots):
            preorder[slot] = node
        return preorder


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
          itself (an ablation; see ``tests/test_paper_shapes.py``).
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
        self._allocate()

    def _allocate(self) -> None:
        """Size every cache to the graph's current node set."""
        self._nodes: List[Node] = list(self.graph.nodes())
        self._index: Dict[Node, int] = {
            node: position for position, node in enumerate(self._nodes)
        }
        n = len(self._nodes)
        # Topology-only structures, kept until invalidate_topology():
        # the graph's hop forest, adopted on the first tree read, and
        # the per-source trees read from it so far.
        self._forest: Optional[HopForest] = None
        self._hop_trees: Dict[Node, _HopTree] = {}
        # Storage-dependent structures: the row store (valid where
        # ``_built``), the (node position, delta) range adds queued for
        # it, and the contention policy's node-cost arcs and Dijkstra
        # trees, by source position.
        self._matrix = np.empty((n, n))
        self._built = np.zeros(n, dtype=bool)
        self._pending: List[Tuple[int, float]] = []
        self._arcs: Optional[List[List[Tuple[int, float]]]] = None
        self._tree_cache: Dict[int, PathRow] = {}
        self._snapshot_storage()

    def _snapshot_storage(self) -> None:
        """Re-read every ``S(k)`` and the node costs ``x_k`` it implies.

        The snapshot is what the stored rows reflect; deltas against it
        drive the incremental patches.
        """
        used = self.storage.used
        self._used = [used(node) for node in self._nodes]
        degree = self.graph.degree
        self._x = np.array(
            [degree(node) * (1 + s) for node, s in zip(self._nodes, self._used)],
            dtype=float,
        )

    # ------------------------------------------------------------------
    def invalidate(self, dirty_nodes: Optional[Iterable[Node]] = None) -> None:
        """Refresh cached costs after the storage state changed.

        Parameters
        ----------
        dirty_nodes:
            The nodes whose occupancy ``S(k)`` changed since the last
            call.  When given (and the policy is ``"hops"``), each one's
            ``w_k · ΔS(k)`` is queued as a range add over its Euler range
            in every built row — exactly the targets routed through
            ``k``.  ``None`` is the full-recompute fallback: every stored
            row (and, under ``"contention"``, every Dijkstra tree) is
            dropped.  The hop forest is topology-only and survives
            either way.
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
        rows = np.flatnonzero(self._built)
        patched = False
        for node in dirty:
            k = self._index[node]
            used = self.storage.used(node)
            delta_units = used - self._used[k]
            if delta_units == 0:
                continue
            self._used[k] = used
            delta = self.graph.degree(node) * delta_units
            self._x[k] += delta
            if delta and rows.size:
                self._pending.append((k, float(delta)))
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
                    "rows_patched": int(rows.size) if patched else 0,
                },
            )
        if patched and rows.size and contracts.sanitize_enabled():
            self._flush()
            sources = {self._nodes[p]: p for p in rows.tolist()}
            contracts.check_incremental_cost_rows(
                dirty_nodes=dirty,
                patched={
                    source: self._row_dict(source, self._matrix[p])
                    for source, p in sources.items()
                },
                fresh={
                    source: self._row_dict(source, self._build_row(source))
                    for source in sources
                },
            )

    def invalidate_topology(self) -> None:
        """Drop *every* cache, including the topology-only hop forest.

        Call this after mutating the graph itself (adding/removing edges
        or nodes); plain storage changes only need :meth:`invalidate`.
        The graph's own forest is dropped too, so the next tree read
        rebuilds it.
        """
        drop_forest(self.graph)
        self._allocate()
        self.invalidate()

    def _full_invalidate(self) -> None:
        """The blow-everything-away fallback (minus the hop forest)."""
        trace = get_tracer()
        if trace.enabled:
            trace.instant(
                "costs.invalidate",
                track="commit",
                args={
                    "mode": "full",
                    "rows_dropped": int(self._built.sum()),
                    "trees_dropped": len(self._tree_cache),
                },
            )
        self._pending.clear()
        self._built[:] = False
        self._arcs = None
        self._tree_cache.clear()
        self._snapshot_storage()
        get_recorder().count("costs.full_rebuilds")

    def _flush(self) -> None:
        """Apply the queued range adds with one ``cumsum`` per built row.

        Dirty node ``k``'s ``+delta`` covers its Euler range
        ``[tin_k, tout_k)`` of each row's source, starting one slot later
        in ``k``'s own row (``c_ii`` stays 0); a ``k`` outside a source's
        tree has the empty range ``[n, n)``.  Every range goes into one
        difference array per row, in the rows' Euler coordinates.
        """
        rows = np.flatnonzero(self._built)
        forest = self._shared_forest()
        # Every row built: views of the stores, not gathered copies.
        select = slice(None) if len(rows) == len(self._nodes) else rows
        tin = forest.tin[select]
        shift = np.zeros((len(rows), len(self._nodes) + 1))
        at = np.arange(len(rows))
        for k, delta in self._pending:
            shift[at, tin[:, k] + (rows == k)] += delta
            shift[at, forest.tout[rows, k]] -= delta
        self._pending.clear()
        np.cumsum(shift, axis=1, out=shift)
        self._matrix[select] += np.take_along_axis(shift, tin, axis=1)

    def affected_targets(self, source: Node, via: Node) -> frozenset:
        """Targets of ``source`` whose PATH passes through ``via``.

        The dirty region of a single-node occupancy change, as seen from
        one source: exactly the entries of ``source``'s cost row that a
        ``ΔS(via)`` shifts.  Under the ``"hops"`` policy this is ``via``'s
        Euler range in the source's BFS tree (every target but the
        source itself when ``via == source``, since ``c_ii`` stays 0);
        unreachable ``via`` affects nothing.  Under ``"contention"`` a
        storage change can reroute paths, so the conservative answer is
        every reachable target.  The adaptive move evaluator uses this
        to re-price only the demand actually touched by a candidate move.
        """
        if via not in self.graph:
            raise ProblemError(f"node {via!r} is not in the graph")
        if self.path_policy != PATH_POLICY_HOPS:
            row = self._matrix[self._row(source)]
            reach = np.flatnonzero(np.isfinite(row)).tolist()
            return frozenset(map(self._nodes.__getitem__, reach)) - {source}
        preorder = self._hop_tree(source).preorder
        forest = self._shared_forest()
        p = self._index[source]
        k = self._index[via]
        start = forest.tin.item(p, k) + (p == k)
        return frozenset(preorder[start:forest.tout.item(p, k)])

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

        Walks ``source``'s parent array back from ``target``: the hop
        forest's parent row under ``"hops"``, the minimum-contention
        tree's parent list under ``"contention"``.  Raises
        :class:`~repro.errors.NodeNotFoundError` when either node is not
        in the graph, and :class:`~repro.errors.NoPathError` when
        ``target`` is unreachable from ``source``.
        """
        s = self._index.get(source)
        if s is None:
            raise NodeNotFoundError(source)
        at = self._index.get(target)
        if at is None:
            raise NodeNotFoundError(target)
        if s == at:
            return [source]
        if self.path_policy == PATH_POLICY_HOPS:
            self._hop_tree(source)  # counts the tree's first read
            up = self._shared_forest().parent[s].item
        else:
            up = self._contention_tree(s)[1].__getitem__
        nodes = self._nodes
        # Unreached: the forest's ``n``, the Dijkstra's ``-1``.
        if not 0 <= up(at) < len(nodes):
            raise NoPathError(source, target)
        path = [target]
        while at != s:
            at = up(at)
            path.append(nodes[at])
        path.reverse()
        return path

    def contention_cost(self, source: Node, target: Node) -> float:
        """Eq. 2: ``c_ij`` between two nodes (0 when identical).

        One entry of the row store: the same float as
        ``cost_rows([source], [target])[0, 0]``.  Raises
        :class:`~repro.errors.NodeNotFoundError` when either node is not
        in the graph, and :class:`~repro.errors.NoPathError` when
        ``target`` is unreachable from ``source`` (disconnected or
        churned graphs).
        """
        if source == target:
            if source not in self._index:
                raise NodeNotFoundError(source)
            return 0.0
        row = self._row(source)
        column = self._index.get(target)
        if column is None:
            raise NodeNotFoundError(target)
        cost = self._matrix.item(row, column)
        if cost == math.inf:
            raise NoPathError(source, target)
        return cost

    def cost_rows(
        self, sources: Sequence[Node], targets: Sequence[Node]
    ) -> np.ndarray:
        """``c_ij`` for every source × target pair, as a new float64 array.

        Row ``a`` holds ``sources[a]``'s costs to ``targets`` in order;
        unreachable pairs hold ``inf``.
        """
        rows = [self._row(source) for source in sources]
        try:
            columns = [self._index[target] for target in targets]
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None
        return self._matrix[np.ix_(rows, columns)]

    def edge_cost(self, u: Node, v: Node) -> float:
        """Dissemination edge cost ``c_e = c_ij`` for adjacent ``u, v``,
        priced under the configured path policy.

        Every node cost ``w_k (1 + S(k))`` is at least 1 on a connected
        graph, so any detour through an intermediate node costs strictly
        more than the direct edge: under *both* policies PATH(u, v) of two
        adjacent nodes is the edge itself and ``c_e`` equals
        ``w_u (1+S(u)) + w_v (1+S(v))``.  The ``"hops"`` branch uses that
        closed form (BFS from ``u`` discovers its neighbor ``v`` at depth
        1) and returns an ``int``; the ``"contention"`` branch reads the
        ``float`` of :meth:`contention_cost`.  The commit prices a tree's
        edges with it (:func:`~repro.core.commit.price_chunk`), so the
        two types reach the stage costs; the tree itself is built on the
        same closed form from the maintained vector
        (:func:`weighted_topology`).
        """
        if not self.graph.has_edge(u, v):
            raise ProblemError(f"({u!r}, {v!r}) is not an edge")
        if self.path_policy == PATH_POLICY_HOPS:
            return self.node_cost(u) + self.node_cost(v)
        return self.contention_cost(u, v)

    def node_cost_vector(self) -> np.ndarray:
        """The maintained ``x_k = w_k (1 + S(k))``, by node position.

        Every hop row and every dissemination weight reads it;
        :meth:`invalidate` keeps it in step with storage, and under
        ``REPRO_SANITIZE=1`` it is checked against a fresh read
        (``stale-node-costs``).  Callers that keep it must copy it.
        """
        if contracts.sanitize_enabled():
            contracts.check_node_costs(
                nodes=list(self.graph.nodes()),
                maintained=self._x.tolist(),
                fresh=[self.node_cost(node) for node in self.graph.nodes()],
            )
        return self._x

    def contention_weighted_graph(self) -> Graph:
        """A copy of the topology with every edge weighted by ``c_e``.

        This is the graph the dissemination Steiner tree is built on
        (objective term 3 of Eq. 3 / the ``M Σ c_e z_en`` term of Eq. 8):
        :func:`weighted_topology` at scale 1 on the current node costs.
        """
        return weighted_topology(self.graph, self.node_cost_vector())

    # ------------------------------------------------------------------
    def _shared_forest(self) -> HopForest:
        """The graph's hop forest, adopted on the first read.

        The graph keeps one forest for every cost model on it
        (:mod:`repro.graphs.forest`); only a graph without one builds
        it, under the ``costs.hop_forest`` timer.  Under
        ``REPRO_SANITIZE=1`` an adopted forest is checked against the
        graph as it stands.
        """
        forest = self._forest
        if forest is None:
            shared = cached_forest(self.graph)
            if shared is None:
                with get_recorder().timer("costs.hop_forest"):
                    shared = build_forest(self.graph)
            elif contracts.sanitize_enabled():
                nodes = list(self.graph.nodes())
                indptr, indices = csr_adjacency(
                    self.graph,
                    nodes,
                    {node: position for position, node in enumerate(nodes)},
                )
                contracts.check_shared_forest(
                    nodes=len(nodes),
                    forest_nodes=len(shared.forest.count),
                    indptr=shared.indptr.tolist(),
                    indices=shared.indices.tolist(),
                    fresh_indptr=indptr.tolist(),
                    fresh_indices=indices.tolist(),
                )
            if len(shared.forest.count) != len(self._nodes):
                raise ProblemError(
                    "the graph's node set changed under this cost model; "
                    "call invalidate_topology() after mutating the graph"
                )
            forest = self._forest = shared.forest
        return forest

    def _hop_tree(self, source: Node) -> _HopTree:
        """``source``'s hop tree, read off the graph's hop forest.

        The first read of each source's tree counts one
        ``costs.tree_rebuilds``, as a per-source BFS would.
        """
        tree = self._hop_trees.get(source)
        if tree is None:
            row = self._index.get(source)
            if row is None:
                raise NodeNotFoundError(source)
            tree = _HopTree(self._nodes, self._shared_forest(), row)
            self._hop_trees[source] = tree
            get_recorder().count("costs.tree_rebuilds")
        return tree

    def hop_counts(self, source: Node) -> Dict[Node, int]:
        """Hop distance from ``source`` to every reachable node.

        Read off the hop forest, in BFS order.  Like the forest it is
        topology-only: it survives storage invalidation and is dropped by
        :meth:`invalidate_topology`.  The returned dict is the cached one;
        do not mutate it.
        """
        return self._hop_tree(source).hops

    def hop_ball(self, source: Node, limit: int) -> Tuple[List[Node], List[int]]:
        """The nodes within ``limit`` hops of ``source`` (``source``
        itself excluded) and their hop counts, both in BFS order.

        A prefix of :meth:`hop_counts`, kept with the hop tree; the
        returned lists are the cached ones, do not mutate them.
        """
        return self._hop_tree(source).ball(limit)

    def _contention_tree(self, source: int) -> PathRow:
        """The minimum-contention tree from position ``source``.

        One :func:`~repro.graphs.steiner.dijkstra_positions` run over
        the arcs ``u → v`` weighted ``x_v``, started at ``x_s``: each
        distance sums the node costs of its path, endpoints included.
        The costs are integers, so every sum is exact.  Each tree counts
        one ``costs.tree_rebuilds``.
        """
        tree = self._tree_cache.get(source)
        if tree is None:
            if self._arcs is None:
                indptr, indices = csr_adjacency(
                    self.graph, self._nodes, self._index
                )
                x, heads = self._x.tolist(), indices.tolist()
                bounds = indptr.tolist()
                self._arcs = [
                    [(v, x[v]) for v in heads[a:b]]
                    for a, b in zip(bounds, bounds[1:])
                ]
            tree = dijkstra_positions(self._arcs, source, self._x.item(source))
            self._tree_cache[source] = tree
            get_recorder().count("costs.tree_rebuilds")
        return tree

    def _build_row(self, source: Node) -> np.ndarray:
        """A fresh cost row for ``source`` (``inf`` where unreachable)."""
        row_index = self._index[source]
        n = len(self._nodes)
        if self.path_policy == PATH_POLICY_HOPS:
            # x_k over k's Euler range, summed by one cumsum: the entry
            # at tin_j is the node-cost total of the root-to-j path.
            tree = self._hop_tree(source)
            forest = self._shared_forest()
            tin = forest.tin[row_index]
            diff = np.bincount(tin, weights=self._x, minlength=n + 1)
            diff -= np.bincount(
                forest.tout[row_index], weights=self._x, minlength=n + 1
            )
            row = np.cumsum(diff)[tin]
            if len(tree.reach) < n:
                row[tin == n] = math.inf
        else:
            row = np.array(self._contention_tree(row_index)[0])
        row[row_index] = 0.0
        return row

    def _row_dict(self, source: Node, row: np.ndarray) -> Dict[Node, float]:
        """A hop row's reachable entries as a plain dict, in BFS order:
        the form :func:`~repro.analysis.contracts.check_incremental_cost_rows`
        compares."""
        tree = self._hop_tree(source)
        return dict(zip(tree.keys, row[tree.reach].tolist()))

    def _row(self, source: Node) -> int:
        """Row-store index of ``source``: built, with every patch applied."""
        row = self._index.get(source)
        if row is None:
            raise NodeNotFoundError(source)
        if self._pending:
            self._flush()
        if self._built[row]:
            get_recorder().count("costs.row_cache_hits")
            return row
        get_recorder().count("costs.row_builds")
        self._matrix[row] = self._build_row(source)
        self._built[row] = True
        return row
