"""Multi-start local search to (near-)optimality for one chunk's ConFL.

For a *fixed* cache set ``A`` the rest of the chunk problem is easy: the
optimal assignment is nearest-server, and the optimal dissemination tree
is the minimum Steiner tree over ``A ∪ {producer}``.  So the search space
is just subsets of facilities, and classic add / drop / swap local search
over it converges to strong optima quickly.

Pricing: all tree pricing of one instance reads one
:class:`~repro.graphs.steiner.PathTable` of its dissemination graph,
which runs each source's Dijkstra once, on first use.  During the
descent, trees are priced with a *cached* KMB 2-approximation: the
table's closure MST of the terminals (~|A|² distance reads, a sort and
a union-find), expanded over the table's paths.  Final incumbents with
few enough terminals are re-priced with the exact Dreyfus–Wagner DP,
which also yields the tree edges that get committed; larger ones get
:func:`~repro.graphs.steiner.steiner_tree`'s KMB tree, the one every
other algorithm commits.

Role in the reproduction: the paper's ``Brtf`` uses PuLP; the MILP in
:mod:`repro.exact.ilp_formulation` is provably exact but far too slow
beyond toy sizes (see EXPERIMENTS.md), so this search is what
:func:`~repro.exact.solver.solve_exact` runs: the practical optimum
reference for the 4×4 / 6×6 figures.  The test suite verifies the local
search matches the subset-enumeration optimum (and the MILP) on every
instance small enough to enumerate.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro.graphs.mst import tree_weight
from repro.graphs.steiner import PathTable, dreyfus_wagner, steiner_tree
from repro.core.confl import ConFLInstance

Node = Hashable

#: Above this many tree terminals, the final re-pricing skips exact DW.
MAX_EXACT_TERMINALS = 10


class _ChunkObjective:
    """Pricing of cache sets under one ConFL instance (heavily cached)."""

    def __init__(self, instance: ConFLInstance) -> None:
        self.instance = instance
        self.facilities = [
            f
            for f in instance.facilities
            if math.isfinite(instance.open_cost[f])
        ]
        # Each server's connection costs, by client position.
        rows = instance.connect_matrix.tolist()
        self._row = {s: rows[r] for s, r in instance.row_of.items()}
        # Every tree price reads these shortest paths.
        self._paths = PathTable(instance.steiner_graph)
        self._tree_cost_cache: Dict[FrozenSet[Node], float] = {}

    # ------------------------------------------------------------------
    # Tree pricing
    # ------------------------------------------------------------------
    def tree_cost(self, caches: FrozenSet[Node]) -> float:
        """KMB-priced dissemination cost of ``caches`` (cached)."""
        if not caches:
            return 0.0
        cost = self._tree_cost_cache.get(caches)
        if cost is None:
            cost = self._kmb_cost([self.instance.producer] + sorted(caches, key=str))
            self._tree_cost_cache[caches] = cost
        return cost

    def _kmb_cost(self, terminals: List[Node]) -> float:
        """KMB tree cost: the closure MST expanded over its shortest
        paths, each shared edge counted once."""
        edges = set()
        for a, b in self._paths.closure_mst(terminals):
            path = self._paths.path(a, b)
            edges.update(map(frozenset, zip(path, path[1:])))
        # Canonically ordered sum: set iteration order is not byte-stable
        # and float addition is order-dependent.
        total = 0.0
        for key in sorted(edges, key=lambda e: tuple(sorted(map(repr, e)))):
            u, v = tuple(key)
            total += self.instance.steiner_graph.weight(u, v)
        return total

    def exact_tree(
        self, caches: FrozenSet[Node]
    ) -> Tuple[float, List[Tuple[Node, Node]]]:
        """Exact (or KMB if too large) tree cost and edges for a final set."""
        if not caches:
            return 0.0, []
        terminals = [self.instance.producer] + sorted(caches, key=str)
        if len(terminals) <= MAX_EXACT_TERMINALS:
            cost, tree = dreyfus_wagner(
                self.instance.steiner_graph, terminals, paths=self._paths
            )
        else:
            tree = steiner_tree(
                self.instance.steiner_graph, terminals, paths=self._paths
            )
            cost = tree_weight(tree)
        return cost, [(u, v) for u, v, _ in tree.edges()]

    # ------------------------------------------------------------------
    # Full objective
    # ------------------------------------------------------------------
    def evaluate(self, caches: FrozenSet[Node]) -> float:
        """Chunk objective (Eq. 8's inner problem), KMB-priced tree."""
        inst = self.instance
        open_cost = sum(inst.open_cost[i] for i in caches)
        access = self.access_cost(caches)
        return (
            open_cost
            + access
            + inst.dissemination_scale * self.tree_cost(caches)
        )

    def access_cost(self, caches: FrozenSet[Node]) -> float:
        rows = [self._row[s] for s in [self.instance.producer, *caches]]
        total = 0.0
        for costs in zip(*rows):
            total += min(costs)
        return total

    def exact_objective(self, caches: FrozenSet[Node]) -> float:
        """Objective with the exact (DW) tree where feasible."""
        inst = self.instance
        tree_cost, _ = self.exact_tree(caches)
        return (
            sum(inst.open_cost[i] for i in caches)
            + self.access_cost(caches)
            + inst.dissemination_scale * tree_cost
        )

    def assignment(self, caches: FrozenSet[Node]) -> Dict[Node, Node]:
        """Nearest-server assignment for a cache set (deterministic ties)."""
        inst = self.instance
        result: Dict[Node, Node] = {}
        ordered = sorted(caches, key=str)
        for c, j in enumerate(inst.clients):
            best = inst.producer
            best_cost = self._row[inst.producer][c]
            for s in ordered:
                cost = self._row[s][c]
                if cost < best_cost:
                    best = s
                    best_cost = cost
            result[j] = best
        return result


def optimize_chunk_local(
    instance: ConFLInstance,
    starts: Optional[Iterable[Iterable[Node]]] = None,
    max_rounds: int = 200,
) -> Tuple[List[Node], Dict[Node, Node], List[Tuple[Node, Node]], float]:
    """Best (caches, assignment, tree_edges, objective) found by local
    search over facility subsets.

    Always starts from the empty set (greedy build-up) and the full
    facility set (greedy pare-down); callers add warm starts (e.g. the
    dual-ascent ADMIN set).  The best local optimum's tree is re-priced
    exactly when small enough (:data:`MAX_EXACT_TERMINALS`), and the
    returned objective reflects that final pricing.
    """
    objective = _ChunkObjective(instance)
    start_sets: List[FrozenSet[Node]] = [
        frozenset(),
        frozenset(objective.facilities),
    ]
    if starts:
        facility_set = set(objective.facilities)
        for s in starts:
            candidate = frozenset(i for i in s if i in facility_set)
            if candidate not in start_sets:
                start_sets.append(candidate)

    best_set: Optional[FrozenSet[Node]] = None
    best_cost = math.inf
    for start in start_sets:
        local_set, _ = _descend(objective, start, max_rounds)
        # Compare finals under the exact pricing so ties/finishes are fair.
        exact_cost = objective.exact_objective(local_set)
        if exact_cost < best_cost - 1e-12:
            best_cost = exact_cost
            best_set = local_set
    assert best_set is not None
    _, edges = objective.exact_tree(best_set)
    assignment = objective.assignment(best_set)
    return sorted(best_set, key=str), assignment, edges, best_cost


def _descend(
    objective: _ChunkObjective, start: FrozenSet[Node], max_rounds: int
) -> Tuple[FrozenSet[Node], float]:
    """Best-improvement add/drop/swap descent from ``start``."""
    current = start
    current_cost = objective.evaluate(current)
    facilities = objective.facilities
    for _ in range(max_rounds):
        best_move: Optional[FrozenSet[Node]] = None
        best_cost = current_cost
        # Add moves.
        for i in facilities:
            if i in current:
                continue
            candidate = current | {i}
            cost = objective.evaluate(candidate)
            if cost < best_cost - 1e-9:
                best_cost = cost
                best_move = candidate
        # Drop moves.
        for i in current:
            candidate = current - {i}
            cost = objective.evaluate(candidate)
            if cost < best_cost - 1e-9:
                best_cost = cost
                best_move = candidate
        # Swap moves (only when neither add nor drop improved — keeps the
        # quadratic neighborhood off the hot path).
        if best_move is None:
            for i in current:
                without = current - {i}
                for k in facilities:
                    if k in current:
                        continue
                    candidate = without | {k}
                    cost = objective.evaluate(candidate)
                    if cost < best_cost - 1e-9:
                        best_cost = cost
                        best_move = candidate
        if best_move is None:
            break
        current = best_move
        current_cost = best_cost
    return current, current_cost
