"""Placement results: which node caches which chunk, who fetches from whom.

Every algorithm in this library (approximation, distributed, exact,
baselines) produces a :class:`CachePlacement`: one
:class:`ChunkPlacement` per chunk holding

* the set of caching nodes (the ADMIN set ``A`` / the ``y_in = 1`` rows),
* the access assignment (the ``x_ijn = 1`` entries: client → serving node),
* the dissemination tree edges (the ``z_en = 1`` edges), and
* the *stage cost* — the fairness / access / dissemination cost this chunk
  incurred **at placement time** (with the storage state of the preceding
  chunks), i.e. its term of the iterative objective Eq. 8.

:meth:`CachePlacement.validate` checks the ILP constraints (4)–(7) hold:
each client is served exactly once, only by a node that caches the chunk
(or the producer), capacities are respected, and the dissemination edges
connect every cache to the producer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Set

from repro.errors import ProblemError
from repro.graphs.graph import Graph
from repro.core.problem import CachingProblem
from repro.core.storage import StorageState

Node = Hashable
EdgeKey = FrozenSet[Node]


def edge_key(u: Node, v: Node) -> EdgeKey:
    """Canonical undirected-edge key (order-free)."""
    if u == v:
        raise ProblemError(f"self-loop edge ({u!r}, {v!r})")
    return frozenset((u, v))


@dataclass(frozen=True)
class StageCost:
    """Cost components a single chunk incurred at placement time."""

    fairness: float
    access: float
    dissemination: float

    @property
    def total(self) -> float:
        """Unweighted sum of the three components."""
        return self.fairness + self.access + self.dissemination

    def weighted_total(
        self,
        fairness_weight: float = 1.0,
        contention_weight: float = 1.0,
        dissemination_scale: float = 1.0,
    ) -> float:
        """Objective contribution under Eq. 8's weights."""
        return (
            fairness_weight * self.fairness
            + contention_weight * self.access
            + contention_weight * dissemination_scale * self.dissemination
        )

    def __add__(self, other: "StageCost") -> "StageCost":
        return StageCost(
            self.fairness + other.fairness,
            self.access + other.access,
            self.dissemination + other.dissemination,
        )

    @staticmethod
    def zero() -> "StageCost":
        return StageCost(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ChunkPlacement:
    """Placement decision for a single chunk."""

    chunk: int
    caches: FrozenSet[Node]
    assignment: Dict[Node, Node]
    tree_edges: FrozenSet[EdgeKey]
    stage_cost: StageCost = field(default_factory=StageCost.zero)

    def serving_nodes(self) -> Set[Node]:
        """Distinct nodes that serve at least one client."""
        return set(self.assignment.values())


@dataclass
class CachePlacement:
    """Full multi-chunk placement produced by one algorithm run."""

    problem: CachingProblem
    chunks: List[ChunkPlacement]
    algorithm: str = ""

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def holders(self, chunk: int) -> FrozenSet[Node]:
        """Nodes caching ``chunk``."""
        return self.chunks[chunk].caches

    def loads(self) -> Dict[Node, int]:
        """Node → number of chunks cached there (``t_i``); producer = 0."""
        counts: Dict[Node, int] = {node: 0 for node in self.problem.graph.nodes()}
        for chunk in self.chunks:
            for node in chunk.caches:
                counts[node] += 1
        return counts

    def final_storage(self) -> StorageState:
        """Storage state after all chunks are placed."""
        storage = self.problem.new_storage()
        for chunk in self.chunks:
            for node in chunk.caches:
                storage.add(node, chunk.chunk)
        return storage

    def total_copies(self) -> int:
        """Total cached chunk copies across the network."""
        return sum(len(chunk.caches) for chunk in self.chunks)

    def objective_value(self) -> float:
        """The iterative objective Eq. 8: sum of weighted stage costs."""
        p = self.problem
        return sum(
            chunk.stage_cost.weighted_total(
                p.fairness_weight, p.contention_weight, p.dissemination_scale
            )
            for chunk in self.chunks
        )

    def stage_cost_total(self) -> StageCost:
        """Component-wise sum of all per-chunk stage costs."""
        total = StageCost.zero()
        for chunk in self.chunks:
            total = total + chunk.stage_cost
        return total

    # ------------------------------------------------------------------
    # Validation (ILP constraints 4-7)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check this placement satisfies the ILP's feasibility constraints.

        Raises :class:`ProblemError` on the first violation found.
        """
        problem = self.problem
        graph = problem.graph
        if len(self.chunks) != problem.num_chunks:
            raise ProblemError(
                f"{len(self.chunks)} chunk placements for "
                f"{problem.num_chunks}-chunk problem"
            )
        storage = problem.new_storage()
        clients = set(problem.clients)
        for chunk in self.chunks:
            # Constraint (7) domain + capacity: caches fit in storage.
            for node in chunk.caches:
                if node not in graph:
                    raise ProblemError(f"cache node {node!r} not in graph")
                storage.add(node, chunk.chunk)  # raises CapacityError if full
            # Constraint (4): every client served exactly once.
            served = set(chunk.assignment)
            if served != clients:
                missing = clients - served
                extra = served - clients
                raise ProblemError(
                    f"chunk {chunk.chunk}: assignment mismatch "
                    f"(missing={sorted(map(repr, missing))[:5]}, "
                    f"extra={sorted(map(repr, extra))[:5]})"
                )
            # Constraint (5): server caches the chunk (or is the producer).
            for client, server in chunk.assignment.items():
                if server != problem.producer and server not in chunk.caches:
                    raise ProblemError(
                        f"chunk {chunk.chunk}: client {client!r} served by "
                        f"{server!r}, which does not cache it"
                    )
            # Constraint (6): dissemination edges connect caches to producer.
            self._validate_tree(chunk)

    def _validate_tree(self, chunk: ChunkPlacement) -> None:
        graph = self.problem.graph
        if not chunk.caches:
            return  # nothing disseminated; producer serves everyone
        tree = Graph()
        tree.add_node(self.problem.producer)
        for key in chunk.tree_edges:
            u, v = tuple(key)
            if not graph.has_edge(u, v):
                raise ProblemError(
                    f"chunk {chunk.chunk}: dissemination edge ({u!r}, {v!r}) "
                    "is not a network link"
                )
            tree.add_edge(u, v)
        from repro.graphs.traversal import bfs_order

        reachable = set(bfs_order(tree, self.problem.producer))
        unreachable = set(chunk.caches) - reachable
        if unreachable:
            raise ProblemError(
                f"chunk {chunk.chunk}: caches {sorted(map(repr, unreachable))[:5]} "
                "not connected to the producer by dissemination edges"
            )

