"""Problem definition and mutable solver state for fair caching.

:class:`CachingProblem` is the immutable description of an instance
(Sec. III-A): the network graph, the producer node, how many equal-size
chunks to place, per-node storage capacities and the objective weights.

:class:`ProblemState` couples a problem with a live
:class:`~repro.core.storage.StorageState` and
:class:`~repro.core.costs.CostModel` — the thing algorithms mutate as they
place chunk after chunk (Algorithm 1's update loop, lines 5–16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Optional, Union

from repro.errors import ProblemError
from repro.graphs.components import is_connected
from repro.graphs.graph import Graph
from repro.core.costs import PATH_POLICY_HOPS, CostModel
from repro.core.storage import StorageState
from repro.obs import get_tracer

Node = Hashable

DEFAULT_CAPACITY = 5  # chunks per node, Sec. V-A


@dataclass(frozen=True)
class CachingProblem:
    """An instance of the fair caching problem.

    Parameters
    ----------
    graph:
        Connected undirected network topology ``G = (V, E)``.
    producer:
        The node that originally holds all data.  It never caches and is
        excluded from cost calculations (Sec. V-A); the paper's default is
        node 9.
    num_chunks:
        Number of equal-size data chunks ``|N|`` to disseminate.
    capacity:
        Uniform per-node capacity (int) or a node → capacity mapping.
        Paper default: 5.
    fairness_weight / contention_weight:
        Weights of the fairness and contention terms in the objective.
        The paper "consider[s] them of the same weight" (Sec. III-D), so
        both default to 1.
    dissemination_scale:
        The ``M`` multiplying the Steiner (dissemination) term in Eq. 8;
        also the SPAN-request threshold for a node to become ADMIN in the
        distributed algorithm.
    path_policy:
        Path selection for Eq. 2; see :class:`~repro.core.costs.CostModel`.
    battery_capacity:
        Optional per-node energy budget (uniform float or node → float).
        When set, the battery Fairness Degree Cost of footnote 1 is added
        to the storage one (weighted by ``battery_weight``), caching a
        chunk drains ``energy_per_cache`` units, and battery-dead nodes
        stop being facility candidates.
    battery_weight / energy_per_cache:
        Weight of the battery fairness term, and the energy one cached
        chunk costs its host.  Ignored without ``battery_capacity``.
    """

    graph: Graph
    producer: Node
    num_chunks: int
    capacity: Union[int, Mapping[Node, int]] = DEFAULT_CAPACITY
    fairness_weight: float = 1.0
    contention_weight: float = 1.0
    dissemination_scale: float = 1.0
    path_policy: str = PATH_POLICY_HOPS
    battery_capacity: Optional[Union[float, Mapping[Node, float]]] = None
    battery_weight: float = 1.0
    energy_per_cache: float = 1.0

    def __post_init__(self) -> None:
        if self.producer not in self.graph:
            raise ProblemError(f"producer {self.producer!r} is not in the graph")
        if self.num_chunks < 0:
            raise ProblemError(f"num_chunks must be >= 0, got {self.num_chunks}")
        if not isinstance(self.capacity, Mapping) and self.capacity < 0:
            raise ProblemError(f"capacity must be >= 0, got {self.capacity}")
        if self.graph.num_nodes > 1 and not is_connected(self.graph):
            raise ProblemError("the network graph must be connected (Sec. III-A)")
        if self.fairness_weight < 0 or self.contention_weight < 0:
            raise ProblemError("objective weights must be non-negative")
        if self.dissemination_scale < 0:
            raise ProblemError("dissemination_scale (M) must be non-negative")
        if self.battery_weight < 0:
            raise ProblemError("battery_weight must be non-negative")
        if self.energy_per_cache < 0:
            raise ProblemError("energy_per_cache must be non-negative")

    @property
    def chunks(self) -> range:
        """Chunk ids ``0..num_chunks-1``."""
        return range(self.num_chunks)

    @property
    def clients(self) -> list:
        """All nodes that request data — every node except the producer."""
        return [node for node in self.graph.nodes() if node != self.producer]

    def total_capacity(self) -> int:
        """Aggregate non-producer storage, in chunks."""
        state = self.new_storage()
        return sum(
            state.capacity(node) for node in state.nodes() if node != self.producer
        )

    def new_storage(self) -> StorageState:
        """A fresh all-empty storage state for this problem."""
        return StorageState(self.graph.nodes(), self.capacity, self.producer)

    def new_battery(self) -> Optional["BatteryState"]:
        """A fresh full battery state, or ``None`` when batteries are off."""
        if self.battery_capacity is None:
            return None
        from repro.core.resources import BatteryState

        return BatteryState(
            self.graph.nodes(), self.battery_capacity, self.producer
        )

    def new_state(self) -> "ProblemState":
        """A fresh mutable solver state (empty caches, full batteries)."""
        return ProblemState(self)


@dataclass
class ProblemState:
    """Problem + live storage/battery + cost model, kept consistent."""

    problem: CachingProblem
    storage: StorageState = field(init=False)
    battery: Optional["BatteryState"] = field(init=False)
    costs: CostModel = field(init=False)

    def __post_init__(self) -> None:
        self.storage = self.problem.new_storage()
        self.battery = self.problem.new_battery()
        self.costs = CostModel(
            self.problem.graph,
            self.storage,
            self.problem.path_policy,
            battery=self.battery,
            battery_weight=self.problem.battery_weight,
        )
        # Dirty-region ledger: every node whose occupancy changed since
        # the last drain.  The adaptive control plane reads this to
        # bound re-evaluation to regions that actually moved; purely
        # observational — nothing in the solver core consults it.
        self._dirty_accum: set = set()

    def peek_dirty_nodes(self) -> frozenset:
        """Nodes whose occupancy changed since the last drain."""
        return frozenset(self._dirty_accum)

    def drain_dirty_nodes(self) -> frozenset:
        """Return accumulated dirty nodes and reset the ledger."""
        drained = frozenset(self._dirty_accum)
        self._dirty_accum.clear()
        return drained

    def can_cache(self, node: Node) -> bool:
        """Node has spare storage AND (if modelled) enough battery."""
        if not self.storage.can_cache(node):
            return False
        if self.battery is not None:
            return self.battery.can_spend(node, self.problem.energy_per_cache)
        return True

    def cache_budget(self, node: Node) -> int:
        """How many more chunks ``node`` can host right now."""
        slots = self.storage.available(node)
        if node == self.problem.producer:
            return 0
        if self.battery is not None and self.problem.energy_per_cache > 0:
            affordable = int(
                self.battery.remaining(node) // self.problem.energy_per_cache
            )
            return min(slots, affordable)
        return slots

    def cache(self, node: Node, chunk: int) -> None:
        """Cache ``chunk`` at ``node`` and refresh dependent costs.

        Only ``node``'s occupancy changed, so the cost model is told
        exactly which node is dirty and delta-patches its cached rows
        instead of rebuilding them (see
        :meth:`~repro.core.costs.CostModel.invalidate`).
        """
        self.storage.add(node, chunk)
        if self.battery is not None:
            self.battery.drain(node, self.problem.energy_per_cache)
        trace = get_tracer()
        if trace.enabled:
            trace.instant(
                "storage.cache",
                track="commit",
                args={
                    "node": str(node),
                    "chunk": chunk,
                    "used": self.storage.used(node),
                },
            )
        self._dirty_accum.add(node)
        self.costs.invalidate(dirty_nodes=(node,))

    def evict(self, node: Node, chunk: int) -> None:
        """Remove ``chunk`` from ``node`` and refresh dependent costs.

        Eviction frees storage but does *not* refund battery — the energy
        was spent receiving and serving the chunk.  Like :meth:`cache`,
        the cost model only patches for the single dirty node.
        """
        self.storage.remove(node, chunk)
        trace = get_tracer()
        if trace.enabled:
            trace.instant(
                "storage.evict",
                track="commit",
                args={
                    "node": str(node),
                    "chunk": chunk,
                    "used": self.storage.used(node),
                },
            )
        self._dirty_accum.add(node)
        self.costs.invalidate(dirty_nodes=(node,))
