"""Connected Facility Location (ConFL) instances derived from caching state.

Sec. III-D shows the fair caching ILP is a *sum of ConFL problems*, one per
chunk (Eq. 8):

* facilities  = nodes with spare storage; opening cost = Fairness Degree
  Cost ``f_i`` (what the network pays to cache there),
* clients     = every node except the producer; connection cost = Path
  Contention Cost ``c_ij``,
* core        = the producer, to which all open facilities must connect
  through a Steiner tree with edge costs ``c_e`` scaled by ``M``.

:func:`build_confl_instance` freezes the *current* storage state into such
an instance — Algorithm 1 rebuilds it before each chunk so fairness and
contention feed forward (lines 5–16).  Only the dissemination graph
waits for its first read (:attr:`ConFLInstance.steiner_graph`), which
Appx never makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.core.costs import weighted_topology
from repro.core.problem import ProblemState

Node = Hashable


@dataclass(frozen=True)
class ConFLInstance:
    """A single-chunk ConFL snapshot (all costs already weighted).

    Attributes
    ----------
    producer:
        The core node; acts as an always-open, zero-cost facility.
    clients:
        Nodes that must be served (all nodes except the producer).
    facilities:
        Nodes eligible to cache the chunk (spare storage, not producer).
    open_cost:
        facility → weighted opening cost ``fairness_weight · f_i``.
    connect_matrix:
        The weighted connection costs ``contention_weight · c_ij``
        (``c_ii = 0``) as one float64 ``(servers × clients)`` array: the
        columns follow ``clients`` and :attr:`row_of` gives each
        server's row.
    topology:
        The network graph the dissemination tree runs over.
    node_costs:
        A copy of the node costs ``x_k = w_k (1 + S(k))`` at build time,
        by node position in ``topology`` order: the commit changes
        storage right after, so :attr:`steiner_graph` must not read the
        live cost model.
    contention_weight:
        The scale of every dissemination edge cost.
    raw_open_cost:
        The unweighted ``f_i`` for reporting stage costs.
    """

    producer: Node
    clients: Tuple[Node, ...]
    facilities: Tuple[Node, ...]
    open_cost: Dict[Node, float]
    connect_matrix: np.ndarray
    topology: Graph
    node_costs: np.ndarray
    contention_weight: float
    dissemination_scale: float
    raw_open_cost: Dict[Node, float] = field(default_factory=dict)

    @cached_property
    def steiner_graph(self) -> Graph:
        """The topology re-weighted with dissemination edge costs
        ``contention_weight · c_e``, built on first read.

        The ``M`` scale is applied by the objective, not baked into
        edges, so trees stay comparable.  GreedyFair, the local search,
        the enumeration and the MILP read it; Appx, the online controller
        and the adaptive re-solve never do.
        """
        return weighted_topology(
            self.topology, self.node_costs, self.contention_weight
        )

    @cached_property
    def row_of(self) -> Dict[Node, int]:
        """Each server's row of :attr:`connect_matrix`: 0 for the
        producer, ``1 + f`` for the ``f``-th facility."""
        return {s: r for r, s in enumerate((self.producer, *self.facilities))}

    def max_connect_cost(self) -> float:
        """``max c_ij`` over the finite costs, at least 0 — bounds the
        dual-ascent round count (Sec. IV-B)."""
        matrix = self.connect_matrix
        return float(matrix.max(initial=0.0, where=np.isfinite(matrix)))


def build_confl_instance(state: ProblemState) -> ConFLInstance:
    """Snapshot the current caching state as a ConFL instance.

    Implements Algorithm 1 lines 5–16: refresh every ``f_i`` from storage
    (line 6), compute all shortest paths and ``c_ij`` (lines 8–13), and
    keep the node costs that price the dissemination edges ``c_e``
    (lines 14–16): the weighted graph itself is built only when read.
    """
    problem = state.problem
    producer = problem.producer

    clients: List[Node] = list(problem.clients)
    facilities: List[Node] = [
        node for node in clients if state.can_cache(node)
    ]

    raw_open = {node: state.costs.fairness_cost(node) for node in facilities}
    open_cost = {
        node: problem.fairness_weight * cost for node, cost in raw_open.items()
    }

    # Rows in ConFLInstance.row_of order: the producer, then the facilities.
    servers = [producer] + facilities
    weighted = state.costs.cost_rows(servers, clients)
    weighted *= problem.contention_weight

    return ConFLInstance(
        producer=producer,
        clients=tuple(clients),
        facilities=tuple(facilities),
        open_cost=open_cost,
        connect_matrix=weighted,
        topology=problem.graph,
        node_costs=state.costs.node_cost_vector().copy(),
        contention_weight=problem.contention_weight,
        dissemination_scale=problem.dissemination_scale,
        raw_open_cost=raw_open,
    )
