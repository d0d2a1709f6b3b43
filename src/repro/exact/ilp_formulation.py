"""The per-chunk ConFL ILP (Eqs. 3–7) in compact multi-commodity flow form.

Eq. 6 is a cut-set constraint over *every* node subset — exponentially
many rows.  We replace it with the standard disaggregated (one commodity
per facility) flow encoding of Steiner connectivity, which is equivalent
for the integral problem and polynomial (O(|F|·|E|) rows):

* one unit of commodity ``k`` leaves the producer iff facility ``k`` is
  open, and facility ``k`` consumes it,
* commodity ``k`` may only traverse edges bought for dissemination
  (``f^k_a ≤ z_e``),

so the ``z_e = 1`` edges necessarily connect all open facilities to the
producer.  The objective and constraints (4), (5), (7) are verbatim.

The model is built from a :class:`~repro.core.confl.ConFLInstance`, i.e.
with the fairness/contention costs of the *current* storage state.  It is
the test suite's MILP oracle for :func:`~repro.exact.solver.solve_exact`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.core.confl import ConFLInstance
from repro.ilp import Model, Variable, lin_sum

Node = Hashable


@dataclass
class ChunkModel:
    """A built ILP plus the variable handles needed to read the solution."""

    model: Model
    open_vars: Dict[Node, Variable]
    assign_vars: Dict[Tuple[Node, Node], Variable]
    edge_vars: Dict[Tuple[Node, Node], Variable]

    def extract(self, solution) -> Tuple[List[Node], Dict[Node, Node], List[Tuple[Node, Node]]]:
        """Read (caches, assignment, tree_edges) from a solved model."""
        caches = [
            node
            for node, var in self.open_vars.items()
            if solution[var] > 0.5
        ]
        assignment: Dict[Node, Node] = {}
        for (server, client), var in self.assign_vars.items():
            if solution[var] > 0.5:
                assignment[client] = server
        tree_edges = [
            edge for edge, var in self.edge_vars.items() if solution[var] > 0.5
        ]
        return caches, assignment, tree_edges


def build_chunk_model(instance: ConFLInstance, name: str = "confl") -> ChunkModel:
    """Build the single-chunk ILP from a ConFL instance snapshot.

    Eq. 6 is encoded as one flow commodity per facility with per-arc
    capacity ``z_e``, whose LP relaxation forces ``z_e ≥ max_k f^k_a``
    (a single shared commodity would only force ``z_e ≥ Σ_k f^k_a / |F|``).

    A deterministic, strictly increasing micro-epsilon is added to each
    facility's opening cost: on the first chunk all ``f_i = 0`` (empty
    caches), leaving the optimum massively degenerate, and unbroken
    symmetry is what makes branch-and-bound crawl.  The epsilons (< 1e-4
    total) are orders of magnitude below any real cost difference, so the
    selected optimum is an exact optimum of the unperturbed model too.
    """
    model = Model(name)
    producer = instance.producer
    clients = list(instance.clients)
    facilities = [
        f for f in instance.facilities if math.isfinite(instance.open_cost[f])
    ]
    servers = [producer] + facilities
    rows = instance.connect_matrix.tolist()  # Python floats

    # y_in — cache the chunk at facility i (Eq. 7 domain).
    open_vars = {i: model.binary_var(f"y_{i}") for i in facilities}
    # x_ijn — client j fetches from server i.
    assign_vars: Dict[Tuple[Node, Node], Variable] = {}
    for i in servers:
        for j in clients:
            assign_vars[(i, j)] = model.binary_var(f"x_{i}_{j}")
    # z_en — edge e carries the dissemination of this chunk.
    edge_list = [(u, v) for u, v, _ in instance.steiner_graph.edges()]
    edge_vars = {e: model.binary_var(f"z_{e[0]}_{e[1]}") for e in edge_list}

    # Constraint (4): every client is served exactly once.
    for j in clients:
        model.add_constraint(
            lin_sum(assign_vars[(i, j)] for i in servers) == 1,
            name=f"served_{j}",
        )
    # Constraint (5): serving requires caching (producer always serves).
    for i in facilities:
        for j in clients:
            model.add_constraint(
                open_vars[i] - assign_vars[(i, j)] >= 0,
                name=f"open_{i}_{j}",
            )

    incident: Dict[Node, List[Tuple[Node, Node]]] = {}
    for u, v in edge_list:
        incident.setdefault(u, []).append((u, v))
        incident.setdefault(v, []).append((v, u))

    # Constraint (6), disaggregated: one unit of commodity k flows from the
    # producer to facility k iff y_k = 1, and every arc a used by any
    # commodity needs z_e = 1 (f^k_a ≤ z_e).
    for k in facilities:
        flow_k: Dict[Tuple[Node, Node], Variable] = {}
        for u, v in edge_list:
            flow_k[(u, v)] = model.continuous_var(f"f{k}_{u}_{v}")
            flow_k[(v, u)] = model.continuous_var(f"f{k}_{v}_{u}")

        def net_out_k(node: Node, flows=flow_k):
            out_arcs = incident.get(node, [])
            return lin_sum(flows[a] for a in out_arcs) - lin_sum(
                flows[(b, a)] for a, b in out_arcs
            )

        model.add_constraint(
            net_out_k(producer) - open_vars[k] == 0,
            name=f"mf_src_{k}",
        )
        for node in instance.steiner_graph.nodes():
            if node == producer:
                continue
            if node == k:
                model.add_constraint(
                    net_out_k(node) + open_vars[k] == 0,
                    name=f"mf_sink_{k}",
                )
            else:
                model.add_constraint(
                    net_out_k(node) == 0, name=f"mf_{k}_{node}"
                )
        for u, v in edge_list:
            model.add_constraint(
                flow_k[(u, v)] - edge_vars[(u, v)] <= 0,
                name=f"mfcap_{k}_{u}_{v}",
            )
            model.add_constraint(
                flow_k[(v, u)] - edge_vars[(u, v)] <= 0,
                name=f"mfcap_{k}_{v}_{u}",
            )

    # Objective (Eq. 8's inner problem): fairness + access + M·dissemination.
    # Per-facility micro-epsilons (see docstring): break the massive
    # symmetry of the f_i = 0 first chunk, and prevent the solver from
    # opening cost-free client-less facilities.
    objective = lin_sum(
        [
            (instance.open_cost[i] + 1e-4 + 1e-6 * rank) * open_vars[i]
            for rank, i in enumerate(facilities)
        ]
        + [
            rows[instance.row_of[i]][c] * assign_vars[(i, j)]
            for i in servers
            for c, j in enumerate(clients)
        ]
        + [
            instance.dissemination_scale
            * instance.steiner_graph.weight(u, v)
            * edge_vars[(u, v)]
            for u, v in edge_list
        ]
    )
    model.set_objective(objective)
    return ChunkModel(
        model=model,
        open_vars=open_vars,
        assign_vars=assign_vars,
        edge_vars=edge_vars,
    )
