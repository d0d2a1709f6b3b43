"""Subset-enumeration brute force for *tiny* instances.

Independent of the ILP machinery: enumerate every facility subset, price
it as ``Σ f_i + Σ_j min-connect + M · SteinerCost(A ∪ {producer})`` with
the exact Steiner cost, and keep the cheapest.  One Dreyfus–Wagner DP over
the producer and every facility holds the Steiner cost of each subset, so
it runs once per instance.  Exponential in the facility count, so it is
only for cross-checking the ILP encoding on graphs of ≤ ~12 nodes — which
is precisely its job in the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.graphs.steiner import dreyfus_wagner_costs
from repro.core.confl import ConFLInstance

Node = Hashable


@dataclass(frozen=True)
class EnumerationResult:
    """Optimal subset choice for one chunk."""

    caches: Tuple[Node, ...]
    assignment: Dict[Node, Node]
    objective: float
    subsets_evaluated: int


def enumerate_optimal(
    instance: ConFLInstance, max_facilities: int = 12
) -> EnumerationResult:
    """Exhaustively find the optimal cache set for one ConFL instance."""
    facilities = [
        f for f in instance.facilities if math.isfinite(instance.open_cost[f])
    ]
    if len(facilities) > max_facilities:
        raise ValueError(
            f"{len(facilities)} facilities is too many to enumerate "
            f"(max {max_facilities})"
        )
    clients = list(instance.clients)
    producer = instance.producer
    rows = instance.connect_matrix.tolist()
    row_of = instance.row_of
    # steiner_costs[mask]: the producer plus facilities[i] for each bit i.
    steiner_costs = dreyfus_wagner_costs(
        instance.steiner_graph, [producer] + facilities
    )

    best_cost = math.inf
    best: Optional[Tuple[Tuple[Node, ...], Dict[Node, Node]]] = None
    evaluated = 0
    for r in range(len(facilities) + 1):
        for chosen in itertools.combinations(range(len(facilities)), r):
            evaluated += 1
            subset = tuple(facilities[i] for i in chosen)
            open_cost = sum(instance.open_cost[i] for i in subset)
            servers = [producer] + list(subset)
            assignment: Dict[Node, Node] = {}
            access = 0.0
            for c, j in enumerate(clients):
                server = min(servers, key=lambda s: rows[row_of[s]][c])
                assignment[j] = server
                access += rows[row_of[server]][c]
            steiner = steiner_costs[sum(1 << i for i in chosen)]
            total = open_cost + access + instance.dissemination_scale * steiner
            if total < best_cost - 1e-12:
                best_cost = total
                best = (subset, assignment)
    assert best is not None  # r = 0 always evaluated
    return EnumerationResult(
        caches=best[0],
        assignment=best[1],
        objective=best_cost,
        subsets_evaluated=evaluated,
    )
