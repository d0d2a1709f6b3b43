"""Greedy fairness-aware ConFL heuristic ("GreedyFair").

Sec. II notes that besides approximation algorithms with proven ratios,
"heuristic [22] and greedy [23] solutions are also proposed [for ConFL].
Though such algorithms may not have solid approximation bounds, they may
still achieve good performance in practice."  This module provides that
comparison point: a bound-free greedy that *does* see the fairness costs
(unlike Hopc/Cont) but replaces the primal-dual machinery with plain
marginal-gain selection.

Per chunk, starting from "everyone fetches from the producer", repeatedly
open the facility ``i`` maximizing::

    gain(i) = Σ_j [cost(best_j) - c_ij]⁺ - f_i - M · wire(i)

where ``wire(i)`` is the contention cost of attaching ``i`` to the
current dissemination tree: the distance to the nearest already-open
server on the contention-weighted graph, read from the producer's and
each opened node's row of one :class:`~repro.graphs.steiner.PathTable`.
Stop at non-positive gain.  Chunks iterate with storage feed-forward
exactly like Algorithm 1, so the comparison isolates *primal-dual vs
greedy*, not *fair vs unfair*.
"""

from __future__ import annotations

import math
from typing import Hashable, List, Optional

from repro.graphs.steiner import PathTable
from repro.core.commit import commit_chunk
from repro.core.confl import ConFLInstance, build_confl_instance
from repro.core.placement import CachePlacement, ChunkPlacement
from repro.core.problem import CachingProblem, ProblemState

Node = Hashable

ALGORITHM_NAME = "greedy-confl"


def greedy_chunk_selection(instance: ConFLInstance) -> List[Node]:
    """Greedy facility set for one ConFL instance (order = opening order)."""
    producer = instance.producer
    facilities = [
        f for f in instance.facilities if math.isfinite(instance.open_cost[f])
    ]
    rows = instance.connect_matrix.tolist()
    row_of = instance.row_of
    scale = instance.dissemination_scale

    # Per client position: the cheapest connection cost so far.
    best_cost: List[float] = rows[row_of[producer]]
    # Wiring distances on the contention-weighted graph by node position,
    # updated as the "tree" grows: wire(i) = min over open servers of
    # dist(server, i).
    paths = PathTable(instance.steiner_graph)
    position = paths.index
    wire: List[float] = paths.row(position[producer])[0]

    selected: List[Node] = []
    remaining = list(facilities)
    while remaining:
        best_gain = 0.0
        best_node: Optional[Node] = None
        for i in remaining:
            saving = 0.0
            for best, cost in zip(best_cost, rows[row_of[i]]):
                diff = best - cost
                if diff > 0:
                    saving += diff
            gain = saving - instance.open_cost[i] - scale * wire[position[i]]
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_node = i
        if best_node is None:
            break
        selected.append(best_node)
        remaining.remove(best_node)
        for c, cost in enumerate(rows[row_of[best_node]]):
            if cost < best_cost[c]:
                best_cost[c] = cost
        # The new facility joins the dissemination tree: wiring distances
        # can only shrink toward it.
        wire = list(map(min, wire, paths.row(position[best_node])[0]))
    return selected


def solve_greedy_confl(problem: CachingProblem) -> CachePlacement:
    """Iterated greedy ConFL over all chunks (fairness feed-forward)."""
    state = problem.new_state()
    placements: List[ChunkPlacement] = []
    for chunk in problem.chunks:
        instance = build_confl_instance(state)
        caches = greedy_chunk_selection(instance)
        placements.append(commit_chunk(state, chunk, caches))
    return CachePlacement(
        problem=problem, chunks=placements, algorithm=ALGORITHM_NAME
    )
