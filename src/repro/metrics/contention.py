"""Final-state contention accounting (the y-axis of Figs. 2–4, 8, 9).

The figures report the **total Contention Cost**, "the summation of the
cost from Accessing and Dissemination phases":

* *Accessing*: every node fetches every chunk from its serving node along
  the shortest hop path; the path is priced by Eq. 2 with the **final**
  storage state ("after all the dissemination is done, we calculated the
  contention by putting all the chunks to the original connected graph",
  Sec. V-B) — so heavily loaded caches inflate every path through them.
* *Dissemination*: each chunk's dissemination tree edges priced the same
  way.

This module evaluates any :class:`~repro.core.placement.CachePlacement`
under that *uniform* final-state accounting, so algorithms are compared on
identical terms regardless of what internal costs they optimized.  (The
per-placement ``stage_cost`` fields instead record the costs at placement
time, i.e. the iterative objective of Eq. 8 — both views are useful and
tests pin down their relationship.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable

from repro.core.commit import nearest_server_assignment, price_chunk
from repro.core.costs import CostModel
from repro.core.placement import CachePlacement

Node = Hashable


@dataclass(frozen=True)
class ContentionReport:
    """Final-state contention breakdown of one placement."""

    access: float
    dissemination: float
    per_chunk_access: Dict[int, float]
    per_chunk_dissemination: Dict[int, float]

    @property
    def total(self) -> float:
        """Access + dissemination — the headline metric of Figs. 2-4, 8."""
        return self.access + self.dissemination

    def per_chunk_total(self) -> Dict[int, float]:
        """Per-chunk access + dissemination (the bars of Fig. 9)."""
        return {
            chunk: self.per_chunk_access[chunk]
            + self.per_chunk_dissemination[chunk]
            for chunk in self.per_chunk_access
        }


def evaluate_contention(
    placement: CachePlacement,
    reassign: bool = True,
) -> ContentionReport:
    """Price a placement with final-state contention costs.

    Parameters
    ----------
    reassign:
        True (default): every client fetches from its *nearest* final copy
        (Sec. V-A semantics).  False: keep the placement's recorded
        assignment, pricing it at final state — useful to study how much
        an algorithm's own assignment deviates from nearest-copy.
    """
    problem = placement.problem
    storage = placement.final_storage()
    costs = CostModel(problem.graph, storage, problem.path_policy)

    per_chunk_access: Dict[int, float] = {}
    per_chunk_diss: Dict[int, float] = {}
    for chunk in placement.chunks:
        if reassign:
            assignment = nearest_server_assignment(
                costs, problem, sorted(chunk.caches, key=str)
            )
        else:
            assignment = chunk.assignment
        access, dissemination = price_chunk(
            costs, assignment, chunk.tree_edges
        )
        per_chunk_access[chunk.chunk] = access
        per_chunk_diss[chunk.chunk] = dissemination

    return ContentionReport(
        access=sum(per_chunk_access.values()),
        dissemination=sum(per_chunk_diss.values()),
        per_chunk_access=per_chunk_access,
        per_chunk_dissemination=per_chunk_diss,
    )


def total_contention_cost(placement: CachePlacement) -> float:
    """Shorthand: final-state access + dissemination cost."""
    return evaluate_contention(placement).total

