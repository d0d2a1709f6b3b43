"""Fig. 2 — total contention cost (accessing + dissemination) vs network size.

The paper evaluates grids in two regimes:

* small networks, where the brute-force optimum is feasible, showing the
  approximation algorithm stays within its ratio (observed max 5.6) and
  within ~9% of the Contention-based baseline while beating the Hop-Count
  baseline by ~52%;
* large networks (100–255 nodes) without the brute force, where Appx is
  still ~62% better than Hopc and ~8% off Cont.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.workloads import grid_problem
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import (
    BRTF,
    DEFAULT_ALGORITHMS,
    run_algorithms,
    summarize,
)

SMALL_SIDES = (3, 4, 5)
LARGE_SIDES = (10, 12, 14, 16)  # 100..256 nodes, paper: 100-255


def run(
    small_sides: Sequence[int] = SMALL_SIDES,
    large_sides: Sequence[int] = LARGE_SIDES,
    include_bruteforce: bool = True,
    fast: bool = False,
) -> ExperimentResult:
    """Regenerate Fig. 2's series.

    ``fast=True`` trims the sweep (one small grid with brute force, one
    large grid without) for the tier-1 tests.
    """
    if fast:
        small_sides = (3,)
        large_sides = (10,)

    rows: List[List[object]] = []
    for side in small_sides:
        problem = grid_problem(side)
        names = list(DEFAULT_ALGORITHMS) + ([BRTF] if include_bruteforce else [])
        placements = run_algorithms(problem, names)
        for name, placement in placements.items():
            s = summarize(name, placement)
            rows.append(
                [side * side, "small", name, s.access_cost,
                 s.dissemination_cost, s.total_cost]
            )
    for side in large_sides:
        problem = grid_problem(side)
        placements = run_algorithms(problem, DEFAULT_ALGORITHMS)
        for name, placement in placements.items():
            s = summarize(name, placement)
            rows.append(
                [side * side, "large", name, s.access_cost,
                 s.dissemination_cost, s.total_cost]
            )

    return ExperimentResult(
        experiment_id="fig2",
        description="total contention cost on grid networks "
        "(accessing + dissemination phases)",
        headers=["nodes", "regime", "algorithm", "access", "dissemination",
                 "total"],
        rows=rows,
        notes=[
            "paper shape: Appx/Dist ≈ Cont (within ~10%), both far below "
            "Hopc; Appx within the 6.55 ratio of Brtf on small grids",
        ],
    )
