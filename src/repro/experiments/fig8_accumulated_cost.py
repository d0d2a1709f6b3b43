"""Fig. 8 — accumulated contention cost vs number of distinct chunks.

Grids of 4×4 (a) and 8×8 (b), chunk counts 1–10 with per-node capacity 5.
Two claims live in this figure, and they sit under two readings of the
Contention Cost (the paper's accounting prose is ambiguous; DESIGN.md §4):

* **accumulated** (per-round stage costs summed — the figure's literal
  title): the fair algorithms grow slower and end below the baselines
  (paper: ~25% under Hopc, ~4% under Cont);
* **final-state** (all chunks priced on the fully loaded network): the
  baselines show "a large increase when the number of data chunks goes
  from 5 to 6 ... because they start to put the data on the next set of
  nodes", which re-prices old and new copies alike — the capacity-cliff
  phenomenon.

Both columns are reported; ``tests/test_paper_shapes.py`` asserts each
claim on its accounting.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.workloads import chunk_sweep
from repro.metrics import evaluate_contention
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import DEFAULT_ALGORITHMS, run_algorithms


def run(
    sides: Sequence[int] = (4, 8),
    chunk_counts: Sequence[int] = tuple(range(1, 11)),
    fast: bool = False,
) -> ExperimentResult:
    """Regenerate Fig. 8's accumulated-cost curves (both accountings)."""
    if fast:
        sides = (4,)
        chunk_counts = (1, 3, 5, 6, 8)
    rows: List[List[object]] = []
    for side in sides:
        for count, problem in chunk_sweep(side, list(chunk_counts)):
            placements = run_algorithms(problem, DEFAULT_ALGORITHMS)
            for name, placement in placements.items():
                stage = placement.stage_cost_total()
                final = evaluate_contention(placement).total
                rows.append(
                    [side, count, name,
                     stage.access + stage.dissemination, final]
                )
    return ExperimentResult(
        experiment_id="fig8",
        description="accumulated contention cost vs number of distinct "
        "chunks (capacity 5/node)",
        headers=["grid_side", "num_chunks", "algorithm", "total_cost",
                 "final_state_cost"],
        rows=rows,
        notes=[
            "paper shape: ours grow slower and end below the baselines "
            "(accumulated column); baselines jump when chunks exceed the "
            "first set's capacity at 5→6 (final-state column)",
        ],
    )
