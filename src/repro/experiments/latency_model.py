"""Extension experiment — contention cost vs full-DCF modelled latency.

Not a paper figure, but the paper's core modelling claim (Sec. III-C):
Contention Cost is "roughly a linear transformation" of DCF
contention-induced delay, so optimizing the former optimizes the latter.
This runner prices every algorithm's placement with the *full* (not
linearized) hop-delay model and reports both measures side by side;
``tests/test_paper_shapes.py`` asserts the rankings agree.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.delay import DcfParameters, latency_report
from repro.metrics import evaluate_contention
from repro.workloads import grid_problem
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import DEFAULT_ALGORITHMS, run_algorithms


def run(
    sides: Sequence[int] = (4, 6, 8),
    fast: bool = False,
) -> ExperimentResult:
    """Compare final-state contention cost with modelled DCF latency."""
    if fast:
        sides = (4, 6)
    params = DcfParameters()
    rows: List[List[object]] = []
    for side in sides:
        problem = grid_problem(side)
        placements = run_algorithms(problem, DEFAULT_ALGORITHMS)
        for name, placement in placements.items():
            contention = evaluate_contention(placement)
            report = latency_report(placement, params)
            rows.append(
                [side * side, name, contention.access,
                 report.mean * 1e3, report.percentile(95) * 1e3,
                 report.worst_chunk_completion() * 1e3]
            )
    return ExperimentResult(
        experiment_id="latency_model",
        description="final-state access contention vs full-DCF modelled "
        "latency (ms) — Sec. III-C's linearity claim (extension)",
        headers=["nodes", "algorithm", "access_contention", "mean_ms",
                 "p95_ms", "worst_chunk_ms"],
        rows=rows,
        notes=[
            "expected: per network size, ranking algorithms by access "
            "contention and by mean modelled latency agrees",
        ],
    )
