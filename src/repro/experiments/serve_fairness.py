"""Served-load fairness — does placement fairness survive a live workload?

The paper evaluates fairness on *storage* loads (Figs. 6–7: how many
chunks each node holds).  This experiment replays a Zipf request
workload through :mod:`repro.serve` against three placements on the
Sec. V-A grid (6×6, producer at node 9, capacity 5, 5 chunks) and
measures fairness of the load each node actually *served*:

* ``Appx`` — Algorithm 1, the paper's fair placement;
* ``Hopc`` — the hop-count baseline [13], which piles all copies onto a
  couple of central nodes;
* ``random`` — seeded uniform placement, fair in expectation but
  contention-blind.

Expected shape: Algorithm 1's storage fairness translates into served
fairness — its served-load Gini comes in *below* both baselines, while
hop-count concentrates nearly the whole request stream on its few cache
nodes (Gini ≈ 0.9).  ``tests/test_paper_shapes.py`` asserts the ordering.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.baselines import solve_random
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import APPX, HOPC, SOLVERS
from repro.serve import ServeConfig, ZipfWorkload, serve_placement
from repro.serve.stats import ServeReport
from repro.workloads import grid_problem

#: Requests replayed per placement (full / --fast).
NUM_REQUESTS = 20_000
FAST_REQUESTS = 3_000

GRID_SIDE = 6
SEED = 2017


def serve_reports(
    num_requests: int = NUM_REQUESTS,
    workload: Optional[ZipfWorkload] = None,
    policy: Union[str, object] = "cheapest",
    config: Optional[ServeConfig] = None,
) -> List[ServeReport]:
    """Replay one workload against Appx / Hopc / random on the V-A grid."""
    problem = grid_problem(GRID_SIDE)
    if workload is None:
        workload = ZipfWorkload(seed=SEED)
    placements = [
        SOLVERS[APPX](problem),
        SOLVERS[HOPC](problem),
        solve_random(problem, seed=SEED),
    ]
    return [
        serve_placement(
            placement, workload, num_requests, policy=policy, config=config
        )
        for placement in placements
    ]


def run(num_requests: Optional[int] = None, fast: bool = False) -> ExperimentResult:
    """Served-load fairness of Appx vs Hopc vs random placement."""
    if num_requests is None:
        num_requests = FAST_REQUESTS if fast else NUM_REQUESTS
    reports = serve_reports(num_requests)
    rows: List[List[object]] = [
        [
            report.algorithm,
            report.completed,
            report.served_gini,
            report.served_jains,
            report.producer_served,
            report.latency_p50,
            report.latency_p99,
        ]
        for report in reports
    ]
    return ExperimentResult(
        experiment_id="serve_fairness",
        description=(
            "Gini/Jain fairness of per-node served load under a Zipf "
            f"workload ({num_requests} requests, {GRID_SIDE}x{GRID_SIDE} "
            "grid, cheapest-cost selection)"
        ),
        headers=[
            "placement", "completed", "served gini", "served jain",
            "producer served", "p50 latency", "p99 latency",
        ],
        rows=rows,
        notes=[
            "expected shape: Appx served-load Gini below both baselines; "
            "hop-count concentrates serving on its few cache nodes",
        ],
    )
