"""Experiment runners — one module per evaluation artifact of the paper.

Each module exposes ``run(..., fast: bool = False) -> ExperimentResult``;
``REGISTRY`` maps experiment ids to runners for the CLI and the tests.
"""

from repro.experiments import (
    adaptive_drift,
    approximation_ratio,
    dist_faults,
    latency_model,
    online_churn,
    fig1_chunk_distribution,
    fig2_contention_cost,
    fig3_hop_limit,
    fig4_random_networks,
    fig5_running_time,
    fig6_percentile_fairness,
    fig7_gini,
    fig8_accumulated_cost,
    fig9_per_chunk,
    serve_fairness,
    table2_messages,
)
from repro.experiments.report import ExperimentResult, render_table
from repro.experiments.runner import (
    APPX,
    BRTF,
    CONT,
    DEFAULT_ALGORITHMS,
    DIST,
    GREEDY,
    HOPC,
    SOLVERS,
    run_algorithms,
    summarize,
    summarize_all,
)

REGISTRY = {
    "fig1": fig1_chunk_distribution.run,
    "fig2": fig2_contention_cost.run,
    "fig3": fig3_hop_limit.run,
    "fig4": fig4_random_networks.run,
    "fig5": fig5_running_time.run,
    "fig6": fig6_percentile_fairness.run,
    "fig7": fig7_gini.run,
    "fig8": fig8_accumulated_cost.run,
    "fig9": fig9_per_chunk.run,
    "table2": table2_messages.run,
    "adaptive": adaptive_drift.run,
    "approx_ratio": approximation_ratio.run,
    "dist_faults": dist_faults.run,
    "online_churn": online_churn.run,
    "latency_model": latency_model.run,
    "serve_fairness": serve_fairness.run,
}

__all__ = [
    "APPX",
    "BRTF",
    "CONT",
    "DEFAULT_ALGORITHMS",
    "DIST",
    "ExperimentResult",
    "GREEDY",
    "HOPC",
    "REGISTRY",
    "SOLVERS",
    "render_table",
    "run_algorithms",
    "summarize",
    "summarize_all",
]
