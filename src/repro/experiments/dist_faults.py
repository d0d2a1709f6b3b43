"""Loss / churn sweep — Algorithm 2 under an unreliable radio.

The paper evaluates the distributed algorithm on a reliable network; this
runner charts how it degrades when the :class:`~repro.distributed.faults.
FaultPlane` is engaged.  For each loss rate the protocol runs with
acknowledged retransmission (the realistic deployment shape) on a ≥200
node random network, and the sweep reports

* convergence time (mean bid-clock ticks per chunk),
* Table II message overhead (delivered messages, plus the fault-plane's
  drop / retransmission counts on top), and
* the placement-cost gap versus the centralized Algorithm 1 (``Appx``)
  run on the same instance.

A final row adds scheduled churn (a slice of nodes leaves mid-protocol,
half of them return) on top of the highest loss rate.  The ``loss=0``
row sets no fault knob, so the plane stays inactive and the row doubles
as a live check of the no-op contract: its cost gap is exactly the
fault-free gap.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.workloads import random_problem
from repro.distributed import DistributedConfig, solve_distributed
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import APPX, run_algorithms, summarize

#: Loss rates of the sweep (the ISSUE's evaluation grid).
LOSS_RATES = (0.0, 0.05, 0.1, 0.2)

#: Retransmission shape used for every faulty row.
RETX_TIMEOUT = 0.2
MAX_RETRIES = 3
JITTER = 0.005


def _churn_schedule(problem, fraction: float = 0.05) -> Tuple:
    """A deterministic churn timeline: ``fraction`` of the nodes leave at
    t=5 (mid-ascent), every second leaver rejoins at t=15."""
    nodes = [n for n in problem.graph.nodes() if n != problem.producer]
    count = max(1, int(len(nodes) * fraction))
    leavers = nodes[:: max(1, len(nodes) // count)][:count]
    schedule = [(5.0, node, "leave") for node in leavers]
    schedule.extend((15.0, node, "join") for node in leavers[::2])
    return tuple(schedule)


def run(
    num_nodes: int = 200,
    seed: int = 2017,
    num_chunks: int = 3,
    loss_rates: Sequence[float] = LOSS_RATES,
    fast: bool = False,
) -> ExperimentResult:
    """Sweep loss (and one churn point) on a random network."""
    if fast:
        num_nodes = 40
        num_chunks = 2
    problem, _ = random_problem(num_nodes, seed=seed, num_chunks=num_chunks)
    appx_cost = summarize(
        APPX, run_algorithms(problem, [APPX])[APPX]
    ).total_cost

    rows: List[List[object]] = []

    def _row(label: str, config: DistributedConfig) -> None:
        outcome = solve_distributed(problem, config)
        outcome.placement.validate()
        cost = summarize("Dist", outcome.placement).total_cost
        ticks = outcome.ticks_per_chunk
        mean_ticks = sum(ticks) / len(ticks) if ticks else 0.0
        faults = outcome.faults
        rows.append([
            label,
            round(mean_ticks, 1),
            outcome.stats.total_messages(),
            faults.stats.total_drops() if faults else 0,
            faults.stats.total_retx() if faults else 0,
            faults.total_unserved if faults else 0,
            round(cost / appx_cost, 4),
        ])

    for loss in loss_rates:
        if loss == 0:
            config = DistributedConfig()
            label = "loss=0 (no faults)"
        else:
            config = DistributedConfig(
                loss_rate=loss,
                jitter=JITTER,
                retx_timeout=RETX_TIMEOUT,
                max_retries=MAX_RETRIES,
                fault_seed=seed,
            )
            label = f"loss={loss:g}"
        _row(label, config)

    churn = _churn_schedule(problem)
    _row(
        f"loss={loss_rates[-1]:g} + churn({len(churn)} events)",
        DistributedConfig(
            loss_rate=loss_rates[-1],
            jitter=JITTER,
            retx_timeout=RETX_TIMEOUT,
            max_retries=MAX_RETRIES,
            churn_schedule=churn,
            fault_seed=seed,
        ),
    )

    return ExperimentResult(
        experiment_id="dist_faults",
        description=f"Algorithm 2 under radio faults ({num_nodes}-node "
        f"random network, seed {seed}, {num_chunks} chunks; retransmission "
        f"timeout {RETX_TIMEOUT}, {MAX_RETRIES} retries)",
        headers=[
            "scenario", "mean_ticks", "messages", "drops", "retx",
            "unserved", "cost_vs_appx",
        ],
        rows=rows,
        notes=[
            "cost_vs_appx = Dist total contention cost / centralized "
            "Algorithm 1 cost on the same instance (1.0 = parity)",
            "unserved counts node-chunk assignments that fell back to the "
            "producer after the retry budget ran dry or the node churned "
            "out permanently",
        ],
    )
