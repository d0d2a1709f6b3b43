"""The benchmark's workloads: seeded inputs, one timed operation, checks.

Each :class:`Workload` turns the benchmark seed into a *pool* of inputs
(``setup``), runs one user-visible operation on one input (``op``, the
only timed call) and turns the operation's result into an
:class:`Outcome` (``check``): the canonical artifact whose sha256 is
compared against the committed goldens, plus the figures the results
file reports.  ``check`` raises :class:`CheckFailed` when an output is
wrong; the runner counts that operation as failed.

The library only ever receives the generated inputs: graphs, placements,
workload objects and configs built here from the seed.  Sizes are
constants of this module; :data:`PROBES` holds the same workloads at
toy sizes, which the runner replays at the golden seed on every run so
a change in what the library computes is caught whatever seed the
benchmark was given.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro import random_problem, solve_approximation, solve_distributed
from repro.adaptive import AdaptiveConfig, AdaptiveController
from repro.experiments.runner import summarize
from repro.io import placement_to_dict
from repro.serve import HotspotWorkload, ServeConfig, ZipfWorkload, serve_placement
from repro.serve.workloads import WORKLOADS as REQUEST_WORKLOADS

#: The seed whose outputs ``golden/seed2017.json`` pins.
GOLDEN_SEED = 2017

#: Stride between the seeds of consecutive pool inputs (the stride
#: ``repro.workloads.random_sweep`` uses between runs).
SEED_STRIDE = 7919

NUM_CHUNKS = 5


class CheckFailed(Exception):
    """An operation returned a wrong or invalid output."""


@dataclass(frozen=True)
class Outcome:
    """What one operation produced, reduced to what the benchmark checks.

    ``artifact`` is canonical JSON text: equal outputs give equal text.
    ``figures`` are the output's quality numbers for the results file:
    costs, the load-fairness Gini coefficient (the paper's fairness
    measure), tail latency.  They are not gated; the digest is.
    """

    artifact: str
    figures: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.artifact.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``setup(seed)`` returns the input pool; operation ``i`` of a run uses
    ``pool[i % len(pool)]``.  ``op(input)`` is the timed call and
    ``check(input, result)`` validates its result.
    """

    name: str
    params: Dict[str, Any]
    setup: Callable[[int], List[Any]]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], Outcome]


def canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _placement_document(placement) -> Dict[str, Any]:
    """``placement_to_dict`` with its set-derived lists in sorted order."""
    document = placement_to_dict(placement)
    for chunk in document["chunks"]:
        chunk["assignment"].sort(key=canonical)
        chunk["tree_edges"] = sorted(
            (sorted(edge, key=canonical) for edge in chunk["tree_edges"]),
            key=canonical,
        )
    return document


def _problem(nodes: int, seed: int, capacity: int):
    problem, _ = random_problem(
        nodes, seed=seed, num_chunks=NUM_CHUNKS, capacity=capacity
    )
    return problem


# -- solve: Algorithm 1 and Algorithm 2 on random geometric networks ----

def solve_workload(nodes: int, pool: int) -> Workload:
    def setup(seed: int) -> List[Any]:
        return [
            _problem(nodes, seed + SEED_STRIDE * i, capacity=5)
            for i in range(pool)
        ]

    def op(problem):
        return solve_approximation(problem), solve_distributed(problem)

    def check(problem, result) -> Outcome:
        appx, dist = result
        appx.validate()
        dist.placement.validate()
        appx_summary = summarize("Appx", appx)
        dist_summary = summarize("Dist", dist.placement)
        messages = dict(sorted(dist.stats.messages.items()))
        return Outcome(
            artifact=canonical(
                {
                    "appx": _placement_document(appx),
                    "dist": _placement_document(dist.placement),
                    "dist_messages": messages,
                }
            ),
            figures={
                "appx_total_cost": appx_summary.total_cost,
                "appx_gini": appx_summary.gini,
                "dist_total_cost": dist_summary.total_cost,
                "dist_gini": dist_summary.gini,
                "dist_messages": float(sum(messages.values())),
            },
        )

    return Workload(
        name="solve-rgg200",
        params={"nodes": nodes, "chunks": NUM_CHUNKS, "capacity": 5,
                "pool": pool, "algorithms": ["Appx", "Dist"]},
        setup=setup,
        op=op,
        check=check,
    )


# -- serve: request replays against Algorithm 1 placements ------------

def _serve_workload(
    name: str,
    nodes: int,
    requests: int,
    policy: str,
    request_workload: Callable[[int], Any],
    failure_rate: float,
    placements: int,
    pool: int,
) -> Workload:
    def setup(seed: int) -> List[Any]:
        solved = []
        for j in range(placements):
            placement = solve_approximation(
                _problem(nodes, seed + SEED_STRIDE * j, capacity=5)
            )
            placement.validate()
            solved.append(placement)
        return [
            (
                solved[i % placements],
                request_workload(seed + SEED_STRIDE * i),
                ServeConfig(seed=seed + SEED_STRIDE * i,
                            failure_rate=failure_rate),
            )
            for i in range(pool)
        ]

    def op(inputs):
        placement, workload, config = inputs
        return serve_placement(placement, workload, requests,
                               policy=policy, config=config)

    def check(inputs, report) -> Outcome:
        if report.completed != requests:
            raise CheckFailed(
                f"{name}: {report.completed} of {requests} requests completed"
            )
        return Outcome(
            artifact=report.to_json(),
            figures={
                "served_gini": report.served_gini,
                "latency_p99_sim_s": report.latency_p99,
                "failovers": float(report.failovers),
                "producer_served": float(report.producer_served),
            },
        )

    return Workload(
        name=name,
        params={"nodes": nodes, "chunks": NUM_CHUNKS, "capacity": 5,
                "requests": requests, "policy": policy,
                "failure_rate": failure_rate, "placements": placements,
                "pool": pool, "engine": "batched"},
        setup=setup,
        op=op,
        check=check,
    )


def zipf_workload(nodes: int, requests: int) -> Workload:
    return _serve_workload(
        name="serve-zipf",
        nodes=nodes,
        requests=requests,
        policy="cheapest",
        request_workload=lambda seed: ZipfWorkload(seed=seed, rate=0.5,
                                                   exponent=0.8),
        failure_rate=0.0,
        placements=1,
        pool=1,
    )


def hotspot_workload(nodes: int, requests: int, placements: int,
                     pool: int) -> Workload:
    return _serve_workload(
        name="serve-hotspot-ll",
        nodes=nodes,
        requests=requests,
        policy="least-loaded",
        request_workload=lambda seed: HotspotWorkload(seed=seed, rate=1.0),
        failure_rate=0.1,
        # The least-loaded scan costs what a placement's replica counts
        # and dead caches make it cost: several placements and dead-cache
        # draws per run keep one network from setting the run's median.
        placements=placements,
        pool=pool,
    )


# -- adapt: the closed control loop under popularity drift and churn ----

def adapt_workload(nodes: int, epochs: int, epoch_requests: int,
                   churn_epochs: Sequence[int], pool: int) -> Workload:
    rate = 4.0
    # Popularity reshuffles every two epochs: the EWMA estimator lags by
    # about one epoch, so a shorter period leaves nothing to chase.
    shift_period = 2 * epoch_requests / rate

    def one_input(seed: int):
        problem = _problem(nodes, seed, capacity=3)
        candidates = sorted(
            (n for n in problem.graph.nodes() if n != problem.producer),
            key=str,
        )
        leavers = random.Random(seed).sample(candidates, len(churn_epochs))
        workload = REQUEST_WORKLOADS["shift"](
            seed=seed, rate=rate, exponent=1.2, shift_period=shift_period
        )
        config = AdaptiveConfig(
            epochs=epochs,
            epoch_requests=epoch_requests,
            policy="hybrid",
            serve=ServeConfig(seed=seed),
            churn_schedule=tuple(zip(churn_epochs, leavers)),
        )
        return problem, workload, config

    def setup(seed: int) -> List[Any]:
        return [one_input(seed + SEED_STRIDE * i) for i in range(pool)]

    def op(inputs):
        controller = AdaptiveController(*inputs)
        return controller, controller.run()

    def check(inputs, result) -> Outcome:
        controller, report = result
        controller.final_placement.validate()
        served = [record.requests for record in report.epoch_records]
        if served != [epoch_requests] * epochs:
            raise CheckFailed(f"adaptive epochs served {served}")
        return Outcome(
            artifact=report.to_json(),
            figures={
                "last_epoch_served_gini": report.epoch_records[-1].served_gini,
                "savings": report.savings,
                "moves": float(report.total_moves),
                "resolves": float(report.total_resolves),
            },
        )

    return Workload(
        name="adapt-shift-churn",
        params={"nodes": nodes, "chunks": NUM_CHUNKS, "capacity": 3,
                "epochs": epochs, "epoch_requests": epoch_requests,
                "request_workload": "shift", "rate": rate, "exponent": 1.2,
                "shift_period": shift_period, "policy": "hybrid",
                "churn_epochs": list(churn_epochs), "pool": pool},
        setup=setup,
        op=op,
        check=check,
    )


def _by_name(*workloads: Workload) -> Dict[str, Workload]:
    return {workload.name: workload for workload in workloads}


#: The benchmark's workloads by name, in run order.
WORKLOADS = _by_name(
    solve_workload(nodes=200, pool=12),
    zipf_workload(nodes=200, requests=250_000),
    hotspot_workload(nodes=200, requests=50_000, placements=3, pool=9),
    adapt_workload(nodes=100, epochs=6, epoch_requests=10_000,
                   churn_epochs=(2, 2, 4), pool=8),
)

#: The golden probe of each workload: the same code at toy sizes.
PROBES = _by_name(
    solve_workload(nodes=30, pool=1),
    zipf_workload(nodes=30, requests=20_000),
    hotspot_workload(nodes=30, requests=5_000, placements=1, pool=1),
    adapt_workload(nodes=30, epochs=4, epoch_requests=1_000,
                   churn_epochs=(1, 1, 2), pool=1),
)
