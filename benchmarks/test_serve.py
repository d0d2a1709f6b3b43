"""Served-load fairness — the request-plane claim behind Figs. 6–7.

The paper shows Algorithm 1 places chunks fairly (storage Gini < 0.4);
this bench asserts the fairness *survives serving*: replaying a Zipf
request stream on the Sec. V-A grid, the per-node served-load Gini of
the Appx placement stays below both the hop-count and the random
baseline, and the whole replay is deterministic at scale.
"""

from repro.experiments import serve_fairness

from conftest import column_of, series, full_mode


def test_serve_fairness(run_experiment):
    result = run_experiment(serve_fairness.run)

    gini = {
        row[0]: column_of(series(result, placement=row[0]), result,
                          "served gini")[0]
        for row in result.rows
    }
    assert set(gini) == {"approximation", "hopcount", "random"}

    # The headline ordering: the paper's fair placement serves fairly.
    assert gini["approximation"] < gini["hopcount"]
    assert gini["approximation"] < gini["random"]
    # Hop-count piles every copy on a couple of central nodes, so almost
    # all serving concentrates there.
    assert gini["hopcount"] > 0.75
    assert gini["approximation"] < 0.55

    # Every request completes (producer fallback guarantees service).
    completed = column_of(result.rows, result, "completed")
    requested = serve_fairness.NUM_REQUESTS if full_mode() \
        else serve_fairness.FAST_REQUESTS
    assert all(value == requested for value in completed)


def test_serve_deterministic_at_scale(benchmark):
    """Two large replays (≥10k requests) are byte-identical."""
    from repro.core import solve_approximation
    from repro.serve import ZipfWorkload, serve_placement
    from repro.workloads import grid_problem

    requests = 50_000 if full_mode() else 10_000
    placement = solve_approximation(grid_problem(6))
    workload = ZipfWorkload(seed=2017)

    first = benchmark.pedantic(
        serve_placement, args=(placement, workload, requests),
        rounds=1, iterations=1,
    )
    second = serve_placement(placement, workload, requests)
    assert first.to_json() == second.to_json()
    assert first.completed == requests


def test_batched_engine_at_scale(benchmark):
    """The batched hot path reproduces the per-request report at scale.

    Times the batched engine on a large replay (the number the docs
    quote), then replays the same stream through the original
    per-request event loop (``ServeEngine.run_reference``) and asserts
    the two reports are byte-identical — the determinism contract of
    docs/SCALING.md.
    """
    from repro.core import solve_approximation
    from repro.serve import (
        ServeConfig,
        ServeEngine,
        ZipfWorkload,
        serve_placement,
    )
    from repro.serve.engine import request_stream
    from repro.workloads import grid_problem

    requests = 200_000 if full_mode() else 10_000
    placement = solve_approximation(grid_problem(6))
    workload = ZipfWorkload(seed=2017)

    batched = benchmark.pedantic(
        serve_placement, args=(placement, workload, requests),
        kwargs={"config": ServeConfig(failure_rate=0.2)},
        rounds=1, iterations=1,
    )
    per_request = ServeEngine(
        placement, workload, requests, config=ServeConfig(failure_rate=0.2)
    ).run_reference(request_stream(placement.problem, workload, requests))
    assert batched.to_json() == per_request.to_json()
    assert batched.completed == requests
