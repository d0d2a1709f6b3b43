"""What a replay keeps per request.

Every completed request leaves one latency and one queue delay in the
engine's tallies.  As unboxed ``array("d")`` columns that is 16 bytes a
request, plus the report's sorted copy and fold; as lists of Python
floats it was about 64 bytes of tallies alone.  The bound below sits
midway between the two measured costs, from the ``tracemalloc`` peaks
of two replays of one stream (so the fixed cost of building an engine
cancels out): about 65–70 bytes a request with float lists, 21–23 with
float64 columns.
"""

from __future__ import annotations

import tracemalloc
from array import array
from functools import lru_cache

import pytest

from repro.core.approximation import solve_approximation
from repro.serve import WORKLOADS, ServeConfig, ServeEngine, serve_placement
from repro.serve.engine import request_stream
from repro.workloads import random_problem

SEED = 2017
#: Peak bytes a request may add to a replay, tallies and report included.
MAX_BYTES_PER_REQUEST = 45


@lru_cache(maxsize=None)
def _placement():
    problem, _ = random_problem(100, seed=SEED, capacity=5)
    return solve_approximation(problem)


def _peak(workload: str, policy: str, requests: int) -> int:
    """``tracemalloc`` peak of one ``serve_placement`` replay."""
    tracemalloc.start()
    try:
        serve_placement(
            _placement(), WORKLOADS[workload](seed=SEED), requests,
            policy=policy, config=ServeConfig(seed=SEED),
        )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "workload,policy,requests",
    [("zipf", "cheapest", 100_000), ("hotspot", "least-loaded", 50_000)],
    ids=["columnar", "heap"],
)
def test_replay_bytes_per_request(workload, policy, requests):
    # A short replay first, so first-use caches are not counted.
    _peak(workload, policy, 3000)
    small = requests // 5
    grown = _peak(workload, policy, requests) - _peak(workload, policy, small)
    assert grown / (requests - small) < MAX_BYTES_PER_REQUEST


@pytest.mark.parametrize(
    "policy,engine",
    [("cheapest", "batched"), ("least-loaded", "batched"),
     ("cheapest", "per-request")],
)
def test_tallies_are_float64_columns(policy, engine):
    placement = _placement()
    workload = WORKLOADS["zipf"](seed=SEED)
    replay = ServeEngine(placement, workload, 500, policy=policy)
    if engine == "per-request":
        report = replay.run_reference(
            request_stream(placement.problem, workload, 500)
        )
    else:
        report = replay.run(request_stream(placement.problem, workload, 500))
    for tally in (replay._latencies, replay._queue_delays):
        assert isinstance(tally, array) and tally.typecode == "d"
        assert len(tally) == report.completed == 500
