"""Golden digests of the adaptive control loop's epoch replays.

``tests/data/golden_adaptive.json`` pins, for each run below, the sha256
of :meth:`AdaptiveReport.to_json` (per-epoch costs, served Gini, drift,
every accepted move — every byte).  Each run serves four epochs of a
popularity-shift stream that reshuffles once per epoch, and churns one
cache holder at epoch 2, so the loop both moves replicas and re-solves
a chunk while every epoch replays the next window of one continuous
request stream.  The epoch sizes
place the windows against the stream's 8192-request batches:

* 1200 — every window sits inside one batch;
* 9000 — windows straddle batch boundaries and start mid-batch;
* 16384 — windows are exactly two batches.

Each size runs under the ``cheapest``, ``least-loaded`` and ``p2c``
selectors, with and without dead caches, on the batched engine; the
per-request engine replays the 1200-request runs.  Any change that hands
an epoch a different request, or replays one differently, fails here.

Regenerate (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_adaptive_golden
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveController
from repro.analysis.contracts import SERVE_EQUIVALENCE_MAX_REQUESTS
from repro.core.approximation import solve_approximation
from repro.serve import ServeConfig
from repro.serve.workloads import ShiftWorkload
from repro.workloads import random_problem

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_adaptive.json"

SEED = 2017
NODES = 40
CAPACITY = 3
RATE = 4.0
EPOCHS = 4
EPOCH_REQUESTS = (1200, 9000, 16384)
POLICIES = ("cheapest", "least-loaded", "p2c")
FAILURE_RATES = (0.0, 0.1)

#: (epoch requests, policy, failure rate, engine) per run.
CASES = [
    (epoch_requests, policy, failure_rate, engine)
    for epoch_requests in EPOCH_REQUESTS
    for policy in POLICIES
    for failure_rate in FAILURE_RATES
    for engine in (
        ("batched", "per-request") if epoch_requests == 1200
        else ("batched",)
    )
]


def case_id(case) -> str:
    epoch_requests, policy, failure_rate, engine = case
    return f"R{epoch_requests}/{policy}/f{failure_rate}/{engine}"


@lru_cache(maxsize=None)
def _problem():
    """The network and the first cache holder of its Algorithm 1 placement."""
    problem, _ = random_problem(NODES, seed=SEED, capacity=CAPACITY)
    holders = {
        node
        for chunk in solve_approximation(problem).chunks
        for node in chunk.caches
        if node != problem.producer
    }
    return problem, min(holders, key=str)


def report_digest(case) -> str:
    """Run one case; the sha256 of its adaptive report JSON."""
    epoch_requests, policy, failure_rate, engine = case
    problem, leaver = _problem()
    workload = ShiftWorkload(
        seed=SEED, rate=RATE, exponent=1.2,
        shift_period=epoch_requests / RATE,
    )
    config = AdaptiveConfig(
        epochs=EPOCHS,
        epoch_requests=epoch_requests,
        selection_policy=policy,
        serve=ServeConfig(failure_rate=failure_rate, seed=SEED,
                          engine=engine),
        churn_schedule=((2, leaver),),
    )
    report = AdaptiveController(problem, workload, config).run()
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_adaptive_matches_golden(golden, case, monkeypatch):
    # Epochs small enough for the sanitizer's shadow replay keep it on;
    # the larger ones would only add the move checks' fresh cost models.
    if case[0] > SERVE_EQUIVALENCE_MAX_REQUESTS:
        monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert report_digest(case) == golden[case_id(case)]


def main() -> None:
    golden = {case_id(case): report_digest(case) for case in CASES}
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
