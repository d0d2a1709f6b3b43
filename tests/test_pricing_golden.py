"""Golden digests of the access-cost pricing the adaptive loop and commit read.

``tests/data/golden_pricing.json`` pins three outputs that price every
access as the cheapest Eq. 2 cost ``c_ij`` over a chunk's holders plus
the producer:

* ``adapt/contention`` — the sha256 of :meth:`AdaptiveReport.to_json`
  for a 40-node problem under the ``"contention"`` path policy (rows
  rebuilt by Dijkstra after every storage change), ``hybrid`` adaptive
  policy, one churned cache holder at epoch 2 and 10 % dead caches;
* ``adapt/bench100`` — the same digest for a run shaped like the
  benchmark's adapt-shift-churn operation: 100 nodes, capacity 3,
  six epochs of 10 000 shift requests whose popularity reshuffles every
  two epochs, churn at epochs 2 and 4, ``cheapest`` selection;
* ``assignment/n300/<policy>`` — every client → server map that
  :func:`~repro.core.commit.nearest_server_assignment` returns on a
  300-node problem, for cache sets of 0 to 120 nodes committed one
  chunk after another (occupancy grows, so costs and ties shift), plus
  each chunk's access stage cost.

Regenerate (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_pricing_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.approximation import solve_approximation
from repro.core.commit import commit_chunk, nearest_server_assignment
from repro.core.costs import PATH_POLICY_CONTENTION, PATH_POLICY_HOPS
from repro.serve import ServeConfig
from repro.serve.workloads import ShiftWorkload
from repro.workloads import random_problem

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_pricing.json"

SEED = 2017

#: Cache-set sizes of the successive committed chunks in the 300-node case.
ASSIGNMENT_CACHES = (0, 1, 7, 40, 120)

CASES = [
    "adapt/contention",
    "adapt/bench100",
    f"assignment/n300/{PATH_POLICY_HOPS}",
    f"assignment/n300/{PATH_POLICY_CONTENTION}",
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _contention_report() -> str:
    problem, _ = random_problem(
        40, seed=SEED, capacity=3, path_policy=PATH_POLICY_CONTENTION
    )
    leaver = min(
        (
            node
            for chunk in solve_approximation(problem).chunks
            for node in chunk.caches
        ),
        key=str,
    )
    config = AdaptiveConfig(
        epochs=4,
        epoch_requests=3000,
        policy="hybrid",
        serve=ServeConfig(failure_rate=0.1, seed=SEED),
        churn_schedule=((2, leaver),),
    )
    workload = ShiftWorkload(
        seed=SEED, rate=4.0, exponent=1.2, shift_period=3000 / 4.0
    )
    return AdaptiveController(problem, workload, config).run().to_json()


def _bench_report() -> str:
    epoch_requests = 10_000
    rate = 4.0
    problem, _ = random_problem(100, seed=SEED, num_chunks=5, capacity=3)
    candidates = sorted(
        (n for n in problem.graph.nodes() if n != problem.producer), key=str
    )
    leavers = random.Random(SEED).sample(candidates, 2)
    config = AdaptiveConfig(
        epochs=6,
        epoch_requests=epoch_requests,
        policy="hybrid",
        selection_policy="cheapest",
        serve=ServeConfig(seed=SEED),
        churn_schedule=tuple(zip((2, 4), leavers)),
    )
    workload = ShiftWorkload(
        seed=SEED, rate=rate, exponent=1.2,
        shift_period=2 * epoch_requests / rate,
    )
    return AdaptiveController(problem, workload, config).run().to_json()


def _assignments(path_policy: str) -> str:
    problem, _ = random_problem(
        300, seed=SEED, num_chunks=len(ASSIGNMENT_CACHES), capacity=3,
        path_policy=path_policy,
    )
    state = problem.new_state()
    rng = random.Random(SEED)
    pinned = []
    for chunk, size in enumerate(ASSIGNMENT_CACHES):
        eligible = sorted(
            (node for node in problem.clients if state.can_cache(node)),
            key=str,
        )
        caches = rng.sample(eligible, size)
        assignment = nearest_server_assignment(state.costs, problem, caches)
        placement = commit_chunk(state, chunk, caches)
        assert placement.assignment == assignment
        pinned.append(
            {
                "caches": [str(node) for node in caches],
                "assignment": [
                    [str(client), str(server)]
                    for client, server in assignment.items()
                ],
                "access": placement.stage_cost.access,
            }
        )
    return json.dumps(pinned, sort_keys=True)


@lru_cache(maxsize=None)
def digest(case: str) -> str:
    if case == "adapt/contention":
        return _sha256(_contention_report())
    if case == "adapt/bench100":
        return _sha256(_bench_report())
    return _sha256(_assignments(case.rsplit("/", 1)[1]))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_pricing_matches_golden(golden, case):
    assert digest(case) == golden[case]


def main() -> None:
    golden = {case: digest(case) for case in CASES}
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
