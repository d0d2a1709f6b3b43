"""Golden digests of load-aware replica selection on both serve engines.

``tests/data/golden_serve_selection.json`` pins, for each replay below,
the sha256 of :meth:`ServeReport.to_json` (latency floats, served loads,
failover counts — every byte).  The replays cover the two load-dependent
policies (``least-loaded`` and ``p2c``) on hotspot and Zipf request
streams, with no, some and many dead caches, on seeded 100- and 200-node
Algorithm 1 placements, through the batched and the per-request engine.
At rate 2.0 the 100-node replays keep most replicas busy and the 200-node
ones mostly idle, so both sides of a load-aware choice are exercised.
Any change to a selector that moves a single request to another replica
fails here.

Regenerate (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_serve_selection_golden
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.approximation import solve_approximation
from repro.serve import WORKLOADS, ServeConfig, serve_placement
from repro.workloads import random_problem

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_serve_selection.json"

SEED = 2017
CAPACITY = 5
RATE = 2.0
REQUESTS = 2000
POLICIES = ("least-loaded", "p2c")
REQUEST_WORKLOADS = ("hotspot", "zipf")
FAILURE_RATES = (0.0, 0.1, 0.3)
NODES = (100, 200)
ENGINES = ("batched", "per-request")

#: (policy, request workload, failure rate, nodes, engine) per replay.
CASES = [
    (policy, workload, failure_rate, nodes, engine)
    for policy in POLICIES
    for workload in REQUEST_WORKLOADS
    for failure_rate in FAILURE_RATES
    for nodes in NODES
    for engine in ENGINES
]


def case_id(case) -> str:
    policy, workload, failure_rate, nodes, engine = case
    return f"{policy}/{workload}/f{failure_rate}/random{nodes}/{engine}"


@lru_cache(maxsize=None)
def _placement(nodes: int):
    problem, _ = random_problem(nodes, seed=SEED, capacity=CAPACITY)
    return solve_approximation(problem)


def report_digest(case) -> str:
    """Replay one case; the sha256 of its report JSON."""
    policy, workload, failure_rate, nodes, engine = case
    report = serve_placement(
        _placement(nodes),
        WORKLOADS[workload](seed=SEED, rate=RATE),
        REQUESTS,
        policy=policy,
        config=ServeConfig(failure_rate=failure_rate, seed=SEED,
                           engine=engine),
    )
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_serve_selection_matches_golden(golden, case, monkeypatch):
    # A digest check: the per-request engine cases already replay what
    # the sanitizer's shadow run would, so skip the doubled cost.
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
