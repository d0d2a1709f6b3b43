"""Golden digests of the final-state metrics every figure reads.

``tests/data/golden_metrics.json`` pins, for each problem below under
both path policies (``"hops"`` and ``"contention"``):

* ``<problem>/<policy>/<algorithm>/contention/<reassign>`` — the sha256
  of :func:`~repro.metrics.evaluate_contention`'s report (access,
  dissemination and both per-chunk maps, floats by ``repr``), with
  ``reassign`` True (nearest final copy) and False (recorded
  assignment);
* ``<problem>/<policy>/<algorithm>/latency/<reassign>`` — the sha256 of
  :func:`~repro.delay.latency_report`'s per-fetch latencies and
  per-chunk completion times, for the same two modes;
* ``<problem>/<policy>/<algorithm>/placement`` — the sha256 of the
  Hopc and Cont placements themselves (caches, assignment in dict
  order, tree edges and stage costs).

The algorithms are Appx, Dist, Hopc, Cont and the seeded random
baseline.  The problems are ``grid_problem(6)`` (a grid: many equal-cost
ties between copies) and ``random_problem(n, seed=2017)`` for ``n`` in
100 and 200.  Every problem is labelled by ints, whose hash order does
not depend on ``PYTHONHASHSEED``.

Regenerate (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_metrics_golden
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.baselines import solve_contention, solve_hopcount, solve_random
from repro.core.approximation import solve_approximation
from repro.core.costs import PATH_POLICY_CONTENTION, PATH_POLICY_HOPS
from repro.core.placement import CachePlacement
from repro.core.problem import CachingProblem
from repro.delay import latency_report
from repro.distributed import solve_distributed
from repro.metrics import evaluate_contention
from repro.workloads import grid_problem, random_problem

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_metrics.json"

SEED = 2017

PROBLEMS = ("grid6", "n100", "n200")
POLICIES = (PATH_POLICY_HOPS, PATH_POLICY_CONTENTION)
SOLVERS = {
    "appx": solve_approximation,
    "dist": lambda problem: solve_distributed(problem).placement,
    "hopc": solve_hopcount,
    "cont": solve_contention,
    "random": solve_random,
}
#: Algorithms whose placement is pinned as well as its metrics.
PINNED_PLACEMENTS = ("hopc", "cont")


def _cases() -> List[str]:
    cases = []
    for problem in PROBLEMS:
        for policy in POLICIES:
            for algorithm in SOLVERS:
                prefix = f"{problem}/{policy}/{algorithm}"
                for metric in ("contention", "latency"):
                    for reassign in ("reassign", "recorded"):
                        cases.append(f"{prefix}/{metric}/{reassign}")
                if algorithm in PINNED_PLACEMENTS:
                    cases.append(f"{prefix}/placement")
    return cases


CASES = _cases()


def _sha256(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _problem(name: str, policy: str) -> CachingProblem:
    if name == "grid6":
        return grid_problem(6, path_policy=policy)
    problem, _ = random_problem(int(name[1:]), seed=SEED, path_policy=policy)
    return problem


@lru_cache(maxsize=None)
def _placement(problem: str, policy: str, algorithm: str) -> CachePlacement:
    return SOLVERS[algorithm](_problem(problem, policy))


def _placement_payload(placement: CachePlacement) -> List[Dict[str, Any]]:
    return [
        {
            "chunk": chunk.chunk,
            "caches": sorted(chunk.caches),
            "assignment": [
                [client, server] for client, server in chunk.assignment.items()
            ],
            "tree_edges": sorted(sorted(key) for key in chunk.tree_edges),
            "stage_cost": [
                chunk.stage_cost.fairness,
                chunk.stage_cost.access,
                chunk.stage_cost.dissemination,
            ],
        }
        for chunk in placement.chunks
    ]


def _metric_payload(placement: CachePlacement, metric: str, reassign: bool):
    if metric == "contention":
        report = evaluate_contention(placement, reassign=reassign)
        return {
            "access": report.access,
            "dissemination": report.dissemination,
            "per_chunk_access": sorted(report.per_chunk_access.items()),
            "per_chunk_dissemination": sorted(
                report.per_chunk_dissemination.items()
            ),
        }
    latency = latency_report(placement, reassign=reassign)
    return {
        "fetch_latencies": list(latency.fetch_latencies),
        "per_chunk_completion": sorted(latency.per_chunk_completion.items()),
    }


@lru_cache(maxsize=None)
def digest(case: str) -> str:
    problem, policy, algorithm, *rest = case.split("/")
    placement = _placement(problem, policy, algorithm)
    if rest == ["placement"]:
        return _sha256(_placement_payload(placement))
    metric, mode = rest
    return _sha256(_metric_payload(placement, metric, mode == "reassign"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_metrics_match_golden(golden, case):
    assert digest(case) == golden[case]


def main() -> None:
    golden = {case: digest(case) for case in CASES}
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
