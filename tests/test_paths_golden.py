"""Golden digests of the cost model's paths and cost rows.

``tests/data/golden_paths.json`` pins, under both path policies
(``hops`` and ``contention``), what :class:`~repro.core.costs.CostModel`
answers on a 6×6 grid and on ``random_problem(60, seed=2017)``:

* ``paths``: one sha256 over ``CostModel.path(s, t)`` for every ordered
  pair of nodes in graph order, nodes by ``repr``;
* ``rows``: one sha256 over every source's ``cost_rows`` row (targets in
  graph order, floats by ``repr``).

Each is taken three times on one solver state: empty, then after each
of two Algorithm 1 (Appx) commits, the solver running under the same
policy.  Under ``hops`` the later rows are incremental patches of the
first; under ``contention`` every commit reroutes.

It also pins the placements of the static baselines (Hopc and Cont,
``solve_static_baseline``) on both topologies and on ``tail4``: a 4×4
grid whose producer hangs off it by a two-edge tail.  With capacity 1
the tail's middle node is consumed in the third round, which leaves the
producer outside the largest component, so the multi-item recursion
anchors on the component node nearest to it.

A 300-node case (paths and rows) is pinned too but is too slow for the
test suite; check it with::

    PYTHONPATH=src python -m tests.test_paths_golden --size 300

Regenerate every entry (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_paths_golden
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.baselines.multi_item import solve_static_baseline
from repro.core.approximation import ApproximationConfig, place_one_chunk
from repro.core.problem import CachingProblem
from repro.graphs import grid_graph
from repro.workloads import grid_problem, random_problem
from tests.test_confl_readers_golden import placement_digest

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_paths.json"

SEED = 2017
POLICIES = ("hops", "contention")
COMMITS = 2

#: case id -> node count of its topology.
CASES: Dict[str, int] = {"grid6": 36, "rgg60": 60}
#: Pinned, but checked only from the command line (``--size 300``).
SLOW_CASES: Dict[str, int] = {"rgg300": 300}
BASELINE_CASES = ("grid6", "rgg60", "tail4")
METRICS = ("hops", "contention")


def _tail_problem(**options) -> CachingProblem:
    graph = grid_graph(4)
    graph.add_edge("P", "h")
    graph.add_edge("h", 0)
    return CachingProblem(
        graph=graph, producer="P", num_chunks=8, capacity=1, **options
    )


def _problem(case: str, **options) -> CachingProblem:
    if case == "grid6":
        return grid_problem(6, **options)
    if case == "tail4":
        return _tail_problem(**options)
    problem, _ = random_problem(int(case[3:]), seed=SEED, **options)
    return problem


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(json.dumps(line).encode("utf-8") + b"\n")
    return digest.hexdigest()


def state_record(costs, nodes) -> Dict[str, str]:
    """The sha256s of every path and every cost row of one state."""
    paths = _digest(
        [repr(node) for node in costs.path(s, t)] for s in nodes for t in nodes
    )
    rows = _digest(
        [repr(s), [repr(c) for c in costs.cost_rows([s], nodes)[0].tolist()]]
        for s in nodes
    )
    return {"paths": paths, "rows": rows}


def run_case(case: str) -> Dict[str, Any]:
    """Per policy: one record at the empty state and after each commit."""
    record: Dict[str, Any] = {}
    for policy in POLICIES:
        problem = _problem(case, path_policy=policy)
        nodes = list(problem.graph.nodes())
        state = problem.new_state()
        stages = [state_record(state.costs, nodes)]
        for chunk in range(COMMITS):
            place_one_chunk(state, chunk, ApproximationConfig())
            stages.append(state_record(state.costs, nodes))
        record[policy] = stages
    return record


def baseline_record(case: str) -> Dict[str, str]:
    """The placement digests of Hopc and Cont on one topology."""
    problem = _problem(case)
    return {
        metric: placement_digest(solve_static_baseline(problem, metric))
        for metric in METRICS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted({**CASES, **SLOW_CASES})
    assert sorted(golden["baselines"]) == sorted(BASELINE_CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_paths_and_rows_match_golden(golden, case):
    assert run_case(case) == golden["cases"][case]


@pytest.mark.parametrize("case", BASELINE_CASES)
def test_static_baselines_match_golden(golden, case):
    assert baseline_record(case) == golden["baselines"][case]


def regenerate() -> None:
    golden = {
        "cases": {
            case: run_case(case) for case in sorted({**CASES, **SLOW_CASES})
        },
        "baselines": {case: baseline_record(case) for case in BASELINE_CASES},
    }
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


def check_size(nodes: int) -> int:
    """Check every pinned case of ``nodes`` nodes; 0 when all match."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cases"]
    cases = [
        case for case, size in {**CASES, **SLOW_CASES}.items() if size == nodes
    ]
    if not cases:
        print(f"no pinned case has {nodes} nodes", file=sys.stderr)
        return 2
    failed = 0
    for case in sorted(cases):
        ok = run_case(case) == golden[case]
        failed += not ok
        print(f"{case}: {'ok' if ok else 'MISMATCH'}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--size", type=int, default=None,
        help="check the pinned cases of this many nodes instead of "
        "regenerating the golden file",
    )
    args = parser.parse_args(argv)
    if args.size is not None:
        return check_size(args.size)
    regenerate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
