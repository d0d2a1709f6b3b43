"""Golden digests of every solver that reads ConFL connection costs.

``tests/data/golden_confl_readers.json`` pins what the readers of
:class:`~repro.core.confl.ConFLInstance` connection costs compute:

* ``placements``: the sha256 of ``placement_to_dict`` (canonical: keys
  sorted, tree edges in sorted order, floats by ``repr``) of GreedyFair
  (``solve_greedy_confl``) and Brtf (``solve_exact``), and of every
  per-chunk :class:`DualAscentResult` of Algorithm 1, on a 4×4 grid and
  a 12-node random network under both path policies and at contention
  weights 1.0 and 0.7.  Non-integer weights make the connection costs
  non-integer, so a reader that changes the order of a float sum (a
  dual-ascent payment, an access cost) moves a digest here, where the
  hop-cost ``golden_dual_ascent.json`` cannot see it.
* ``brtf_kmb``: the same Brtf digest on a 6×6 grid (``hops``, weight
  1.0) and a 30-node random network (``contention``, weight 0.7), where
  every final set has more than ``MAX_EXACT_TERMINALS`` terminals: the
  descent and the final trees are all KMB-priced.
* ``enumeration``: per chunk of a 3×3 grid, the ``enumerate_optimal``
  result and the ``build_chunk_model`` objective coefficients of the
  ``y``, ``x`` and ``z`` columns, in column order.

Regenerate (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_confl_readers_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.baselines import solve_greedy_confl
from repro.core import build_confl_instance, dual_ascent
from repro.core.commit import commit_chunk
from repro.exact import build_chunk_model, enumerate_optimal, solve_exact
from repro.io import placement_to_dict
from repro.workloads import grid_problem, random_problem
from tests.test_dual_ascent_golden import canonical as dual_canonical

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_confl_readers.json"

SEED = 2017
POLICIES = ("hops", "contention")
WEIGHTS = (1.0, 0.7)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _problem(name: str, policy: str, weight: float):
    options = {"path_policy": policy, "contention_weight": weight}
    if name == "grid4":
        return grid_problem(4, **options)
    if name == "grid3":
        return grid_problem(3, **options)
    if name == "grid6":
        return grid_problem(6, **options)
    size = 30 if name == "random30" else 12
    problem, _ = random_problem(size, seed=SEED, **options)
    return problem


def _case(name: str, policy: str, weight: float) -> str:
    return f"{name}-{policy}-w{weight}"


PLACEMENT_CASES = [
    _case(name, policy, weight)
    for name in ("grid4", "random12")
    for policy in POLICIES
    for weight in WEIGHTS
]
KMB_CASES = [_case("grid6", "hops", 1.0), _case("random30", "contention", 0.7)]
ENUMERATION_CASES = [
    _case("grid3", policy, weight) for policy in POLICIES for weight in WEIGHTS
]


def _parse(case: str):
    name, policy, weight = case.split("-")
    return _problem(name, policy, float(weight[1:]))


def placement_digest(placement) -> str:
    """Digest of ``placement_to_dict`` with tree edges in sorted order."""
    document = placement_to_dict(placement)
    for chunk in document["chunks"]:
        chunk["tree_edges"] = sorted(
            (sorted(edge, key=json.dumps) for edge in chunk["tree_edges"]),
            key=json.dumps,
        )
    return _digest(json.dumps(document, sort_keys=True))


def dual_ascent_digests(problem) -> List[str]:
    """Algorithm 1 chunk by chunk; one result digest per chunk."""
    state = problem.new_state()
    digests = []
    for chunk in problem.chunks:
        result = dual_ascent(build_confl_instance(state))
        digests.append(_digest(dual_canonical(result)))
        commit_chunk(state, chunk, list(result.admins))
    return digests


def placement_record(case: str) -> Dict[str, Any]:
    problem = _parse(case)
    return {
        "greedy": placement_digest(solve_greedy_confl(problem)),
        "brtf": placement_digest(solve_exact(problem)),
        "dual_ascent": dual_ascent_digests(problem),
    }


def enumeration_record(case: str) -> List[Dict[str, str]]:
    """Per chunk: the enumeration optimum and the MILP objective terms."""
    problem = _parse(case)
    state = problem.new_state()
    records = []
    for chunk in problem.chunks:
        instance = build_confl_instance(state)
        result = enumerate_optimal(instance)
        model = build_chunk_model(instance)
        # The y, x and z columns lead, in this order; the flow columns
        # after them carry no cost.
        names = (
            [f"y_{i}" for i in model.open_vars]
            + [f"x_{i}_{j}" for i, j in model.assign_vars]
            + [f"z_{u}_{v}" for u, v in model.edge_vars]
        )
        records.append(
            {
                "enumeration": _digest(
                    json.dumps(
                        {
                            "caches": [str(node) for node in result.caches],
                            "assignment": [
                                [str(j), str(s)]
                                for j, s in result.assignment.items()
                            ],
                            "objective": result.objective,
                            "subsets": result.subsets_evaluated,
                        }
                    )
                ),
                "objective_terms": _digest(
                    json.dumps(
                        {
                            "terms": [
                                [name, coeff]
                                for name, coeff in zip(names, model.c.tolist())
                            ],
                            "constant": 0.0,
                        }
                    )
                ),
            }
        )
        for node in result.caches:
            state.cache(node, chunk)
    return records


def build_golden() -> Dict[str, Any]:
    return {
        "placements": {case: placement_record(case) for case in PLACEMENT_CASES},
        "brtf_kmb": {
            case: placement_digest(solve_exact(_parse(case)))
            for case in KMB_CASES
        },
        "enumeration": {
            case: enumeration_record(case) for case in ENUMERATION_CASES
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden["placements"]) == sorted(PLACEMENT_CASES)
    assert sorted(golden["brtf_kmb"]) == sorted(KMB_CASES)
    assert sorted(golden["enumeration"]) == sorted(ENUMERATION_CASES)


def test_weighted_costs_are_not_integers():
    """The 0.7 cases exercise float sums whose order shows in the bits."""
    instance = build_confl_instance(_parse("random12-contention-w0.7").new_state())
    matrix = instance.connect_matrix
    assert (matrix != matrix.round()).any()


@pytest.mark.parametrize("case", PLACEMENT_CASES)
def test_placements_match_golden(golden, case):
    assert placement_record(case) == golden["placements"][case]


@pytest.mark.parametrize("case", KMB_CASES)
def test_brtf_kmb_matches_golden(golden, case):
    assert placement_digest(solve_exact(_parse(case))) == golden["brtf_kmb"][case]


@pytest.mark.parametrize("case", ENUMERATION_CASES)
def test_enumeration_matches_golden(golden, case):
    assert enumeration_record(case) == golden["enumeration"][case]


def main() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(build_golden(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
