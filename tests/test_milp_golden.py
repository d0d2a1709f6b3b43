"""Golden digests of the arrays the per-chunk MILP hands to HiGHS.

``tests/data/golden_milp_inputs.json`` pins, for every chunk of a set of
small problems, what :func:`scipy.optimize.milp` receives from
``build_chunk_model(instance)``'s solve: the objective ``c``, the
integrality vector, the variable bounds, and for each
``LinearConstraint`` its ``lb``, ``ub`` and the ``indptr``/``indices``/
``data`` of ``csc_array(A)``.  ``milp`` is replaced by a recorder that
returns an all-zero "optimum", so no model is actually solved and the
pin stays fast.  Signed zeros are folded to ``+0.0`` (HiGHS reads
``-0.0`` and ``0.0`` as the same bound).

The state advances chunk by chunk along ``enumerate_optimal``'s caches.
The cache sets are stored in the golden when it is generated and the
test replays them, so the pin does not move with the enumeration.

Regenerate (only after an intended change of the model) with::

    PYTHONPATH=src python -m tests.test_milp_golden

It takes about 5 s on a 2-vCPU VM: the enumeration prices every subset
of a chunk from one Dreyfus–Wagner table.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.core import CachingProblem, build_confl_instance
from repro.exact import build_chunk_model, enumerate_optimal
from repro.graphs import path_graph
from repro.workloads import grid_problem, random_problem

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_milp_inputs.json"

SEED = 2017
CASES = ["path5", "grid3"] + [
    f"random12-{policy}-w{weight}"
    for policy in ("hops", "contention")
    for weight in (1.0, 0.7)
]


def _problem(case: str):
    if case == "path5":
        return CachingProblem(graph=path_graph(5), producer=0, num_chunks=2)
    if case == "grid3":
        return grid_problem(3, num_chunks=2)
    _, policy, weight = case.split("-")
    problem, _ = random_problem(
        12, seed=SEED, path_policy=policy, contention_weight=float(weight[1:])
    )
    return problem


def _floats(values) -> List[float]:
    return (np.asarray(values, dtype=float) + 0.0).tolist()


def _digest_call(c, *, constraints=None, integrality=None, bounds=None,
                 **_options) -> Dict[str, Any]:
    from scipy.sparse import csc_array

    blocks = []
    for constraint in constraints or ():
        matrix = csc_array(constraint.A)
        blocks.append(
            {
                "lb": _floats(constraint.lb),
                "ub": _floats(constraint.ub),
                "indptr": matrix.indptr.tolist(),
                "indices": matrix.indices.tolist(),
                "data": _floats(matrix.data),
            }
        )
    document = {
        "c": _floats(c),
        "integrality": [int(v) for v in np.asarray(integrality)],
        "lb": _floats(bounds.lb),
        "ub": _floats(bounds.ub),
        "constraints": blocks,
    }
    return {
        "columns": len(document["c"]),
        "rows": [len(block["lb"]) for block in blocks],
        "sha256": hashlib.sha256(
            json.dumps(document).encode("utf-8")
        ).hexdigest(),
    }


def _recording_milp(calls: List[Dict[str, Any]]):
    def milp(c, **kwargs):
        calls.append(_digest_call(c, **kwargs))
        return SimpleNamespace(
            status=0, x=np.zeros(len(c)), fun=0.0, message=""
        )
    return milp


def milp_inputs(case: str, advance: List[List[int]], monkeypatch) -> List[Dict]:
    """One digest of ``milp``'s arguments per chunk of ``case``."""
    import scipy.optimize

    calls: List[Dict[str, Any]] = []
    monkeypatch.setattr(scipy.optimize, "milp", _recording_milp(calls))
    problem = _problem(case)
    state = problem.new_state()
    for chunk, caches in zip(problem.chunks, advance):
        build_chunk_model(build_confl_instance(state)).solve()
        for node in caches:
            state.cache(node, chunk)
    assert len(calls) == len(problem.chunks)
    return calls


def enumeration_caches(case: str) -> List[List[int]]:
    """``enumerate_optimal``'s cache set for every chunk but the last."""
    problem = _problem(case)
    state = problem.new_state()
    advance = []
    for chunk in list(problem.chunks)[:-1]:
        result = enumerate_optimal(build_confl_instance(state))
        advance.append([int(node) for node in result.caches])
        for node in result.caches:
            state.cache(node, chunk)
    return advance + [[]]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_milp_inputs_match_golden(golden, case, monkeypatch):
    record = golden[case]
    assert milp_inputs(case, record["advance"], monkeypatch) == record["chunks"]


def main() -> None:
    document = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for case in CASES:
            advance = enumeration_caches(case)
            document[case] = {
                "advance": advance,
                "chunks": milp_inputs(case, advance, monkeypatch),
            }
    GOLDEN_PATH.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
