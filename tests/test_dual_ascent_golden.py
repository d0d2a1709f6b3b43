"""Golden digests of every per-chunk dual ascent of Algorithm 1.

``tests/data/golden_dual_ascent.json`` pins, for each chunk of a set of
seeded problems, the sha256 of the canonical :class:`DualAscentResult`
(admins, assignment, alpha, rounds, payments, span counts — dict order
included, floats by ``repr``) and the ``dual_ascent.*`` counters of that
run.  Any change to the dual ascent that moves a single bid or reorders a
single freeze fails here.

Regenerate (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_dual_ascent_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.core import build_confl_instance, dual_ascent
from repro.core.commit import commit_chunk
from repro.core.dual_ascent import DualAscentResult
from repro.obs import Recorder, use_recorder
from repro.workloads import grid_problem, random_problem

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_dual_ascent.json"

SEED = 2017
CAPACITIES = (1, 3, 5)
COUNTERS = (
    "dual_ascent.runs",
    "dual_ascent.rounds",
    "dual_ascent.event_loops",
    "dual_ascent.tight_events",
    "dual_ascent.span_supported_facilities",
    "dual_ascent.freezes.direct",
    "dual_ascent.freezes.via_opening",
    "dual_ascent.admins_opened",
)


def _problem(name: str, capacity: int):
    if name == "grid6":
        return grid_problem(6, capacity=capacity)
    nodes = int(name[len("random"):])
    problem, _ = random_problem(nodes, seed=SEED, capacity=capacity)
    return problem


CASES = [
    f"{name}-cap{capacity}"
    for name in ("grid6", "random30", "random100", "random200")
    for capacity in CAPACITIES
]


def canonical(result: DualAscentResult) -> str:
    """Byte-stable JSON of a dual-ascent result, dict order preserved."""
    return json.dumps(
        {
            "admins": [str(node) for node in result.admins],
            "assignment": [[str(j), str(s)] for j, s in result.assignment.items()],
            "alpha": [[str(j), a] for j, a in result.alpha.items()],
            "rounds": result.rounds,
            "payments": [[str(i), p] for i, p in result.payments.items()],
            "span_counts": [[str(i), c] for i, c in result.span_counts.items()],
        }
    )


def chunk_records(case: str) -> List[Dict]:
    """Run Algorithm 1 chunk by chunk; one digest + counters per chunk."""
    name, capacity = case.rsplit("-cap", 1)
    problem = _problem(name, int(capacity))
    state = problem.new_state()
    records = []
    for chunk in problem.chunks:
        instance = build_confl_instance(state)
        rec = Recorder()
        with use_recorder(rec):
            result = dual_ascent(instance)
        records.append(
            {
                "sha256": hashlib.sha256(
                    canonical(result).encode("utf-8")
                ).hexdigest(),
                "counters": {name: rec.counter(name) for name in COUNTERS},
            }
        )
        commit_chunk(state, chunk, list(result.admins))
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_dual_ascent_matches_golden(golden, case, monkeypatch):
    # A digest check: the sanitizer's cost-row cross-check would rebuild
    # every cached row on every cache write (~30 s per 200-node case).
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert chunk_records(case) == golden[case]


def main() -> None:
    golden = {case: chunk_records(case) for case in CASES}
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
