"""Golden digests of Dist (Algorithm 2) under FULL fault mode.

``tests/data/golden_full_dist.json`` pins three FULL-mode runs on
``random_problem(n, seed=2017)`` with 3 chunks and capacity 3, where
every flood leg is its own lossy, jittered or retried delivery:

* ``jitter``: latency jitter of 0.01 s on top of the 1 ms hop latency;
* ``churn``: one node leaves at t = 0.2 s, before the CC floods, and
  rejoins at t = 6 s;
* ``loss-retx``: 30 % loss with acked retransmission (0.5 s timeout).

Each case pins sha256 digests of the committed placement, the Table II
census (messages and transmissions per type) and the fault report
(:class:`~repro.distributed.faults.FaultStats` and unserved nodes),
plus ``sim_events``, ``ticks_per_chunk`` and every per-chunk
``sim.max_queue_depth``.

Regenerate (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_faults_golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.distributed import DistributedConfig, solve_distributed
from repro.obs import use_recorder
from repro.workloads import random_problem
from tests.test_dist_golden import _chunk_digest, _DepthRecorder

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_full_dist.json"

SEED = 2017
CHUNKS = 3
CAPACITY = 3

#: case id -> (nodes, config overrides).
CASES: Dict[str, tuple] = {
    "n50-jitter": (50, {"jitter": 0.01, "fault_seed": 5}),
    "n40-churn": (
        40, {"churn_schedule": ((0.2, 12, "leave"), (6.0, 12, "join"))}
    ),
    "n60-loss-retx": (
        60, {"loss_rate": 0.3, "retx_timeout": 0.5, "fault_seed": 11}
    ),
}


def _sha(document: Any) -> str:
    payload = json.dumps(document, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_case(nodes: int, overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Solve one FULL-mode case with Dist and return its pinned record."""
    problem, _ = random_problem(
        nodes, seed=SEED, num_chunks=CHUNKS, capacity=CAPACITY
    )
    recorder = _DepthRecorder()
    with use_recorder(recorder):
        outcome = solve_distributed(problem, DistributedConfig(**overrides))
    report = outcome.faults
    assert report is not None  # FULL mode always reports
    return {
        "placement": _sha([_chunk_digest(c) for c in outcome.placement.chunks]),
        "census": _sha(
            {
                "messages": outcome.stats.messages,
                "transmissions": outcome.stats.transmissions,
            }
        ),
        "faults": _sha(
            {
                "stats": dataclasses.asdict(report.stats),
                "unserved": {
                    str(chunk): [str(node) for node in nodes_]
                    for chunk, nodes_ in report.unserved.items()
                },
            }
        ),
        "sim_events": outcome.sim_events,
        "ticks_per_chunk": list(outcome.ticks_per_chunk),
        "max_queue_depth": recorder.depths,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_full_mode_matches_golden(golden, case):
    assert run_case(*CASES[case]) == golden[case]


def regenerate() -> None:
    golden = {case: run_case(*spec) for case, spec in sorted(CASES.items())}
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
