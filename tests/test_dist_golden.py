"""Golden digests and Table II census of the distributed algorithm.

``tests/data/golden_dist.json`` pins, for Dist (Algorithm 2) on
``random_problem(n, seed=2017)`` with 5 chunks and capacity 5:

* one sha256 per chunk of the committed placement (caches, assignment
  in dict order, tree edges and stage costs, floats by ``repr``);
* the Table II census: ``messages`` and ``transmissions`` per type;
* ``ticks_per_chunk`` and ``sim_events``;
* every ``sim.max_queue_depth`` the simulator reported, one per chunk.

It does so at 300 nodes, and on 60 nodes under the default config and
under each protocol ablation and under 20 % loss alone.  It also pins the
sha256 of one 60-node run's protocol-track trace: every ``msg.<TYPE>``
and ``dist.tick`` instant and every ``chunk_session`` span, by name and
args, in emission order (wall-clock timestamps excluded).

A 1000-node case is pinned too but is too slow for the test suite;
check it with::

    PYTHONPATH=src python -m tests.test_dist_golden --size 1000

Regenerate every entry (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_dist_golden
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.distributed import DistributedConfig, solve_distributed
from repro.obs import Recorder, Tracer, use_recorder, use_tracer
from repro.workloads import random_problem

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_dist.json"

SEED = 2017
CHUNKS = 5
CAPACITY = 5

#: Config overrides of each 60-node case.
VARIANTS: Dict[str, Dict[str, Any]] = {
    "default": {},
    "span0": {"span_threshold": 0},
    "best": {"span_policy": "best"},
    "gamma0": {"gamma_from_alpha": False},
    "race": {"serialize_promotions": False},
    "loss": {"loss_rate": 0.2},
}

#: case id -> (nodes, config overrides).
CASES: Dict[str, tuple] = {
    "n300": (300, {}),
    **{f"n60-{name}": (60, kwargs) for name, kwargs in VARIANTS.items()},
}
#: Pinned, but checked only from the command line (``--size 1000``).
SLOW_CASES: Dict[str, tuple] = {"n1000": (1000, {})}

TRACE_CASE = "n60-default"
TRACE_NAMES = ("dist.tick", "chunk_session")


class _DepthRecorder(Recorder):
    """A recorder that also keeps every ``sim.max_queue_depth`` sample."""

    def __init__(self) -> None:
        super().__init__()
        self.depths: List[int] = []

    def gauge(self, name: str, value) -> None:
        super().gauge(name, value)
        if name == "sim.max_queue_depth":
            self.depths.append(value)


def _problem(nodes: int):
    problem, _ = random_problem(
        nodes, seed=SEED, num_chunks=CHUNKS, capacity=CAPACITY
    )
    return problem


def _chunk_digest(chunk) -> str:
    payload = json.dumps(
        {
            "caches": sorted(str(node) for node in chunk.caches),
            "assignment": [
                [str(client), str(server)]
                for client, server in chunk.assignment.items()
            ],
            "tree_edges": sorted(
                sorted(str(node) for node in edge) for edge in chunk.tree_edges
            ),
            "stage_cost": [
                repr(chunk.stage_cost.fairness),
                repr(chunk.stage_cost.access),
                repr(chunk.stage_cost.dissemination),
            ],
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_case(nodes: int, overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Solve one case with Dist and return its pinned record."""
    recorder = _DepthRecorder()
    with use_recorder(recorder):
        outcome = solve_distributed(
            _problem(nodes), DistributedConfig(**overrides)
        )
    return {
        "placement": [_chunk_digest(c) for c in outcome.placement.chunks],
        "messages": dict(outcome.stats.messages),
        "transmissions": dict(outcome.stats.transmissions),
        "ticks_per_chunk": list(outcome.ticks_per_chunk),
        "sim_events": outcome.sim_events,
        "max_queue_depth": recorder.depths,
    }


def trace_digest(nodes: int, overrides: Dict[str, Any]) -> str:
    """The sha256 of one run's protocol-track trace, by name and args."""
    tracer = Tracer(capacity=1 << 20)
    with use_tracer(tracer):
        solve_distributed(_problem(nodes), DistributedConfig(**overrides))
    assert tracer.dropped == 0
    digest = hashlib.sha256()
    for event in tracer.events:
        if event.track != "protocol":
            continue
        if not (event.name.startswith("msg.") or event.name in TRACE_NAMES):
            continue
        line = json.dumps([event.name, event.ph, event.args], sort_keys=True)
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted({**CASES, **SLOW_CASES})


@pytest.mark.parametrize("case", sorted(CASES))
def test_dist_matches_golden(golden, case):
    nodes, overrides = CASES[case]
    assert run_case(nodes, overrides) == golden["cases"][case]


def test_protocol_trace_matches_golden(golden):
    nodes, overrides = CASES[TRACE_CASE]
    assert trace_digest(nodes, overrides) == golden["trace"][TRACE_CASE]


def regenerate() -> None:
    golden = {
        "cases": {
            case: run_case(*spec)
            for case, spec in sorted({**CASES, **SLOW_CASES}.items())
        },
        "trace": {TRACE_CASE: trace_digest(*CASES[TRACE_CASE])},
    }
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


def check_size(nodes: int) -> int:
    """Check every pinned case of ``nodes`` nodes; 0 when all match."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cases"]
    cases = {
        case: spec
        for case, spec in {**CASES, **SLOW_CASES}.items()
        if spec[0] == nodes
    }
    if not cases:
        print(f"no pinned case has {nodes} nodes", file=sys.stderr)
        return 2
    failed = 0
    for case, spec in sorted(cases.items()):
        ok = run_case(*spec) == golden[case]
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
