"""Golden digests of ``least-loaded`` replays long enough to cross batches.

``tests/data/golden_least_loaded.json`` pins, for each replay below, the
sha256 of :meth:`ServeReport.to_json` (latency floats, served loads,
failover counts — every byte).  Each replay serves 20 000 requests of
the ``least-loaded`` policy, so it crosses two 8192-request batch
boundaries and cuts the last batch, on seeded 100- and 200-node
Algorithm 1 placements, for hotspot and Zipf request streams:

* at rate 1.0 most live replicas are idle when a request arrives; at
  rate 8.0 the busiest chunks find no idle live replica, the branch
  where a request tries every dead cache before it lands;
* with no, some (10 %) and all dead caches — all dead: every request
  fails over to the producer.

:meth:`ServeEngine.run` replays every case; the per-request event loop
(:meth:`ServeEngine.run_reference`) replays the 100-node rate-8.0 ones
with 10 % dead caches too, and must pin the same digest.  Two more
digests pin what a replay reports beside its report: the
``serve.request`` trace instants of one traced replay, in emission
order, and the series and histograms of one series-enabled replay.  Any change that moves a request to another
replica, reorders a completion or changes a float fails here.

Regenerate (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_least_loaded_golden
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.approximation import solve_approximation
from repro.obs import SeriesRecorder, Tracer, use_recorder, use_tracer
from repro.serve import WORKLOADS, ServeConfig, ServeEngine, serve_placement
from repro.serve.engine import request_stream
from repro.workloads import random_problem

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_least_loaded.json"

SEED = 2017
CAPACITY = 5
POLICY = "least-loaded"
REQUESTS = 20_000
REQUEST_WORKLOADS = ("hotspot", "zipf")
RATES = (1.0, 8.0)
FAILURE_RATES = (0.0, 0.1, 1.0)
NODES = (100, 200)

#: (request workload, rate, failure rate, nodes, engine) per replay.
CASES = [
    (workload, rate, failure_rate, nodes, engine)
    for workload in REQUEST_WORKLOADS
    for rate in RATES
    for failure_rate in FAILURE_RATES
    for nodes in NODES
    for engine in (
        ("batched", "per-request")
        if (rate, failure_rate, nodes) == (8.0, 0.1, 100)
        else ("batched",)
    )
]

#: (what is pinned, request workload, rate, failure rate, nodes) per
#: telemetry digest; both replayed by :meth:`ServeEngine.run`.
TELEMETRY_CASES = [
    ("trace", "hotspot", 8.0, 0.1, 100),
    ("series", "zipf", 8.0, 0.1, 100),
]


def case_id(case) -> str:
    workload, rate, failure_rate, nodes, engine = case
    return f"{workload}/r{rate}/f{failure_rate}/random{nodes}/{engine}"


def telemetry_id(case) -> str:
    kind, workload, rate, failure_rate, nodes = case
    return f"{kind}:{workload}/r{rate}/f{failure_rate}/random{nodes}"


@lru_cache(maxsize=None)
def _placement(nodes: int):
    problem, _ = random_problem(nodes, seed=SEED, capacity=CAPACITY)
    return solve_approximation(problem)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _replay(workload: str, rate: float, failure_rate: float, nodes: int):
    placement = _placement(nodes)
    return serve_placement(
        placement,
        WORKLOADS[workload](seed=SEED, rate=rate),
        REQUESTS,
        policy=POLICY,
        config=ServeConfig(failure_rate=failure_rate, seed=SEED),
    )


def report_digest(case) -> str:
    """Replay one case; the sha256 of its report JSON."""
    workload, rate, failure_rate, nodes, engine = case
    if engine == "batched":
        report = _replay(workload, rate, failure_rate, nodes)
    else:
        placement = _placement(nodes)
        stream = WORKLOADS[workload](seed=SEED, rate=rate)
        report = ServeEngine(
            placement, stream, REQUESTS, policy=POLICY,
            config=ServeConfig(failure_rate=failure_rate, seed=SEED),
        ).run_reference(request_stream(placement.problem, stream, REQUESTS))
    return _sha256(report.to_json())


def telemetry_digest(case) -> str:
    """Replay one telemetry case; the sha256 of what it pins.

    Timers and run manifests read the wall clock and are left out.
    """
    kind, workload, rate, failure_rate, nodes = case
    _placement(nodes)  # solve outside the recorder and tracer
    recorder = SeriesRecorder()
    tracer = Tracer(capacity=4 * REQUESTS)
    with use_recorder(recorder), use_tracer(tracer):
        _replay(workload, rate, failure_rate, nodes)
    if kind == "series":
        dump = recorder.dump()
        pinned = {"series": dump["series"], "histograms": dump["histograms"]}
    else:
        assert tracer.dropped == 0
        pinned = [
            event.args
            for event in tracer.events
            if event.name == "serve.request"
        ]
        assert len(pinned) == REQUESTS
    return _sha256(json.dumps(pinned, sort_keys=True))


def all_ids():
    return [case_id(case) for case in CASES] + [
        telemetry_id(case) for case in TELEMETRY_CASES
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(all_ids())


def test_golden_batched_equals_per_request(golden):
    """Both engines pin one digest: byte-identical 20 000-request reports."""
    for workload, rate, failure_rate, nodes, engine in CASES:
        if engine == "per-request":
            assert golden[
                case_id((workload, rate, failure_rate, nodes, engine))
            ] == golden[
                case_id((workload, rate, failure_rate, nodes, "batched"))
            ]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_least_loaded_matches_golden(golden, case):
    assert report_digest(case) == golden[case_id(case)]


@pytest.mark.parametrize("case", TELEMETRY_CASES, ids=telemetry_id)
def test_least_loaded_telemetry_matches_golden(golden, case):
    assert telemetry_digest(case) == golden[telemetry_id(case)]


def main() -> None:
    golden = {case_id(case): report_digest(case) for case in CASES}
    golden.update(
        {telemetry_id(case): telemetry_digest(case)
         for case in TELEMETRY_CASES}
    )
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
