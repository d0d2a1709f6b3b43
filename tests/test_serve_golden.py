"""Golden digests of the ``cheapest`` replica policy, replayed and referenced.

``tests/data/golden_serve_cheapest.json`` pins, for each replay below,
the sha256 of :meth:`ServeReport.to_json` (latency floats, served loads,
failover counts — every byte).  The replays serve the paper's
cheapest-cost rule (Eq. 2) on a seeded 100-node Algorithm 1 placement at
rate 1.0, where the busiest replicas queue, for every request workload
and for no, some and all dead caches (all dead: every request falls back
to the producer).  Each replay serves 20 000 requests, so it crosses two
8192-request batch boundaries and cuts the last batch.
:meth:`ServeEngine.run` replays every case; the per-request event loop
(:meth:`ServeEngine.run_reference`) replays the Zipf ones too.

Four more digests pin what a replay reports beside its report, one case
each: the recorder's counters and gauges, the series telemetry snapshot,
the ``serve``-track trace instants (``serve.batch`` and
``serve.request``, in emission order), and the per-``(client, chunk)``
demand counts the adaptive controller takes from the same requests.  Any change that moves a request, reorders a completion
or changes a float in the accounting fails here.

Regenerate (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_serve_golden
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from repro.adaptive.controller import _count_pairs
from repro.core.approximation import solve_approximation
from repro.obs import (
    Recorder,
    SeriesRecorder,
    Tracer,
    use_recorder,
    use_tracer,
)
from repro.serve import WORKLOADS, ServeConfig, ServeEngine, serve_placement
from repro.serve.engine import request_stream
from repro.workloads import random_problem

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_serve_cheapest.json"

SEED = 2017
NODES = 100
CAPACITY = 5
RATE = 1.0
REQUESTS = 20_000
FAILURE_RATES = (0.0, 0.1, 1.0)

#: (request workload, failure rate, engine) per report digest.
CASES = [
    (workload, failure_rate, engine)
    for workload in sorted(WORKLOADS)
    for failure_rate in FAILURE_RATES
    for engine in (
        ("batched", "per-request") if workload == "zipf" else ("batched",)
    )
]

#: (what is pinned, request workload, failure rate) per telemetry digest;
#: all replayed by :meth:`ServeEngine.run`.
TELEMETRY_CASES = [
    ("recorder", "zipf", 0.1),
    ("series", "flash", 0.1),
    ("trace", "hotspot", 0.1),
    ("demand", "shift", 0.1),
]


def case_id(case) -> str:
    workload, failure_rate, engine = case
    return f"{workload}/f{failure_rate}/{engine}"


def telemetry_id(case) -> str:
    kind, workload, failure_rate = case
    return f"{kind}:{workload}/f{failure_rate}"


@lru_cache(maxsize=None)
def _placement():
    problem, _ = random_problem(NODES, seed=SEED, capacity=CAPACITY)
    return solve_approximation(problem)


def _workload(name: str):
    return WORKLOADS[name](seed=SEED, rate=RATE)


def _config(failure_rate: float):
    return ServeConfig(failure_rate=failure_rate, seed=SEED)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(case) -> str:
    """Replay one case; the sha256 of its report JSON."""
    workload, failure_rate, engine = case
    placement = _placement()
    if engine == "per-request":
        replay = ServeEngine(
            placement, _workload(workload), REQUESTS,
            config=_config(failure_rate),
        )
        report = replay.run_reference(
            request_stream(placement.problem, replay.workload, REQUESTS)
        )
    else:
        report = serve_placement(
            placement, _workload(workload), REQUESTS,
            config=_config(failure_rate),
        )
    return _sha256(report.to_json())


def telemetry_digest(case) -> str:
    """Replay one telemetry case; the sha256 of what it pins.

    Timers and run manifests read the wall clock and are left out.
    """
    kind, workload, failure_rate = case
    placement = _placement()
    if kind == "demand":
        demand: Counter = Counter()
        for batch in request_stream(placement.problem, _workload(workload),
                                    REQUESTS):
            _count_pairs(demand, batch)
        pinned = sorted(
            [str(client), chunk, count]
            for (client, chunk), count in demand.items()
        )
        return _sha256(json.dumps(pinned))
    recorder = SeriesRecorder() if kind == "series" else Recorder()
    tracer = Tracer(capacity=4 * REQUESTS)
    with use_recorder(recorder), use_tracer(tracer):
        serve_placement(placement, _workload(workload), REQUESTS,
                        config=_config(failure_rate))
    dump = recorder.dump()
    if kind == "recorder":
        pinned = {"counters": dump["counters"], "gauges": dump["gauges"]}
    elif kind == "series":
        pinned = {"series": dump["series"], "histograms": dump["histograms"]}
    else:
        assert tracer.dropped == 0
        pinned = [
            [event.name, event.args]
            for event in tracer.events
            if event.track == "serve" and event.ph == "i"
        ]
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
    for workload, failure_rate, engine in CASES:
        if engine == "per-request":
            assert golden[case_id((workload, failure_rate, engine))] == (
                golden[case_id((workload, failure_rate, "batched"))]
            )


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_serve_cheapest_matches_golden(golden, case):
    assert report_digest(case) == golden[case_id(case)]


@pytest.mark.parametrize("case", TELEMETRY_CASES, ids=telemetry_id)
def test_serve_cheapest_telemetry_matches_golden(golden, case):
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
