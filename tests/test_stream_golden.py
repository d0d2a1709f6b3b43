"""Golden digests of the request streams every workload draws.

``tests/data/golden_streams.json`` pins, for each request workload at
seed 2017 with 5 chunks and 200, 1 and 256 clients, the sha256 of the
first 50 000 requests: one ``time client chunk`` line per request, the
time as its ``repr`` (every bit of the float).  Both stream shapes must
match it: :meth:`Workload.stream_batches` in its default 8192-request
batches (six batch boundaries, the last batch cut by the limit) and
:meth:`Workload.stream`, request by request.

The client counts are the edges of ``randrange``'s rejection loop:
200 clients reject some 32-bit words, one client draws with
``bit_length`` 1, and 256 clients are an exact power of two, so close
to half the words are rejected.  At the default rate of 0.5 requests
per second the 50 000 requests span the flash crowd's burst window and
well over a thousand shift epochs.

Regenerate (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_stream_golden
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from pathlib import Path

import pytest

from repro.serve import WORKLOADS

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_streams.json"

SEED = 2017
CHUNKS = 5
REQUESTS = 50_000
CLIENT_COUNTS = (200, 1, 256)

#: (request workload, client count) per stream digest.
CASES = [
    (workload, clients)
    for workload in sorted(WORKLOADS)
    for clients in CLIENT_COUNTS
]


def case_id(case) -> str:
    workload, clients = case
    return f"{workload}/c{clients}"


def _workload(name: str):
    return WORKLOADS[name](seed=SEED)


def _digest(rows) -> str:
    digest = hashlib.sha256()
    for time, client, chunk in rows:
        digest.update(f"{time!r} {client!r} {chunk!r}\n".encode("utf-8"))
    return digest.hexdigest()


def batches_digest(case) -> str:
    """The sha256 of the first requests of one case, read in batches."""
    workload, clients = case
    batches = _workload(workload).stream_batches(
        list(range(clients)), CHUNKS, limit=REQUESTS
    )
    return _digest(
        row for times, batch_clients, chunks in batches
        for row in zip(times, batch_clients, chunks)
    )


def stream_digest(case) -> str:
    """The same digest over :meth:`Workload.stream`'s requests."""
    workload, clients = case
    requests = _workload(workload).stream(list(range(clients)), CHUNKS)
    return _digest(
        (request.time, request.client, request.chunk)
        for request in islice(requests, REQUESTS)
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_stream_batches_match_golden(golden, case):
    assert batches_digest(case) == golden[case_id(case)]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_stream_matches_golden(golden, case):
    assert stream_digest(case) == golden[case_id(case)]


def main() -> None:
    golden = {case_id(case): batches_digest(case) for case in CASES}
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
