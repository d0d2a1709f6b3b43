"""Property test: the bulk-decoded batches are the per-request stream.

:meth:`Workload.stream_batches` decodes its columns in bulk from the
RNG's raw 32-bit words; :meth:`Workload.stream` makes one stdlib call
per draw.  For every workload, hypothesis draws the client count
(powers of two, the exact ``randrange`` rejection edge, included), the
chunk count, the batch size and a limit that need not be a multiple of
it, and places flash windows inside the stream and shift and diurnal
periods short enough to cross many epochs.  The contract is CPython's
``random`` word layout, so CI runs this on every Python of its matrix.
"""

from __future__ import annotations

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import WORKLOADS

client_counts = st.one_of(
    st.integers(1, 600),
    st.sampled_from([1 << k for k in range(10)]),
)


@st.composite
def streams(draw):
    name = draw(st.sampled_from(sorted(WORKLOADS)))
    limit = draw(st.integers(0, 12_000))
    rate = draw(st.floats(0.05, 50.0))
    # Mean time the whole stream spans.
    span = max(limit, 1) / rate
    params = {"seed": draw(st.integers(0, 2**32)), "rate": rate}
    if name in ("zipf", "flash", "shift", "diurnal"):
        params["exponent"] = draw(st.floats(0.0, 2.0))
    if name == "hotspot":
        params["hot_fraction"] = draw(st.floats(0.0, 1.0))
        params["boost"] = draw(st.floats(1.0, 10.0))
    if name == "flash":
        params["burst_start"] = draw(st.floats(0.0, 1.0)) * span
        params["burst_duration"] = draw(st.floats(0.0, 0.5)) * span
        params["burst_factor"] = draw(st.floats(1.0, 30.0))
    if name == "shift":
        params["shift_period"] = span / draw(st.integers(1, 400))
    if name == "diurnal":
        params["period"] = span / draw(st.integers(1, 50))
        params["amplitude"] = draw(st.floats(0.0, 0.99))
    num_clients = draw(client_counts)
    if draw(st.booleans()):
        clients = list(range(num_clients))
    else:
        clients = [("node", i) for i in range(num_clients)]
    return (
        WORKLOADS[name](**params),
        clients,
        draw(st.integers(1, 40)),
        draw(st.integers(1, 9000)),
        limit,
    )


@settings(max_examples=60, deadline=None)
@given(streams())
def test_batches_equal_the_per_request_stream(case):
    workload, clients, num_chunks, batch_size, limit = case
    batches = list(
        workload.stream_batches(clients, num_chunks, batch_size, limit=limit)
    )
    sizes = [len(times) for times, _, _ in batches]
    full, rest = divmod(limit, batch_size)
    assert sizes == [batch_size] * full + ([rest] if rest else [])
    for times, picked, chunks in batches:
        assert len(picked) == len(chunks) == len(times)
    rows = [
        row for times, picked, chunks in batches
        for row in zip(times, picked, chunks)
    ]
    reference = [
        (request.time, request.client, request.chunk)
        for request in islice(workload.stream(clients, num_chunks), limit)
    ]
    assert [repr(row) for row in rows] == [repr(row) for row in reference]
