"""``build_report`` over float64 tally columns.

The engine keeps its per-request latencies and queue delays as
``array("d")`` columns; :func:`repro.serve.stats.build_report` reads
them as float64 arrays, sorts once with numpy and folds both means left
from ``0.0``.  These tests hold that to the list-and-builtin-``sum``
report it replaced, byte for byte.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delay.latency import left_sum, sorted_percentile
from repro.serve.stats import build_report

#: The zero-request report, as the list-based ``build_report`` wrote it.
ZERO_REPORT_JSON = (
    '{"algorithm": "appx", "completed": 0, "failovers": 0, '
    '"latency_max": 0.0, "latency_mean": 0.0, "latency_p50": 0.0, '
    '"latency_p95": 0.0, "latency_p99": 0.0, "makespan": 0.0, '
    '"policy": "cheapest", "producer_served": 0, "queue_delay_mean": 0.0, '
    '"requests": 0, "retried_requests": 0, "schema": "repro-serve/1", '
    '"self_served": 0, "served_gini": 0.0, "served_jains": 1.0, '
    '"served_loads": {"1": 0, "2": 0}, "throughput": 0.0, "timeouts": 0, '
    '"workload": "zipf"}'
)

#: A four-request report, as the list-based ``build_report`` wrote it.
SMALL_REPORT_JSON = (
    '{"algorithm": "appx", "completed": 4, "failovers": 0, '
    '"latency_max": 0.5, "latency_mean": 0.1875, "latency_p50": 0.125, '
    '"latency_p95": 0.4624999999999999, '
    '"latency_p99": 0.49249999999999994, "makespan": 2.0, '
    '"policy": "cheapest", "producer_served": 1, '
    '"queue_delay_mean": 0.15000000000000002, "requests": 4, '
    '"retried_requests": 0, "schema": "repro-serve/1", "self_served": 1, '
    '"served_gini": 0.16666666666666666, "served_jains": 0.9, '
    '"served_loads": {"1": 2, "2": 1}, "throughput": 2.0, "timeouts": 1, '
    '"workload": "zipf"}'
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _report(latencies, queue_delays):
    return build_report(
        workload="zipf",
        policy="cheapest",
        algorithm="appx",
        requests=len(latencies),
        latencies=latencies,
        queue_delays=queue_delays,
        served_loads={"p": 1, 1: 2, 2: 1},
        producer="p",
        timeouts=1,
        failovers=0,
        retried_requests=0,
        self_served=1,
        makespan=2.0,
    )


def _folded(values) -> float:
    total = 0.0
    for value in values:
        total = total + value
    return total


def test_zero_request_report_is_unchanged():
    report = build_report(
        workload="zipf", policy="cheapest", algorithm="appx", requests=0,
        latencies=array("d"), queue_delays=array("d"),
        served_loads={"p": 0, 1: 0, 2: 0}, producer="p", timeouts=0,
        failovers=0, retried_requests=0, self_served=0, makespan=0.0,
    )
    assert report.to_json(indent=None) == ZERO_REPORT_JSON


@pytest.mark.parametrize(
    "column", [list, lambda xs: array("d", xs), np.array],
    ids=["list", "array", "ndarray"],
)
def test_small_report_is_unchanged(column):
    report = _report(column([-0.0, 0.5, 0.25, 1e-17]),
                     column([-0.0, 0.1, 0.2, 0.3]))
    assert report.to_json(indent=None) == SMALL_REPORT_JSON


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(finite, finite), max_size=40))
def test_list_array_and_ndarray_tallies_report_the_same_bytes(pairs):
    latencies = [latency for latency, _ in pairs]
    queue_delays = [delay for _, delay in pairs]
    by_list = _report(latencies, queue_delays)
    by_array = _report(array("d", latencies), array("d", queue_delays))
    by_ndarray = _report(np.array(latencies, dtype=float),
                         np.array(queue_delays, dtype=float))
    assert by_list.to_json() == by_array.to_json() == by_ndarray.to_json()
    ordered = sorted(latencies)
    if latencies:
        assert by_list.latency_mean == _folded(latencies) / len(latencies)
        assert by_list.queue_delay_mean == (
            _folded(queue_delays) / len(queue_delays)
        )
    assert by_list.latency_p95 == sorted_percentile(ordered, 95.0)
    for name in ("latency_mean", "latency_p50", "latency_max",
                 "queue_delay_mean"):
        assert type(getattr(by_ndarray, name)) is float


@pytest.mark.parametrize("values", [[], [0.75], [-0.5, 2.0]],
                         ids=["empty", "one", "two"])
@pytest.mark.parametrize("p", [0.0, 25.0, 50.0, 95.0, 99.0, 100.0])
def test_sorted_percentile_of_an_array_equals_that_of_a_list(values, p):
    assert sorted_percentile(np.array(values, dtype=float), p) == (
        sorted_percentile(values, p)
    )


def test_sorted_percentile_rejects_bad_p_on_an_array():
    with pytest.raises(ValueError):
        sorted_percentile(np.array([1.0]), 101.0)


@pytest.mark.parametrize(
    "values,expected",
    [
        # CPython 3.11's sum: ``0 + -0.0`` is ``0.0``, so the sign of a
        # leading negative zero is lost, and stays lost.
        ([-0.0], 0.0),
        ([-0.0, -0.0], 0.0),
        ([-0.0, 1.5, -1.5], 0.0),
        ([0.1] * 10, 0.9999999999999999),
        ([1e100, 1.0, -1e100], 0.0),
        ([], 0.0),
    ],
)
def test_left_sum_is_the_311_sum(values, expected):
    assert left_sum(values).hex() == expected.hex()
    assert left_sum(array("d", values)).hex() == expected.hex()


def test_leading_negative_zero_in_a_report():
    report = _report(array("d", [-0.0]), array("d", [-0.0]))
    assert report.latency_mean.hex() == (0.0).hex()
    assert report.queue_delay_mean.hex() == (0.0).hex()
    assert report.latency_max.hex() == (-0.0).hex()
