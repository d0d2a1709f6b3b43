"""Report bytes under CPython 3.12's ``sum``, checked from any Python.

The goldens hold the bits of a left-fold float sum, which builtin
``sum`` is on 3.10 and 3.11.  3.12 made it a compensated sum, so a
report that sums with it moves its bytes on 3.12 only.  The
``py312_sum`` fixture (``tests/conftest.py``) puts the 3.12 algorithm in
place on every version; under it, every case of the three serve goldens
must still match, and the latency means must still fold left.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache

import pytest

from repro.core.approximation import solve_approximation
from repro.delay.latency import LatencyReport, latency_report
from tests import py312_sum
from tests import test_least_loaded_golden as least_loaded
from tests import test_serve_golden as cheapest
from tests import test_serve_selection_golden as selection

#: Inputs where 3.12's sum and the left fold differ, or meet on a
#: signed zero, with what CPython 3.12.1 returns for them.
KNOWN_SUMS = [
    ([0.1] * 10, 0, 1.0),
    ([1e100, 1.0, -1e100], 0, 1.0),
    ([0.1, 0.2, 0.3], 0, 0.6),
    ([1, 0.1, 2, 0.2], 0, 3.3000000000000003),
    ([-0.0], 0, 0.0),
    ([], -0.0, -0.0),
    ([-0.0], -0.0, -0.0),
]


def _bits(value: float) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


@lru_cache(maxsize=None)
def _golden(module) -> dict:
    return json.loads(module.GOLDEN_PATH.read_text(encoding="utf-8"))


def _report_cases():
    for module in (cheapest, selection, least_loaded):
        short = module.__name__.rsplit(".", 1)[1]
        for case in module.CASES:
            yield pytest.param(
                module, case, id=f"{short}:{module.case_id(case)}"
            )


def _telemetry_cases():
    for module in (cheapest, least_loaded):
        short = module.__name__.rsplit(".", 1)[1]
        for case in module.TELEMETRY_CASES:
            yield pytest.param(
                module, case, id=f"{short}:{module.telemetry_id(case)}"
            )


@pytest.mark.parametrize("items,start,expected", KNOWN_SUMS)
def test_emulation_matches_known_bits(items, start, expected):
    assert _bits(py312_sum.neumaier_sum(items, start)) == _bits(expected)


def test_fixture_swaps_in_the_312_sum(py312_sum):
    assert sum([0.1] * 10) == 1.0
    assert py312_sum is sum


@pytest.mark.skipif(
    sys.version_info < (3, 12), reason="needs the real 3.12+ sum to compare"
)
def test_emulation_matches_builtin_sum():
    assert py312_sum.main(["--lists", "500"]) == 0


@pytest.mark.parametrize("module,case", _report_cases())
def test_serve_report_matches_golden_under_312_sum(
    module, case, py312_sum, monkeypatch
):
    if module is selection:
        # As in the golden module: a digest check, no sanitizer shadow.
        monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert module.report_digest(case) == _golden(module)[module.case_id(case)]


@pytest.mark.parametrize("module,case", _telemetry_cases())
def test_serve_telemetry_matches_golden_under_312_sum(
    module, case, py312_sum
):
    digest = module.telemetry_digest(case)
    assert digest == _golden(module)[module.telemetry_id(case)]


def test_latency_report_mean_folds_left(py312_sum):
    latencies = (0.1,) * 10
    report = LatencyReport(fetch_latencies=latencies, per_chunk_completion={})
    assert report.mean == 0.9999999999999999 / 10
    assert report.mean != py312_sum(latencies) / 10


def test_latency_report_mean_of_a_placement_folds_left(
    paper_problem, py312_sum
):
    report = latency_report(solve_approximation(paper_problem))
    folded = 0.0
    for value in report.fetch_latencies:
        folded = folded + value
    assert report.mean == folded / report.count
    # On this placement the compensated sum gives another mean.
    assert report.mean != py312_sum(report.fetch_latencies) / report.count
