"""Shared fixtures: canonical graphs, caching problems, experiment runs.

The whole suite runs with the :mod:`repro.analysis.contracts` sanitizer
enabled (unless the caller already set ``REPRO_SANITIZE``), so every
dual ascent, chunk commit, and protocol session is invariant-checked.
"""

from __future__ import annotations

import os

# The caller's own REPRO_SANITIZE (None when unset), before the default.
CALLER_SANITIZE = os.environ.get("REPRO_SANITIZE")
os.environ.setdefault("REPRO_SANITIZE", "1")

import builtins
import sys
from collections import Counter
from functools import cache

import pytest

from repro.experiments import REGISTRY
from repro.graphs import Graph, grid_graph, path_graph
from repro.workloads import grid_problem
from tests.py312_sum import neumaier_sum


@pytest.fixture(scope="session", autouse=True)
def experiment_runs():
    """Fast-mode calls of each ``REGISTRY`` runner in this session.

    Every runner is wrapped for the session; a second fast-mode call of
    one fails at once, so the experiments run once and every check reads
    the shared ``experiment_result``.
    """
    calls: Counter = Counter()
    runners = dict(REGISTRY)

    def counted(experiment_id, runner):
        def run(*args, **kwargs):
            if kwargs.get("fast"):
                calls[experiment_id] += 1
                assert calls[experiment_id] == 1, (
                    f"experiment {experiment_id!r} ran twice in fast mode; "
                    f"read it through the experiment_result fixture"
                )
            return runner(*args, **kwargs)
        return run

    REGISTRY.update(
        {key: counted(key, runner) for key, runner in runners.items()}
    )
    yield calls
    REGISTRY.update(runners)


@pytest.fixture(scope="session")
def experiment_result(experiment_runs):
    """``experiment_result(id)``: the fast-mode result, run on first use."""
    return cache(lambda experiment_id: REGISTRY[experiment_id](fast=True))


@pytest.fixture
def py312_sum(monkeypatch):
    """Builtin ``sum`` as CPython 3.12+ computes it, on every version.

    Before 3.12, ``builtins.sum`` is swapped for the Neumaier
    compensated sum of :mod:`tests.py312_sum` for the test; on 3.12+
    the real ``sum`` already is that and is left alone.  Returns the
    ``sum`` in force.
    """
    if sys.version_info < (3, 12):
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
    return builtins.sum


@pytest.fixture
def triangle() -> Graph:
    """A 3-cycle with distinct weights."""
    return Graph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])


@pytest.fixture
def grid4() -> Graph:
    return grid_graph(4)


@pytest.fixture
def grid6() -> Graph:
    return grid_graph(6)


@pytest.fixture
def path5() -> Graph:
    return path_graph(5)


@pytest.fixture
def paper_problem():
    """The paper's default scenario: 6x6 grid, producer 9, 5 chunks."""
    return grid_problem(6)


@pytest.fixture
def small_problem():
    """A quick 4x4 scenario for algorithm tests."""
    return grid_problem(4, num_chunks=3)
