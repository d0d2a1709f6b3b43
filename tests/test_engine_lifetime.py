"""A finished replay frees its engine by reference counting alone.

The selector holds its view (the engine) for the whole replay; a strong
back-reference would make engine → selector → engine a cycle, so every
finished replay, with its cost model, storage and request buffers,
would wait for the cyclic garbage collector.  These tests run with the
collector disabled and require the engine to be gone anyway.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveController
from repro.core import solve_approximation
from repro.serve import (
    ENGINE_BATCHED,
    ENGINE_PER_REQUEST,
    ServeConfig,
    ServeEngine,
    ZipfWorkload,
    serve_placement,
)
from repro.workloads import random_problem


@pytest.fixture
def engine_refs(monkeypatch):
    """Weak references to every engine that runs a replay."""
    refs = []
    real_run = ServeEngine.run

    def run(self, batches):
        refs.append(weakref.ref(self))
        return real_run(self, batches)

    monkeypatch.setattr(ServeEngine, "run", run)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def problem():
    problem, _ = random_problem(30, seed=3, num_chunks=3, capacity=3)
    return problem


@pytest.mark.parametrize("engine", [ENGINE_BATCHED, ENGINE_PER_REQUEST])
@pytest.mark.parametrize("policy", ["cheapest", "least-loaded", "p2c"])
def test_serve_placement_engine_dies_without_gc(
    engine_refs, problem, policy, engine
):
    placement = solve_approximation(problem)
    serve_placement(
        placement,
        ZipfWorkload(seed=1, rate=1.0),
        500,
        policy=policy,
        config=ServeConfig(seed=1, failure_rate=0.2, engine=engine),
    )
    # Under REPRO_SANITIZE a per-request shadow replay runs too.
    assert engine_refs
    assert all(ref() is None for ref in engine_refs)


def test_adaptive_epoch_engines_die_without_gc(engine_refs, problem):
    controller = AdaptiveController(
        problem,
        ZipfWorkload(seed=1, rate=1.0),
        AdaptiveConfig(epochs=3, epoch_requests=300),
    )
    controller.run()
    assert len(engine_refs) >= 3
    assert all(ref() is None for ref in engine_refs)
