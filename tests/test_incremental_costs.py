"""Incremental-vs-fresh cost equivalence over full algorithm runs.

The incremental cost engine patches cached ``c_ij`` rows in place after
every chunk commit instead of rebuilding the matrix (Algorithm 1 lines
8–13).  These tests pin the contract down end to end: after *every*
commit of a 20-node / Q=8 run — for every ``DEFAULT_ALGORITHMS`` entry —
the live :class:`~repro.core.costs.CostModel` must serve exactly the
same cost matrix as one rebuilt from scratch on the same storage, with
exact float equality (all node costs are integers, so float64 sums are
exact and any drift is a real defect).
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.commit as commit_mod
from repro.core import PATH_POLICY_CONTENTION, solve_approximation
from repro.core.costs import CostModel
from repro.experiments.runner import DEFAULT_ALGORITHMS, SOLVERS
from repro.obs import Recorder, use_recorder
from repro.workloads import random_problem

NUM_NODES = 20
NUM_CHUNKS = 8


@pytest.fixture
def checked_commit(monkeypatch):
    """Wrap the shared commit path to compare patched vs fresh matrices."""
    checks = {"count": 0}
    original = commit_mod._commit_chunk

    def wrapper(state, chunk, caches, assignment, tree_edges):
        placement = original(state, chunk, caches, assignment, tree_edges)
        fresh = CostModel(
            state.problem.graph, state.storage, state.problem.path_policy
        )
        assert state.costs.cost_matrix() == fresh.cost_matrix()
        checks["count"] += 1
        return placement

    monkeypatch.setattr(commit_mod, "_commit_chunk", wrapper)
    return checks


def _problem(**overrides):
    problem, _ = random_problem(
        NUM_NODES, seed=2017, num_chunks=NUM_CHUNKS, capacity=5
    )
    if overrides:
        problem = dataclasses.replace(problem, **overrides)
    return problem


@pytest.mark.parametrize("name", DEFAULT_ALGORITHMS)
def test_matrix_matches_fresh_after_every_commit(name, checked_commit):
    problem = _problem()
    placement = SOLVERS[name](problem)
    placement.validate()
    assert checked_commit["count"] == NUM_CHUNKS


def test_contention_policy_fallback_matches_fresh(checked_commit):
    # Under the "contention" ablation policy dirty invalidation falls
    # back to the full drop; equivalence must hold there too.
    placement = solve_approximation(
        _problem(path_policy=PATH_POLICY_CONTENTION)
    )
    placement.validate()
    assert checked_commit["count"] == NUM_CHUNKS


@pytest.mark.parametrize("name", ("Appx", "Dist"))
def test_run_is_incremental_not_rebuilding(name):
    # The hot path must actually take the incremental route: zero full
    # rebuilds, one patch per cached copy, and hop trees built at most
    # once per node across the whole run.
    problem = _problem()
    rec = Recorder()
    with use_recorder(rec):
        placement = SOLVERS[name](problem)
    assert rec.counter("costs.full_rebuilds") == 0
    assert rec.counter("costs.incremental_patches") == placement.total_copies()
    assert rec.counter("costs.tree_rebuilds") <= NUM_NODES
