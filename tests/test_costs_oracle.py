"""Eq. 2 checked against an independent oracle, not against the engine.

``tests/test_incremental_costs.py`` compares a patched cost model with a
freshly built one, which cannot catch a defect both share.  Here every
entry the model serves is compared with :func:`path_contention_cost`, a
literal sum of ``w_k (1 + S(k))`` over ``model.path(i, j)``, after random
cache/evict sequences on generated topologies.  Equality is exact: every
term is an integer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PATH_POLICY_CONTENTION,
    PATH_POLICY_HOPS,
    CachingProblem,
    path_contention_cost,
)
from repro.graphs import path_graph
from tests.test_dual_ascent import _topology

KINDS = ["grid", "line", "ring", "star", "tree", "rgg"]


def _assert_matches_oracle(state) -> None:
    model = state.costs
    graph = state.problem.graph
    nodes = list(graph.nodes())
    block = model.cost_rows(nodes, nodes)
    for a, source in enumerate(nodes):
        row = model.cost_rows([source], nodes)[0]
        assert np.isfinite(row).all()
        for b, target in enumerate(nodes):
            cost = model.contention_cost(source, target)
            if source == target:
                assert cost == 0.0
            else:
                path = model.path(source, target)
                assert cost == path_contention_cost(graph, path, state.storage)
            assert row[b] == cost
            assert block[a, b] == cost


@st.composite
def cost_cases(draw):
    """A problem, rows to build up front, and a cache/evict/read script."""
    kind = draw(st.sampled_from(KINDS))
    graph = _topology(
        kind,
        draw(st.integers(min_value=2, max_value=5)),
        draw(st.integers(min_value=0, max_value=10_000)),
    )
    nodes = sorted(graph.nodes())
    problem = CachingProblem(
        graph=graph,
        producer=draw(st.sampled_from(nodes)),
        num_chunks=1,
        capacity=draw(st.sampled_from([1, 2, 3])),
        path_policy=draw(
            st.sampled_from([PATH_POLICY_HOPS, PATH_POLICY_CONTENTION])
        ),
    )
    warm = draw(st.lists(st.sampled_from(nodes), max_size=len(nodes)))
    script = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["cache", "evict", "read"]),
                st.sampled_from(nodes),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return problem, warm, script


@settings(max_examples=60, deadline=None)
@given(cost_cases())
def test_every_entry_equals_the_path_sum(case):
    problem, warm, script = case
    state = problem.new_state()
    for source in warm:
        state.costs.cost_rows([source], [source])
    next_chunk = 0
    for op, node in script:
        if op == "cache" and state.can_cache(node):
            state.cache(node, next_chunk)
            next_chunk += 1
        elif op == "evict" and state.storage.chunks_at(node):
            state.evict(node, min(state.storage.chunks_at(node)))
        elif op == "read":
            _assert_matches_oracle(state)
    _assert_matches_oracle(state)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
def test_affected_targets_are_the_paths_through_a_node(kind, size, seed):
    # A ΔS(via) shifts c[source][t] exactly when via lies on PATH(source, t).
    graph = _topology(kind, size, seed)
    state = CachingProblem(
        graph=graph, producer=min(graph.nodes()), num_chunks=1, capacity=1
    ).new_state()
    model = state.costs
    nodes = list(graph.nodes())
    for source in nodes:
        paths = {t: set(model.path(source, t)) for t in nodes if t != source}
        for via in nodes:
            expected = {t for t, path in paths.items() if via in path}
            assert model.affected_targets(source, via) == expected


@pytest.mark.parametrize("n", [255, 256])
def test_euler_positions_at_the_narrow_dtype_boundary(n):
    # Euler positions are stored in the narrowest unsigned type holding
    # n (uint8 up to 255 nodes); every patched entry and range must stay
    # exact on either side of that boundary.
    graph = path_graph(n)
    state = CachingProblem(
        graph=graph, producer=0, num_chunks=1, capacity=2
    ).new_state()
    model = state.costs
    nodes = list(graph.nodes())
    model.cost_rows(nodes, nodes)
    for node in (n - 1, n // 2, 1):
        state.cache(node, 0)
    for source in (0, 1, n // 2, n - 1):
        for target in nodes:
            expected = (
                0.0
                if source == target
                else path_contention_cost(
                    graph, model.path(source, target), state.storage
                )
            )
            assert model.contention_cost(source, target) == expected
        for via in (0, 1, n // 2, n - 1):
            assert model.affected_targets(source, via) == {
                t for t in nodes if t != source and via in model.path(source, t)
            }
