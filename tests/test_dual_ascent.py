"""Unit tests for the ConFL instance builder and the dual ascent."""

import dataclasses
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CachingProblem,
    DualAscentConfig,
    build_confl_instance,
    dual_ascent,
)
from repro.core.commit import commit_chunk
from repro.core.dual_ascent import DualAscentResult
from repro.errors import SolverError
from repro.graphs import (
    balanced_tree,
    connected_random_network,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.workloads import grid_problem, random_problem


def reference_dual_ascent(instance, config):
    """Algorithm 1 lines 17–46 taken literally: every round raises each
    active bid by one step and rescans every (client, facility) pair.

    The oracle for the event-driven :func:`dual_ascent`.  Exact float
    identity holds for steps and costs that are sums of powers of two
    (integer contention costs, steps 0.5 / 1 / 2), where ``k`` additions
    of ``step`` equal one addition of ``k · step``.
    """
    producer = instance.producer
    clients = list(instance.clients)
    facilities = [
        i for i in instance.facilities if math.isfinite(instance.open_cost[i])
    ]
    connect = {
        server: dict(zip(clients, instance.connect_matrix[row].tolist()))
        for server, row in instance.row_of.items()
    }
    threshold = config.resolved_threshold(instance)
    alpha = {j: 0.0 for j in clients}
    frozen, target, admins = set(), {}, []
    tight = {i: set() for i in facilities}
    locked = {i: 0.0 for i in facilities}

    def payment(i):
        live = sum(alpha[j] - connect[i][j] for j in tight[i] if j not in frozen)
        return locked[i] + live

    def freeze(j, server):
        frozen.add(j)
        target[j] = server
        for i in facilities:
            if j in tight[i]:
                locked[i] += max(0.0, alpha[j] - connect[i][j])

    rounds = 0
    while len(frozen) < len(clients):
        rounds += 1
        for j in clients:
            if j not in frozen:
                alpha[j] += config.step
        for j in clients:  # conditions 1-2: cheapest affordable open server
            if j in frozen:
                continue
            best = None
            for i in [producer] + admins:
                cost = connect[i][j]
                if alpha[j] >= cost and (best is None or cost < connect[best][j]):
                    best = i
            if best is not None:
                freeze(j, best)
        for j in clients:  # lines 19-20: tight with affordable closed ones
            if j in frozen:
                continue
            for i in facilities:
                if i not in admins and alpha[j] >= connect[i][j]:
                    tight[i].add(j)
        for i in facilities:  # condition 3: paid and M-supported opens
            if i in admins:
                continue
            supporters = [j for j in tight[i] if j not in frozen]
            if len(supporters) < threshold:
                continue
            if payment(i) + 1e-12 < instance.open_cost[i]:
                continue
            admins.append(i)
            for j in supporters:
                freeze(j, i)
        assert rounds <= config.max_rounds
    return DualAscentResult(
        admins=admins,
        assignment=dict(target),
        alpha=alpha,
        rounds=rounds,
        payments={i: payment(i) for i in facilities},
        span_counts={i: len(tight[i]) for i in facilities},
    )


def _topology(kind, size, seed):
    if kind == "grid":
        return grid_graph(size)
    if kind == "line":
        return path_graph(4 * size)
    if kind == "ring":
        return cycle_graph(4 * size)
    if kind == "star":
        return star_graph(4 * size)
    if kind == "tree":
        return balanced_tree(2, size)
    return connected_random_network(5 * size, seed=seed)[0]


@st.composite
def dual_cases(draw):
    """A problem on a small generated topology plus dual-ascent knobs."""
    kind = draw(st.sampled_from(["grid", "line", "ring", "star", "tree", "rgg"]))
    graph = _topology(
        kind,
        draw(st.integers(min_value=2, max_value=5)),
        draw(st.integers(min_value=0, max_value=10_000)),
    )
    problem = CachingProblem(
        graph=graph,
        producer=draw(st.sampled_from(sorted(graph.nodes()))),
        num_chunks=draw(st.integers(min_value=1, max_value=4)),
        capacity=draw(st.sampled_from([1, 3, 5])),
    )
    config = DualAscentConfig(
        step=draw(st.sampled_from([0.5, 1.0, 2.0])),
        span_threshold=draw(st.sampled_from([1, 2, 3])),
    )
    return problem, config


class TestConFLInstance:
    def test_clients_and_facilities(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        assert small_problem.producer not in instance.clients
        assert small_problem.producer not in instance.facilities
        assert len(instance.clients) == 15
        assert len(instance.facilities) == 15

    def test_full_nodes_not_facilities(self):
        problem = grid_problem(3, num_chunks=1, capacity=1)
        state = problem.new_state()
        state.cache(0, 0)
        instance = build_confl_instance(state)
        assert 0 not in instance.facilities

    def test_open_costs_track_storage(self, small_problem):
        state = small_problem.new_state()
        state.cache(1, 0)
        instance = build_confl_instance(state)
        assert instance.open_cost[1] == pytest.approx(0.25)
        assert instance.raw_open_cost[2] == 0.0

    def test_weights_applied(self):
        problem = grid_problem(
            4, num_chunks=1, fairness_weight=2.0, contention_weight=3.0
        )
        state = problem.new_state()
        state.cache(1, 0)
        instance = build_confl_instance(state)
        assert instance.open_cost[1] == pytest.approx(0.5)
        raw = state.costs.contention_cost(problem.producer, 0)
        assert raw > 0
        column = instance.clients.index(0)
        assert instance.connect_matrix[
            instance.row_of[problem.producer], column
        ] == pytest.approx(3 * raw)

    def test_connect_cost_self_zero(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        column = instance.clients.index(1)
        assert instance.connect_matrix[instance.row_of[1], column] == 0.0

    def test_steiner_graph_weights(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        g = small_problem.graph
        assert instance.steiner_graph.weight(0, 1) == g.degree(0) + g.degree(1)

    def test_max_connect_cost_positive(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        assert instance.max_connect_cost() > 0

    def test_max_connect_cost_skips_non_finite(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        matrix = instance.connect_matrix.copy()
        matrix[0, 0], matrix[1, 1] = math.inf, math.nan
        expected = max(
            [0.0] + [v for v in matrix.ravel().tolist() if math.isfinite(v)]
        )
        patched = dataclasses.replace(instance, connect_matrix=matrix)
        assert patched.max_connect_cost() == expected
        negative = dataclasses.replace(instance, connect_matrix=-matrix)
        assert negative.max_connect_cost() == 0.0

    def test_row_of_follows_the_matrix_layout(self, small_problem):
        state = small_problem.new_state()
        instance = build_confl_instance(state)
        servers = [instance.producer, *instance.facilities]
        assert instance.row_of == {s: r for r, s in enumerate(servers)}
        for server, row in instance.row_of.items():
            assert instance.connect_matrix[row].tolist() == [
                float(state.costs.contention_cost(server, j))
                for j in instance.clients
            ]

    def test_build_retains_about_one_matrix(self, monkeypatch):
        """The instance holds its costs once: one build keeps less than
        twice the matrix alive (warm cost rows, 300 nodes)."""
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        problem, _ = random_problem(300, seed=2017)
        state = problem.new_state()
        build_confl_instance(state)  # warm the cost rows
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            instance = build_confl_instance(state)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2 * instance.connect_matrix.nbytes


class TestDualAscent:
    def test_every_client_served(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        assert set(result.assignment) == set(instance.clients)

    def test_assignment_targets_valid(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        valid = set(result.admins) | {instance.producer}
        assert set(result.assignment.values()) <= valid

    def test_admins_unique(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        assert len(result.admins) == len(set(result.admins))

    def test_deterministic(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        a = dual_ascent(instance)
        b = dual_ascent(instance)
        assert a.admins == b.admins
        assert a.assignment == b.assignment
        assert a.rounds == b.rounds

    def test_rounds_bounded_by_max_cost(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        config = DualAscentConfig(step=1.0)
        result = dual_ascent(instance, config)
        assert result.rounds <= instance.max_connect_cost() + 1

    def test_larger_step_fewer_rounds(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        slow = dual_ascent(instance, DualAscentConfig(step=0.5))
        fast = dual_ascent(instance, DualAscentConfig(step=4.0))
        assert fast.rounds < slow.rounds

    def test_bad_step_rejected(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        with pytest.raises(SolverError):
            dual_ascent(instance, DualAscentConfig(step=0.0))

    def test_high_threshold_opens_nothing_on_star(self):
        # Star: producer at hub; all leaves 1 hop from producer; with a
        # threshold above the leaf count no facility can open.
        problem = CachingProblem(graph=star_graph(4), producer=0, num_chunks=1)
        instance = build_confl_instance(problem.new_state())
        result = dual_ascent(instance, DualAscentConfig(span_threshold=50))
        assert result.admins == []
        assert all(t == 0 for t in result.assignment.values())

    def test_threshold_one_opens_quickly(self):
        problem = CachingProblem(
            graph=path_graph(7), producer=0, num_chunks=1
        )
        instance = build_confl_instance(problem.new_state())
        result = dual_ascent(instance, DualAscentConfig(span_threshold=1))
        assert len(result.admins) >= 1

    def test_paper_grid_opens_caches(self, paper_problem):
        instance = build_confl_instance(paper_problem.new_state())
        assert dual_ascent(instance).admins

    def test_alpha_nonnegative_monotone(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        assert all(a >= 0 for a in result.alpha.values())

    def test_full_storage_never_admin(self):
        problem = grid_problem(3, num_chunks=1, capacity=1)
        state = problem.new_state()
        for node in problem.clients:
            state.cache(node, 0)
        instance = build_confl_instance(state)
        result = dual_ascent(instance)
        assert result.admins == []

    def test_resolved_threshold_fallbacks(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        assert DualAscentConfig(span_threshold=None).resolved_threshold(
            instance
        ) == max(1, int(round(instance.dissemination_scale)))
        assert DualAscentConfig(span_threshold=7).resolved_threshold(instance) == 7


class TestDualInvariants:
    """Invariants the primal-dual argument of Theorem 1 relies on."""

    def test_frozen_clients_afford_their_server(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        matrix = instance.connect_matrix
        for client, server in result.assignment.items():
            column = instance.clients.index(client)
            assert result.alpha[client] >= (
                matrix[instance.row_of[server], column] - 1e-9
            )

    def test_open_facilities_fully_paid(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        for admin in result.admins:
            assert result.payments[admin] >= instance.open_cost[admin] - 1e-9

    def test_admins_had_enough_spans(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        config = DualAscentConfig()
        result = dual_ascent(instance, config)
        threshold = config.resolved_threshold(instance)
        for admin in result.admins:
            assert result.span_counts[admin] >= threshold

    @given(case=dual_cases())
    @settings(max_examples=60, deadline=None)
    def test_jump_optimization_preserves_trajectory(self, case):
        """The event-driven ascent equals the literal round-by-round one
        (it only skips rounds in which nothing can happen) on every
        chunk, with each chunk committed before the next is built."""
        problem, config = case
        state = problem.new_state()
        for chunk in problem.chunks:
            instance = build_confl_instance(state)
            fast = dual_ascent(instance, config)
            slow = reference_dual_ascent(instance, config)
            assert fast.admins == slow.admins
            assert list(fast.assignment.items()) == list(slow.assignment.items())
            assert list(fast.alpha.items()) == list(slow.alpha.items())
            assert fast.rounds == slow.rounds
            assert list(fast.payments.items()) == list(slow.payments.items())
            assert fast.span_counts == slow.span_counts
            commit_chunk(state, chunk, list(fast.admins))


class TestWorkedExample:
    """Pin the 5-node path trace documented in docs/ALGORITHMS.md."""

    def _instance(self):
        from repro.graphs import Graph

        g = Graph()
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            g.add_edge(a, b)
        problem = CachingProblem(graph=g, producer=0, num_chunks=1)
        return build_confl_instance(problem.new_state())

    def test_documented_outcome(self):
        result = dual_ascent(self._instance())
        assert result.admins == [3]
        assert result.rounds == 4
        assert result.assignment == {1: 0, 2: 3, 3: 3, 4: 3}
        assert result.alpha == {1: 3.0, 2: 4.0, 3: 4.0, 4: 4.0}
        assert result.payments[3] == pytest.approx(5.0)
        assert result.span_counts[3] == 3

    def test_documented_counters(self):
        from repro.obs import Recorder, use_recorder

        rec = Recorder()
        with use_recorder(rec):
            dual_ascent(self._instance())
        assert rec.counter("dual_ascent.rounds") == 4
        assert rec.counter("dual_ascent.freezes.direct") == 1
        assert rec.counter("dual_ascent.freezes.via_opening") == 3
        assert rec.counter("dual_ascent.admins_opened") == 1
