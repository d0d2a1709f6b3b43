"""Tests for the ``REPRO_SANITIZE`` runtime invariant sanitizer."""

from __future__ import annotations

import pytest

from repro.analysis import contracts
from repro.core import (
    CostModel,
    DualAscentConfig,
    StorageState,
    build_confl_instance,
    dual_ascent,
)
from repro.errors import InvariantError
from repro.graphs import grid_graph
from repro.workloads import grid_problem


class TestToggle:
    def test_enabled_values(self, monkeypatch):
        for value, expected in [
            ("1", True),
            ("true", True),
            ("0", False),
            ("", False),
        ]:
            monkeypatch.setenv(contracts.ENV_VAR, value)
            assert contracts.sanitize_enabled() is expected
        monkeypatch.delenv(contracts.ENV_VAR)
        assert contracts.sanitize_enabled() is False


@pytest.fixture
def dual_result():
    instance = build_confl_instance(grid_problem(4, num_chunks=1).new_state())
    config = DualAscentConfig()
    result = dual_ascent(instance, config)
    return instance, config, result


def check_result(instance, config, result, **overrides):
    kwargs = dict(
        producer=instance.producer,
        clients=list(instance.clients),
        facilities=list(result.payments),
        open_cost=instance.open_cost,
        connect_matrix=instance.connect_matrix,
        row_of=instance.row_of,
        admins=result.admins,
        assignment=result.assignment,
        alpha=result.alpha,
        payments=result.payments,
        span_counts=result.span_counts,
        step=config.step,
        threshold=config.resolved_threshold(instance),
    )
    kwargs.update(overrides)
    contracts.check_dual_solution(**kwargs)


class TestDualFeasibility:
    def test_real_solution_passes(self, dual_result):
        check_result(*dual_result)

    def test_corrupted_assignment_caught(self, dual_result):
        instance, config, result = dual_result
        # Freeze some client onto a non-ADMIN, non-producer node: the
        # kind of bug a broken freeze handler would introduce.
        corrupt = dict(result.assignment)
        client = next(iter(corrupt))
        closed = next(
            node
            for node in instance.facilities
            if node not in set(result.admins) and node != instance.producer
        )
        corrupt[client] = closed
        with pytest.raises(InvariantError) as excinfo:
            check_result(*dual_result, assignment=corrupt)
        assert excinfo.value.rule == "dual-feasibility"

    def test_underpaid_admin_caught(self, dual_result):
        instance, config, result = dual_result
        if not result.admins:
            pytest.skip("instance opened no facilities")
        broke = dict(result.payments)
        broke[result.admins[0]] = -1.0
        with pytest.raises(InvariantError):
            check_result(*dual_result, payments=broke)

    def test_unaffordable_connection_caught(self, dual_result):
        instance, config, result = dual_result
        cheated = dict(result.alpha)
        client = next(iter(cheated))
        cheated[client] = -5.0
        with pytest.raises(InvariantError):
            check_result(*dual_result, alpha=cheated)

    def test_producer_cannot_be_admin(self, dual_result):
        instance, config, result = dual_result
        with pytest.raises(InvariantError):
            check_result(
                *dual_result,
                admins=list(result.admins) + [instance.producer],
            )


class TestStorageMonotonic:
    def test_exact_growth_passes(self):
        contracts.check_storage_monotonic(
            chunk=0,
            used_before={1: 0, 2: 3},
            used_after={1: 1, 2: 3},
            cached_nodes=[1],
        )

    def test_shrinking_storage_caught(self):
        with pytest.raises(InvariantError) as excinfo:
            contracts.check_storage_monotonic(
                chunk=0,
                used_before={1: 2},
                used_after={1: 1},
                cached_nodes=[],
            )
        assert excinfo.value.rule == "storage-monotonic"

    def test_phantom_copy_caught(self):
        with pytest.raises(InvariantError):
            contracts.check_storage_monotonic(
                chunk=0,
                used_before={1: 0, 2: 0},
                used_after={1: 1, 2: 1},
                cached_nodes=[1],
            )


class TestChunkCommit:
    def commit_kwargs(self, **overrides):
        kwargs = dict(
            chunk=0,
            producer=0,
            clients=[1, 2],
            caches=[1],
            assignment={1: 1, 2: 0},
            tree_edges=[frozenset({0, 1})],
            has_edge=lambda u, v: True,
            stage_costs={"fairness": 1.0, "access": 2.0},
        )
        kwargs.update(overrides)
        return kwargs

    def test_feasible_commit_passes(self):
        contracts.check_chunk_commit(**self.commit_kwargs())

    def test_disconnected_tree_caught(self):
        with pytest.raises(InvariantError) as excinfo:
            contracts.check_chunk_commit(
                **self.commit_kwargs(tree_edges=[])
            )
        assert "constraint 6" in str(excinfo.value)

    def test_server_without_copy_caught(self):
        with pytest.raises(InvariantError) as excinfo:
            contracts.check_chunk_commit(
                **self.commit_kwargs(assignment={1: 2, 2: 0})
            )
        assert "constraint 5" in str(excinfo.value)

    def test_negative_stage_cost_caught(self):
        with pytest.raises(InvariantError):
            contracts.check_chunk_commit(
                **self.commit_kwargs(stage_costs={"access": -3.0})
            )


class TestMessageCensus:
    def census_kwargs(self, **overrides):
        kwargs = dict(
            chunk=0,
            known_types=("NPI", "BADMIN", "CC"),
            messages_before={},
            messages_after={"NPI": 9, "BADMIN": 8, "CC": 4},
            transmissions_before={},
            transmissions_after={"NPI": 20, "BADMIN": 18, "CC": 6},
            num_nodes=9,
            num_admins=1,
            hop_limit=2,
        )
        kwargs.update(overrides)
        return kwargs

    def test_consistent_census_passes(self):
        contracts.check_message_census(**self.census_kwargs())

    def test_lossy_npi_flood_caught(self):
        with pytest.raises(InvariantError) as excinfo:
            contracts.check_message_census(
                **self.census_kwargs(
                    messages_after={"NPI": 8, "BADMIN": 8, "CC": 4}
                )
            )
        assert excinfo.value.rule == "message-census"

    def test_unknown_type_caught(self):
        with pytest.raises(InvariantError):
            contracts.check_message_census(
                **self.census_kwargs(
                    messages_after={"NPI": 9, "BADMIN": 8, "XXX": 1}
                )
            )

    def test_hop_envelope_caught(self):
        with pytest.raises(InvariantError):
            contracts.check_message_census(
                **self.census_kwargs(
                    transmissions_after={"NPI": 20, "BADMIN": 18, "CC": 9}
                )
            )


class TestSessionCacheability:
    def test_unchanged_storage_passes(self):
        contracts.check_session_cacheability(
            chunk=0, resolved={1: True, 2: False},
            can_cache={1: True, 2: False}.__getitem__,
        )

    def test_drift_caught(self):
        with pytest.raises(InvariantError) as excinfo:
            contracts.check_session_cacheability(
                chunk=3, resolved={1: True, 2: False},
                can_cache={1: False, 2: False}.__getitem__,
            )
        assert excinfo.value.rule == "session-cacheability"

    def test_session_checks_itself(self, monkeypatch):
        from repro.distributed import DistributedConfig, MessageStats
        from repro.distributed.protocol import ChunkSession

        monkeypatch.setenv(contracts.ENV_VAR, "1")
        state = grid_problem(3, num_chunks=1).new_state()
        session = ChunkSession(state, 0, DistributedConfig(), MessageStats())
        # Filling a node's storage behind the session's back breaks the
        # once-per-session cacheability it resolved at the start.
        for chunk_id in range(5):
            state.storage.add(1, 100 + chunk_id)
        with pytest.raises(InvariantError) as excinfo:
            session.run()
        assert excinfo.value.rule == "session-cacheability"


class TestIncrementalCostRows:
    def base_kwargs(self, **overrides):
        rows = {0: {0: 0.0, 1: 5.0, 2: 8.0}, 1: {0: 5.0, 1: 0.0, 2: 6.0}}
        kwargs = dict(
            dirty_nodes=[1],
            patched={s: dict(row) for s, row in rows.items()},
            fresh={s: dict(row) for s, row in rows.items()},
        )
        kwargs.update(overrides)
        return kwargs

    def test_identical_rows_pass(self):
        contracts.check_incremental_cost_rows(**self.base_kwargs())

    def test_value_drift_caught(self):
        kwargs = self.base_kwargs()
        kwargs["patched"][0][2] += 3.0
        with pytest.raises(InvariantError) as exc:
            contracts.check_incremental_cost_rows(**kwargs)
        assert "incremental-costs" in str(exc.value)

    def test_exact_equality_no_tolerance(self):
        # The contract is bit-for-bit: even a tiny drift is a defect.
        kwargs = self.base_kwargs()
        kwargs["patched"][1][2] += 1e-9
        with pytest.raises(InvariantError):
            contracts.check_incremental_cost_rows(**kwargs)

    def test_missing_source_caught(self):
        kwargs = self.base_kwargs()
        del kwargs["patched"][1]
        with pytest.raises(InvariantError):
            contracts.check_incremental_cost_rows(**kwargs)

    def test_target_set_divergence_caught(self):
        kwargs = self.base_kwargs()
        kwargs["patched"][0][99] = 1.0
        with pytest.raises(InvariantError):
            contracts.check_incremental_cost_rows(**kwargs)


class TestSharedForest:
    def base_kwargs(self, **overrides):
        kwargs = dict(
            nodes=3,
            forest_nodes=3,
            indptr=[0, 1, 3, 4],
            indices=[1, 0, 2, 1],
            fresh_indptr=[0, 1, 3, 4],
            fresh_indices=[1, 0, 2, 1],
        )
        kwargs.update(overrides)
        return kwargs

    def test_matching_forest_passes(self):
        contracts.check_shared_forest(**self.base_kwargs())

    def test_node_count_drift_caught(self):
        with pytest.raises(InvariantError) as exc:
            contracts.check_shared_forest(**self.base_kwargs(nodes=4))
        assert "stale-hop-forest" in str(exc.value)

    def test_adjacency_drift_caught(self):
        # Same shape, one neighbour swapped: only the indices differ.
        kwargs = self.base_kwargs(fresh_indices=[2, 0, 2, 1])
        with pytest.raises(InvariantError) as exc:
            contracts.check_shared_forest(**kwargs)
        assert "CSR adjacency differs" in str(exc.value)

    def test_adopting_model_checks_the_graph(self, monkeypatch):
        # A mutation that bypasses Graph's mutators leaves the cached
        # forest behind; the next model to adopt it must notice.
        monkeypatch.setenv(contracts.ENV_VAR, "1")
        graph = grid_graph(3)
        CostModel(graph, StorageState(graph.nodes(), 5)).hop_counts(0)
        CostModel(graph, StorageState(graph.nodes(), 5)).hop_counts(0)
        graph._adj[0][8] = graph._adj[8][0] = 1.0
        with pytest.raises(InvariantError, match="stale-hop-forest"):
            CostModel(graph, StorageState(graph.nodes(), 5)).hop_counts(0)
        graph.add_edge(0, 8)  # a real mutator drops the stale forest
        model = CostModel(graph, StorageState(graph.nodes(), 5))
        assert model.hop_counts(0)[8] == 1


class TestNodeCosts:
    def base_kwargs(self, **overrides):
        kwargs = dict(nodes=[0, 1, 2], maintained=[2.0, 4.0, 2.0],
                      fresh=[2, 4, 2])
        kwargs.update(overrides)
        return kwargs

    def test_matching_vector_passes(self):
        contracts.check_node_costs(**self.base_kwargs())

    def test_drifted_entry_caught(self):
        with pytest.raises(InvariantError, match="stale-node-costs"):
            contracts.check_node_costs(**self.base_kwargs(fresh=[2, 6, 2]))

    def test_length_drift_caught(self):
        with pytest.raises(InvariantError, match="stale-node-costs"):
            contracts.check_node_costs(**self.base_kwargs(fresh=[2, 4]))

    @pytest.mark.parametrize("reader", ["weighted_graph", "confl_instance"])
    def test_drifted_vector_raises_where_weights_are_read(
        self, monkeypatch, reader
    ):
        # Storage changed behind the model's back: the maintained vector
        # is stale, and every builder of the dissemination weights must
        # notice before it routes a tree on it.
        monkeypatch.setenv(contracts.ENV_VAR, "1")
        state = grid_problem(4, num_chunks=2).new_state()
        state.costs.contention_weighted_graph()
        build_confl_instance(state)
        state.storage.add(5, 0)
        with pytest.raises(InvariantError, match="stale-node-costs"):
            if reader == "weighted_graph":
                state.costs.contention_weighted_graph()
            else:
                build_confl_instance(state)
        state.costs.invalidate(dirty_nodes=[5])
        state.costs.contention_weighted_graph()
        build_confl_instance(state)


class TestWiring:
    def test_suite_runs_with_sanitizer_on(self):
        # conftest.py sets REPRO_SANITIZE=1 for the whole suite unless
        # the caller set it; this guards against the setdefault being
        # dropped, and lets `REPRO_SANITIZE=0 pytest` run unsanitized.
        from tests.conftest import CALLER_SANITIZE

        assert contracts.sanitize_enabled() or CALLER_SANITIZE is not None

    def test_dual_ascent_checks_itself(self, monkeypatch):
        monkeypatch.setenv(contracts.ENV_VAR, "1")
        instance = build_confl_instance(
            grid_problem(4, num_chunks=1).new_state()
        )
        result = dual_ascent(instance)
        assert set(result.assignment) == set(instance.clients)
