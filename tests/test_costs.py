"""Unit tests for the fairness and contention cost model (Eqs. 1-2)."""

import math

import numpy as np
import pytest

from repro.core import (
    CostModel,
    PATH_POLICY_CONTENTION,
    PATH_POLICY_HOPS,
    StorageState,
    build_confl_instance,
    fairness_degree_cost,
    node_contention_cost,
    path_contention_cost,
    solve_approximation,
)
from repro.core.costs import weighted_topology
from repro.errors import (
    InvariantError,
    NodeNotFoundError,
    NoPathError,
    ProblemError,
)
from repro.adaptive import AdaptiveConfig, AdaptiveController
from repro.distributed import solve_distributed
from repro.graphs import (
    Graph,
    connected_random_network,
    cycle_graph,
    erdos_renyi_connected,
    grid_graph,
    hop_distances,
    path_graph,
)
import repro.graphs.forest as forest_module
from repro.graphs.forest import cached_forest
from repro.obs import Recorder, use_recorder
from repro.serve import ZipfWorkload, serve_placement
from repro.workloads import grid_problem, random_problem


def full_block(model):
    """Every ``c_ij`` of ``model``, as one ``cost_rows`` block."""
    nodes = list(model.graph.nodes())
    return model.cost_rows(nodes, nodes)


def reachable(model, source):
    """The targets with a finite cost from ``source``."""
    nodes = list(model.graph.nodes())
    row = model.cost_rows([source], nodes)[0]
    return {node for node, cost in zip(nodes, row) if np.isfinite(cost)}


class TestFairnessDegreeCost:
    def test_empty_storage_is_free(self):
        assert fairness_degree_cost(0, 5) == 0.0

    def test_paper_sequence_capacity_5(self):
        # S = 0..4 of 5: 0, 1/4, 2/3, 3/2, 4
        values = [fairness_degree_cost(s, 5) for s in range(5)]
        assert values == pytest.approx([0, 0.25, 2 / 3, 1.5, 4.0])

    def test_full_storage_infinite(self):
        assert fairness_degree_cost(5, 5) == math.inf

    def test_zero_capacity_infinite(self):
        assert fairness_degree_cost(0, 0) == math.inf

    def test_monotone_in_usage(self):
        costs = [fairness_degree_cost(s, 10) for s in range(10)]
        assert costs == sorted(costs)

    def test_invalid_occupancy(self):
        with pytest.raises(ProblemError):
            fairness_degree_cost(6, 5)
        with pytest.raises(ProblemError):
            fairness_degree_cost(-1, 5)


class TestNodeContention:
    def test_cost_is_degree(self, grid4):
        assert node_contention_cost(grid4, 0) == 2
        assert node_contention_cost(grid4, 5) == 4

    def test_path_cost_empty_storage(self, grid4):
        storage = StorageState(grid4.nodes(), 5)
        # path 0-1-2: degrees 2+3+3 = 8
        assert path_contention_cost(grid4, [0, 1, 2], storage) == 8.0

    def test_path_cost_with_storage(self, grid4):
        storage = StorageState(grid4.nodes(), 5)
        storage.add(1, 0)
        storage.add(1, 1)
        # node 1 contributes deg * (1 + 2) = 9
        assert path_contention_cost(grid4, [0, 1, 2], storage) == 2 + 9 + 3

    def test_trivial_paths_free(self, grid4):
        storage = StorageState(grid4.nodes(), 5)
        assert path_contention_cost(grid4, [3], storage) == 0.0
        assert path_contention_cost(grid4, [], storage) == 0.0


class TestCostModel:
    @pytest.fixture
    def model(self, grid4):
        storage = StorageState(grid4.nodes(), 5, producer=9)
        return CostModel(grid4, storage)

    def test_self_cost_zero(self, model):
        assert model.contention_cost(3, 3) == 0.0

    def test_adjacent_cost_is_degree_sum(self, model):
        assert model.contention_cost(0, 1) == 5.0  # deg 2 + deg 3

    def test_cost_includes_endpoints(self, model):
        # 0-1-2 on the grid: 2+3+3
        assert model.contention_cost(0, 2) == 8.0

    def test_producer_fairness_infinite(self, model):
        assert model.fairness_cost(9) == math.inf

    def test_fairness_tracks_storage(self, model):
        assert model.fairness_cost(1) == 0.0
        model.storage.add(1, 0)
        model.invalidate()
        assert model.fairness_cost(1) == 0.25

    def test_storage_inflates_contention(self, model):
        before = model.contention_cost(0, 2)
        model.storage.add(1, 0)
        model.invalidate()
        after = model.contention_cost(0, 2)
        assert after == before + 3.0  # node 1 degree 3, +1 chunk

    def test_invalidate_required_for_fresh_costs(self, model):
        base = model.contention_cost(0, 2)
        model.storage.add(1, 0)
        # without invalidate the cache serves the stale value
        assert model.contention_cost(0, 2) == base

    def test_all_costs_match_single(self, model):
        nodes = list(model.graph.nodes())
        row = model.cost_rows([0], nodes)[0].tolist()
        for target, cost in zip(nodes, row):
            assert cost == model.contention_cost(0, target)

    def test_cost_matrix_complete(self, model):
        block = full_block(model)
        nodes = list(model.graph.nodes())
        assert block.shape == (len(nodes), len(nodes))
        assert np.isfinite(block).all()

    def test_edge_cost(self, model):
        assert model.edge_cost(0, 1) == 5.0
        with pytest.raises(ProblemError):
            model.edge_cost(0, 5)  # not adjacent

    def test_contention_weighted_graph(self, model):
        weighted = model.contention_weighted_graph()
        assert weighted.num_edges == model.graph.num_edges
        assert weighted.weight(0, 1) == 5.0

    def test_path_returns_hop_path(self, model):
        path = model.path(0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert len(path) == 7

    def test_bad_policy_rejected(self, grid4):
        storage = StorageState(grid4.nodes(), 5)
        with pytest.raises(ProblemError):
            CostModel(grid4, storage, path_policy="teleport")

    def test_full_invalidate_drops_cost_rows_keeps_hop_trees(self, model):
        # Regression: a stale stored row after a storage mutation would
        # silently serve pre-mutation contention costs.  The BFS hop
        # trees and the forest that holds their Euler ranges depend only
        # on topology and must survive.
        model.contention_cost(0, 2)
        model.path(0, 15)
        assert model._hop_trees and model._built.any()
        trees_before = dict(model._hop_trees)
        forest = model._forest
        assert forest is not None
        model.storage.add(1, 0)
        model.invalidate()
        assert not model._built.any()
        assert model._hop_trees.keys() == trees_before.keys()
        assert all(model._hop_trees[s] is t for s, t in trees_before.items())
        assert model._forest is forest
        # Fresh lookups rebuild from the mutated storage, not the caches.
        assert model.contention_cost(0, 2) == 2 + 3 * 2 + 3

    def test_topology_invalidate_drops_everything(self, model):
        model.contention_cost(0, 2)
        assert model._hop_trees and model._built.any()
        model.invalidate_topology()
        assert model._hop_trees == {}
        assert model._forest is None
        assert cached_forest(model.graph) is None
        assert not model._built.any()


class TestHopCounts:
    """hop_counts: BFS hop distances read off the cached hop trees."""

    def test_matches_hop_distances_in_order(self):
        graph, _ = connected_random_network(40, seed=3)
        model = CostModel(graph, StorageState(graph.nodes(), 5))
        for source in graph.nodes():
            assert list(model.hop_counts(source).items()) == list(
                hop_distances(graph, source).items()
            )

    def test_survives_storage_changes_not_topology_changes(self, grid4):
        model = CostModel(grid4, StorageState(grid4.nodes(), 5))
        hops = model.hop_counts(0)
        model.storage.add(5, 0)
        model.invalidate(dirty_nodes=[5])
        model.invalidate()
        assert model.hop_counts(0) is hops
        grid4.add_edge(0, 15)
        model.invalidate_topology()
        assert model.hop_counts(0)[15] == 1

    def test_dist_runs_one_bfs_per_source(self, monkeypatch):
        # Every chunk session of a run shares the cost model's forest:
        # one build for the whole problem, each source's tree read once.
        # Appx, serve and the adaptive loop then adopt the graph's forest
        # instead of building their own.
        forests = []
        real_hop_forest = forest_module.hop_forest

        def counting_hop_forest(indptr, indices):
            forests.append(len(indptr) - 1)
            return real_hop_forest(indptr, indices)

        monkeypatch.setattr(forest_module, "hop_forest", counting_hop_forest)
        problem, _ = random_problem(30, seed=2017)
        rec = Recorder()
        with use_recorder(rec):
            solve_distributed(problem)
        assert forests == [problem.graph.num_nodes]
        assert rec.counter("costs.tree_rebuilds") == problem.graph.num_nodes
        placement = solve_approximation(problem)
        serve_placement(placement, ZipfWorkload(seed=1), 500)
        AdaptiveController(
            problem,
            ZipfWorkload(seed=1),
            AdaptiveConfig(epochs=2, epoch_requests=300),
        ).run()
        assert forests == [problem.graph.num_nodes]


class TestSharedForest:
    """One hop forest per graph, dropped by every graph mutator."""

    @pytest.mark.parametrize(
        "mutate, source, expected",
        [
            (lambda g: g.add_node(16), 16, {16: 0}),
            (lambda g: g.add_edge(0, 15), 0, {15: 1}),
            (lambda g: g.remove_edge(0, 1), 0, {1: 3}),
            (lambda g: g.remove_node(1), 0, {2: 4}),
        ],
        ids=["add_node", "add_edge", "remove_edge", "remove_node"],
    )
    def test_mutators_reach_the_next_model(self, grid4, mutate, source,
                                           expected):
        first = CostModel(grid4, StorageState(grid4.nodes(), 5))
        first.hop_counts(0)
        assert cached_forest(grid4) is not None
        mutate(grid4)
        assert cached_forest(grid4) is None
        model = CostModel(grid4, StorageState(grid4.nodes(), 5))
        hops = model.hop_counts(source)
        assert {node: hops[node] for node in expected} == expected
        assert hops == hop_distances(grid4, source)

    def test_models_on_one_graph_share_its_forest(self, grid4):
        models = [
            CostModel(grid4, StorageState(grid4.nodes(), 5))
            for _ in range(3)
        ]
        for model in models:
            model.hop_counts(0)
        assert all(model._forest is models[0]._forest for model in models)
        assert cached_forest(grid4).forest is models[0]._forest

    def test_stale_model_names_the_missing_invalidation(self, grid4):
        model = CostModel(grid4, StorageState(grid4.nodes(), 5))
        grid4.add_node(16)
        with pytest.raises(ProblemError, match="invalidate_topology"):
            model.cost_rows([0], [15])

    def test_two_graphs_never_share_a_forest(self):
        left, right = grid_graph(4), grid_graph(4)
        a = CostModel(left, StorageState(left.nodes(), 5))
        b = CostModel(right, StorageState(right.nodes(), 5))
        assert a.hop_counts(0) == b.hop_counts(0)
        assert a._forest is not b._forest
        right.add_edge(0, 15)
        assert cached_forest(left).forest is a._forest
        c = CostModel(right, StorageState(right.nodes(), 5))
        assert c.hop_counts(0)[15] == 1 and a.hop_counts(0)[15] == 6


class TestIncrementalInvalidation:
    """The delta-patch engine: invalidate(dirty_nodes=...) under "hops"."""

    @pytest.fixture
    def model(self, grid4):
        storage = StorageState(grid4.nodes(), 5, producer=9)
        return CostModel(grid4, storage)

    def _assert_matches_fresh(self, model):
        fresh = CostModel(model.graph, model.storage, model.path_policy)
        assert np.array_equal(full_block(model), full_block(fresh))

    def test_single_dirty_patch_matches_fresh_model(self, model):
        full_block(model)  # populate every row
        model.storage.add(5, 0)
        model.invalidate(dirty_nodes=(5,))
        self._assert_matches_fresh(model)

    def test_sequence_of_commits_matches_fresh_model(self, model):
        full_block(model)
        for chunk, node in enumerate((1, 5, 10, 5, 14, 1)):
            model.storage.add(node, chunk)
            model.invalidate(dirty_nodes=(node,))
        self._assert_matches_fresh(model)

    def test_evict_patches_downward(self, model):
        model.storage.add(6, 0)
        model.invalidate(dirty_nodes=(6,))
        before = full_block(model)
        model.storage.remove(6, 0)
        model.invalidate(dirty_nodes=(6,))
        self._assert_matches_fresh(model)
        assert not np.array_equal(full_block(model), before)

    def test_self_cost_stays_zero_when_source_dirty(self, model):
        full_block(model)
        model.storage.add(5, 0)
        model.invalidate(dirty_nodes=(5,))
        assert model.contention_cost(5, 5) == 0.0
        assert model.cost_rows([5], [5])[0, 0] == 0.0

    def test_rows_built_after_patch_are_consistent(self, model):
        # Only one row cached when the patch lands; rows built later must
        # agree with it (they read the already-updated storage).
        model.cost_rows([0], [0])
        model.storage.add(5, 0)
        model.invalidate(dirty_nodes=(5,))
        self._assert_matches_fresh(model)

    def test_noop_dirty_invalidate_changes_nothing(self, model):
        before = full_block(model)
        model.invalidate(dirty_nodes=(5,))  # storage did not change
        assert np.array_equal(full_block(model), before)

    def test_unknown_dirty_node_rejected(self, model):
        with pytest.raises(ProblemError):
            model.invalidate(dirty_nodes=("nowhere",))

    def test_hop_trees_survive_dirty_invalidation(self, model):
        full_block(model)
        tree = model._hop_trees[0]
        model.storage.add(5, 0)
        model.invalidate(dirty_nodes=(5,))
        assert model._hop_trees[0] is tree

    def test_counters(self, model):
        rec = Recorder()
        with use_recorder(rec):
            full_block(model)
            builds = rec.counter("costs.row_builds")
            model.storage.add(5, 0)
            model.invalidate(dirty_nodes=(5,))
            full_block(model)
        assert builds == model.graph.num_nodes
        assert rec.counter("costs.row_builds") == builds  # patched, not rebuilt
        assert rec.counter("costs.incremental_patches") == 1
        assert rec.counter("costs.full_rebuilds") == 0
        assert rec.counter("costs.row_cache_hits") >= builds

    def test_one_timed_forest_build_counts_each_tree_once(self, model):
        rec = Recorder()
        with use_recorder(rec):
            model.contention_cost(0, 15)
            model.path(0, 15)
            model.hop_counts(3)
            model.affected_targets(7, 5)
            model.invalidate()
            model.contention_cost(0, 15)
        assert rec.dump()["timers"]["costs.hop_forest"]["calls"] == 1
        assert rec.counter("costs.tree_rebuilds") == 3  # sources 0, 3, 7
        model.invalidate_topology()
        with use_recorder(rec):
            model.hop_counts(3)
        assert rec.dump()["timers"]["costs.hop_forest"]["calls"] == 2
        assert rec.counter("costs.tree_rebuilds") == 4

    def test_full_invalidate_counts_full_rebuild(self, model):
        rec = Recorder()
        with use_recorder(rec):
            model.invalidate()
        assert rec.counter("costs.full_rebuilds") == 1
        assert rec.counter("costs.incremental_patches") == 0

    def test_contention_policy_falls_back_to_full_drop(self, grid4):
        storage = StorageState(grid4.nodes(), 5, producer=9)
        model = CostModel(grid4, storage, PATH_POLICY_CONTENTION)
        model.cost_rows([0], [0])
        assert model._built.any() and model._tree_cache
        rec = Recorder()
        with use_recorder(rec):
            storage.add(5, 0)
            model.invalidate(dirty_nodes=(5,))
        assert not model._built.any()
        assert model._tree_cache == {}
        assert rec.counter("costs.full_rebuilds") == 1
        fresh = CostModel(grid4, storage, PATH_POLICY_CONTENTION)
        assert np.array_equal(full_block(model), full_block(fresh))

    def test_sanitizer_catches_inconsistent_patch(self, model, monkeypatch):
        # Corrupt a stored matrix entry, then trigger an incremental
        # patch: the REPRO_SANITIZE cross-check must notice the divergence.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        full_block(model)
        model._matrix[model._index[0], model._index[15]] += 1.0
        model.storage.add(5, 0)
        with pytest.raises(InvariantError):
            model.invalidate(dirty_nodes=(5,))


class TestUnreachableTargets:
    """Disconnected/churned graphs must fail with typed errors."""

    @pytest.fixture
    def split(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge("a", "b")  # second component
        return g

    @pytest.mark.parametrize(
        "policy", [PATH_POLICY_HOPS, PATH_POLICY_CONTENTION]
    )
    def test_contention_cost_unreachable_raises_no_path(self, split, policy):
        model = CostModel(split, StorageState(split.nodes(), 5), policy)
        with pytest.raises(NoPathError) as exc:
            model.contention_cost(0, "a")
        assert exc.value.source == 0
        assert exc.value.target == "a"

    @pytest.mark.parametrize(
        "policy", [PATH_POLICY_HOPS, PATH_POLICY_CONTENTION]
    )
    def test_path_unreachable_raises_no_path(self, split, policy):
        model = CostModel(split, StorageState(split.nodes(), 5), policy)
        with pytest.raises(NoPathError):
            model.path(0, "b")

    def test_missing_target_raises_node_not_found(self, split):
        model = CostModel(split, StorageState(split.nodes(), 5))
        with pytest.raises(NodeNotFoundError):
            model.contention_cost(0, "ghost")

    @pytest.mark.parametrize(
        "policy", [PATH_POLICY_HOPS, PATH_POLICY_CONTENTION]
    )
    @pytest.mark.parametrize(
        "source, target", [("ghost", "ghost"), (0, "ghost"), ("ghost", 0)]
    )
    def test_path_of_missing_node_raises_node_not_found(
        self, split, policy, source, target
    ):
        # The same error contention_cost raises for the pair.
        model = CostModel(split, StorageState(split.nodes(), 5), policy)
        with pytest.raises(NodeNotFoundError):
            model.contention_cost(source, target)
        with pytest.raises(NodeNotFoundError):
            model.path(source, target)

    def test_no_path_error_is_catchable_as_problem_family(self, split):
        from repro.errors import ReproError

        model = CostModel(split, StorageState(split.nodes(), 5))
        with pytest.raises(ReproError):
            model.contention_cost(0, "a")

    def test_all_costs_cover_component_only(self, split):
        model = CostModel(split, StorageState(split.nodes(), 5))
        assert reachable(model, 0) == {0, 1, 2}
        assert reachable(model, "a") == {"a", "b"}

    def test_dirty_patch_skips_unreachable_dirty_node(self, split):
        storage = StorageState(split.nodes(), 5)
        model = CostModel(split, storage)
        nodes = list(split.nodes())
        row = model.cost_rows([0], nodes)
        storage.add("a", 0)  # dirty node in the other component
        model.invalidate(dirty_nodes=("a",))
        assert np.array_equal(model.cost_rows([0], nodes), row)


class TestContentionTreeCache:
    """The "contention" policy caches (dist, parents) per source now."""

    def test_dijkstra_runs_once_per_source(self, grid4):
        storage = StorageState(grid4.nodes(), 5)
        model = CostModel(grid4, storage, PATH_POLICY_CONTENTION)
        rec = Recorder()
        with use_recorder(rec):
            model.path(0, 15)
            model.path(0, 10)
            model.contention_cost(0, 5)
        assert rec.counter("costs.tree_rebuilds") == 1

    def test_invalidate_refreshes_cached_tree(self, grid4):
        storage = StorageState(grid4.nodes(), 5)
        model = CostModel(grid4, storage, PATH_POLICY_CONTENTION)
        before = model.contention_cost(0, 2)
        storage.add(1, 0)
        model.invalidate()
        rec = Recorder()
        with use_recorder(rec):
            after = model.contention_cost(0, 2)
        assert rec.counter("costs.tree_rebuilds") == 1
        assert after != before


class TestEdgeCostPolicy:
    """c_e must agree with the configured PATH policy's c_ij (Eq. 2)."""

    @pytest.mark.parametrize(
        "policy", [PATH_POLICY_HOPS, PATH_POLICY_CONTENTION]
    )
    def test_edge_cost_equals_policy_contention_cost(self, grid4, policy):
        storage = StorageState(grid4.nodes(), 5)
        for chunk, node in enumerate((1, 5, 5, 10)):
            storage.add(node, chunk)
        model = CostModel(grid4, storage, policy)
        for u, v, _ in grid4.edges():
            assert model.edge_cost(u, v) == model.contention_cost(u, v)

    def test_direct_edge_is_optimal_under_contention_policy(self, grid4):
        # Node costs are >= 1, so no detour can undercut the direct edge:
        # the closed form w_u(1+S_u) + w_v(1+S_v) stays exact.
        storage = StorageState(grid4.nodes(), 5)
        model = CostModel(grid4, storage, PATH_POLICY_CONTENTION)
        for u, v, _ in grid4.edges():
            assert model.edge_cost(u, v) == model.node_cost(u) + model.node_cost(v)


class TestWeightedTopology:
    """The one builder of the dissemination graph (Alg. 1 lines 14–16)."""

    @staticmethod
    def _storage(graph):
        storage = StorageState(graph.nodes(), 5)
        for chunk, node in enumerate(list(graph.nodes())[1:8:3]):
            storage.add(node, chunk)
        return storage

    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(10), erdos_renyi_connected(40, 0.1, seed=2)],
        ids=["cycle10", "er40"],
    )
    def test_neighbours_follow_edges_order(self, graph):
        # KMB's Dijkstra breaks equal-distance ties by neighbour order, so
        # the copy keeps the order Graph.edges() inserts, not the
        # topology's own adjacency order (they differ on these graphs).
        weighted = CostModel(graph, self._storage(graph)).contention_weighted_graph()
        rebuilt = Graph([(u, v, 0.0) for u, v, _ in graph.edges()])
        for node in graph.nodes():
            assert list(weighted.neighbors(node)) == list(rebuilt.neighbors(node))
        assert any(
            list(graph.neighbors(node)) != list(weighted.neighbors(node))
            for node in graph.nodes()
        )

    @pytest.mark.parametrize(
        "policy", [PATH_POLICY_HOPS, PATH_POLICY_CONTENTION]
    )
    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_weights_are_scaled_edge_costs_bit_for_bit(self, grid4, policy, scale):
        model = CostModel(grid4, self._storage(grid4), policy)
        weighted = weighted_topology(grid4, model.node_cost_vector(), scale)
        for u, v, w in weighted.edges():
            assert w == scale * model.edge_cost(u, v)

    def test_instance_graph_is_a_snapshot(self):
        problem = grid_problem(4, num_chunks=2, contention_weight=0.7)
        state = problem.new_state()
        before = state.costs.contention_weighted_graph()
        instance = build_confl_instance(state)
        state.cache(5, 0)  # the commit changes storage before any read
        for u, v, w in instance.steiner_graph.edges():
            assert w == 0.7 * before.weight(u, v)
        assert instance.steiner_graph is instance.steiner_graph

    def test_one_build_per_commit_with_caches(self):
        problem = grid_problem(5, num_chunks=4)
        recorder = Recorder()
        with use_recorder(recorder):
            instance = build_confl_instance(problem.new_state())
            assert recorder.counter("costs.weighted_graph_builds") == 0
            instance.steiner_graph
            instance.steiner_graph
            assert recorder.counter("costs.weighted_graph_builds") == 1
        recorder = Recorder()
        with use_recorder(recorder):
            placement = solve_approximation(problem)
        committed = sum(1 for chunk in placement.chunks if chunk.caches)
        assert committed > 0
        assert recorder.counter("costs.weighted_graph_builds") == committed


class TestContentionPathPolicy:
    def test_contention_policy_can_beat_hops(self):
        # 0 - hub - 3 (2 hops through degree-4 hub) vs long cheap path.
        g = Graph()
        g.add_edge(0, "hub")
        g.add_edge("hub", 3)
        g.add_edge("hub", "x1")
        g.add_edge("hub", "x2")
        for a, b in [(0, "a"), ("a", "b"), ("b", 3)]:
            g.add_edge(a, b)
        storage = StorageState(g.nodes(), 5)
        hops_model = CostModel(g, storage)
        cont_model = CostModel(g, storage, PATH_POLICY_CONTENTION)
        assert cont_model.contention_cost(0, 3) <= hops_model.contention_cost(0, 3)

    def test_policies_agree_on_path_graph(self):
        g = path_graph(5)
        storage = StorageState(g.nodes(), 5)
        a = CostModel(g, storage)
        b = CostModel(g, storage, PATH_POLICY_CONTENTION)
        for t in g.nodes():
            assert a.contention_cost(0, t) == b.contention_cost(0, t)
