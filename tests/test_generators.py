"""Unit tests for topology generators."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import GraphError
from repro.graphs import (
    balanced_tree,
    complete_graph,
    connected_random_network,
    cycle_graph,
    erdos_renyi_connected,
    grid_coordinates,
    grid_graph,
    is_connected,
    path_graph,
    random_geometric_graph,
    star_graph,
)
from repro.graphs import generators


class TestGrid:
    def test_square_grid_counts(self):
        g = grid_graph(6)
        assert g.num_nodes == 36
        assert g.num_edges == 2 * 6 * 5

    def test_rectangular_grid(self):
        g = grid_graph(2, 3)
        assert g.num_nodes == 6
        assert g.num_edges == 7

    def test_degrees(self):
        g = grid_graph(5)
        assert g.degree(0) == 2          # corner
        assert g.degree(2) == 3          # edge
        assert g.degree(12) == 4         # interior

    def test_row_major_labels(self):
        g = grid_graph(3)
        assert g.has_edge(0, 1)
        assert g.has_edge(0, 3)
        assert not g.has_edge(2, 3)  # row wrap must not connect

    def test_single_node(self):
        g = grid_graph(1)
        assert g.num_nodes == 1
        assert g.num_edges == 0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            grid_graph(0)

    def test_coordinates(self):
        coords = grid_coordinates(3)
        assert coords[0] == (0, 0)
        assert coords[5] == (1, 2)
        assert coords[8] == (2, 2)

    def test_connected(self):
        assert is_connected(grid_graph(7))


class TestRandomGeometric:
    def test_deterministic_by_seed(self):
        g1, p1 = random_geometric_graph(25, 0.3, seed=5)
        g2, p2 = random_geometric_graph(25, 0.3, seed=5)
        assert p1 == p2
        assert sorted(g1.edges()) == sorted(g2.edges())

    def test_connected_when_requested(self):
        g, _ = random_geometric_graph(30, 0.3, seed=1, ensure_connected=True)
        assert is_connected(g)

    def test_radius_controls_edges(self):
        sparse, _ = random_geometric_graph(
            30, 0.15, seed=3, ensure_connected=False
        )
        dense, _ = random_geometric_graph(
            30, 0.5, seed=3, ensure_connected=False
        )
        assert dense.num_edges > sparse.num_edges

    def test_impossible_connectivity_raises(self):
        with pytest.raises(GraphError):
            random_geometric_graph(
                50, 0.01, seed=0, ensure_connected=True, max_attempts=3
            )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            random_geometric_graph(0, 0.3)
        with pytest.raises(ValueError):
            random_geometric_graph(5, 0.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(radius=float("nan")), "radius"),
            (dict(radius=float("inf")), "radius"),
            (dict(radius=-0.5), "radius"),
            (dict(area=float("nan")), "area"),
            (dict(area=float("inf")), "area"),
            (dict(area=0.0), "area"),
            (dict(area=-1.0), "area"),
        ],
    )
    def test_bad_inputs_named_before_any_draw(self, monkeypatch, kwargs, name):
        def no_draw(*args):
            raise AssertionError("drew positions for a bad input")

        monkeypatch.setattr(generators, "_within_range", no_draw)
        args = {"num_nodes": 20, "radius": 0.3, "area": 1.0, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            random_geometric_graph(**args)

    def test_positions_within_area(self):
        _, pos = random_geometric_graph(
            20, 0.4, seed=2, area=2.0, ensure_connected=False
        )
        for x, y in pos.values():
            assert 0 <= x <= 2.0 and 0 <= y <= 2.0


class TestConnectedRandomNetwork:
    @pytest.mark.parametrize("n", [10, 40, 80])
    def test_sizes(self, n):
        g, pos = connected_random_network(n, seed=7)
        assert g.num_nodes == n
        assert is_connected(g)
        assert len(pos) == n

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            connected_random_network(1)

    @pytest.mark.parametrize(
        "degree_target", [float("nan"), float("inf"), 0.0, -1.0]
    )
    def test_bad_degree_target_named_before_any_draw(
        self, monkeypatch, degree_target
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a network for a bad degree_target")

        monkeypatch.setattr(generators, "random_geometric_graph", no_draw)
        with pytest.raises(ValueError, match="^degree_target must be positive"):
            connected_random_network(100, degree_target=degree_target)

    def test_draw_does_not_import_scipy(self):
        """``import scipy.sparse.csgraph`` alone roughly doubles a bare
        process's max RSS; the draw path must not pull it in."""
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import sys, repro\n"
            "from repro.graphs import connected_random_network\n"
            "connected_random_network(50)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "[]"


class TestCanonical:
    def test_path(self):
        g = path_graph(4)
        assert g.num_edges == 3
        assert g.degree(0) == 1

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.num_edges == 5
        assert all(g.degree(v) == 2 for v in g.nodes())

    def test_cycle_min_size(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(6)
        assert g.degree(0) == 6
        assert g.num_nodes == 7

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10

    def test_balanced_tree(self):
        g = balanced_tree(2, 3)
        assert g.num_nodes == 15
        assert g.num_edges == 14

    def test_balanced_tree_depth_zero(self):
        g = balanced_tree(3, 0)
        assert g.num_nodes == 1


class TestErdosRenyi:
    def test_always_connected(self):
        for seed in range(5):
            g = erdos_renyi_connected(20, 0.05, seed=seed)
            assert is_connected(g)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            erdos_renyi_connected(5, 1.5)

    def test_p_one_is_complete(self):
        g = erdos_renyi_connected(6, 1.0, seed=0)
        assert g.num_edges == 15
