"""The numpy random-geometric draw against the scalar pair loop it replaced.

:func:`~repro.graphs.generators.random_geometric_graph` tests every
attempt on one ``n × n`` range mask and builds a :class:`Graph` only for
the accepted draw.  The oracle here is the pure-Python loop the generator
used before: every pair ``u < v`` in label order, ``dx*dx + dy*dy <= r2``
in scalar floats, ``add_edge`` as it goes, then ``is_connected`` on the
result.  The properties check the same ``add_edge`` calls in the same
order (so every neighbour order, hop tree and placement stays put) and the
same connectivity verdict, on

* positions on the 1/8 lattice with radii on the same lattice, so many
  pairs sit at ``d² == r²`` exactly and exercise the ``<=`` boundary;
* duplicate positions (distance 0);
* whole seeded draws, connected or not, with and without
  ``ensure_connected``.

Hypothesis runs derandomized (``derandomize=True``) with the example
budgets given in the settings below.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import Graph, is_connected, random_geometric_graph
from repro.graphs.generators import _mask_connected, _range_graph, _within_range

MASK_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
DRAW_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def _geometric_edges(positions: dict, radius: float) -> Graph:
    """The scalar pair loop the generator used before the range mask."""
    graph = Graph()
    graph.add_nodes(positions)
    labels = sorted(positions)
    r2 = radius * radius
    for i, u in enumerate(labels):
        ux, uy = positions[u]
        for v in labels[i + 1 :]:
            vx, vy = positions[v]
            dx, dy = ux - vx, uy - vy
            if dx * dx + dy * dy <= r2:
                graph.add_edge(u, v)
    return graph


def _oracle_draw(num_nodes, radius, seed, area, ensure_connected, max_attempts):
    """``random_geometric_graph`` as it was, on the scalar pair loop."""
    rng = random.Random(seed)
    for _ in range(max_attempts):
        positions = {
            i: (rng.uniform(0, area), rng.uniform(0, area)) for i in range(num_nodes)
        }
        graph = _geometric_edges(positions, radius)
        if not ensure_connected or is_connected(graph):
            return graph, positions
    raise GraphError("exhausted")


def _recorded(build) -> Tuple[List[tuple], object]:
    """Run ``build()`` and return every ``Graph.add_edge`` call it made."""
    calls: List[tuple] = []
    add_edge = Graph.add_edge

    def record(self, u, v, weight=1.0):
        calls.append((u, v, weight))
        add_edge(self, u, v, weight)

    with mock.patch.object(Graph, "add_edge", record):
        result = build()
    return calls, result


def _adjacency(graph: Graph) -> list:
    return [(node, list(graph.neighbor_weights(node))) for node in graph.nodes()]


def _mask_graph(positions: Dict[int, tuple], radius: float) -> Tuple[Graph, bool]:
    n = len(positions)
    buffers = np.empty((n, n)), np.empty((n, n))
    within = _within_range(positions, radius * radius, *buffers)
    return _range_graph(within), _mask_connected(within)


#: Coordinates on the 1/8 lattice of the unit square: every squared
#: distance and every squared lattice radius is exact in binary.
LATTICE = st.integers(min_value=0, max_value=8).map(lambda k: k / 8)
LATTICE_POINTS = st.lists(st.tuples(LATTICE, LATTICE), min_size=1, max_size=30)
LATTICE_RADII = st.integers(min_value=1, max_value=12).map(lambda k: k / 8)

#: Off-lattice points, with duplicates forced by repeating a prefix.
FREE_POINTS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


def _check_same_draw(points: List[tuple], radius: float) -> None:
    positions = dict(enumerate(points))
    old_calls, old_graph = _recorded(lambda: _geometric_edges(positions, radius))
    new_calls, (new_graph, connected) = _recorded(
        lambda: _mask_graph(positions, radius)
    )
    assert new_calls == old_calls
    assert _adjacency(new_graph) == _adjacency(old_graph)
    assert connected == is_connected(old_graph)


#: Steps of d = 1/8 along the axes at r = 1/8: connected only through
#: pairs at d² == r².
CHAIN = [(0.0, 0.0), (0.125, 0.0), (0.25, 0.0), (0.25, 0.125)]
#: Two such pairs out of range of each other: disconnected.
SPLIT = [(0.0, 0.0), (0.125, 0.0), (1.0, 1.0), (0.875, 1.0)]


class TestRangeMaskMatchesPairLoop:
    @MASK_SETTINGS
    @given(LATTICE_POINTS, LATTICE_RADII)
    @example(CHAIN, 0.125)
    @example(SPLIT, 0.125)
    # A 3-4-5 triangle: d² == r² == 25/64 off the axes.
    @example([(0.0, 0.0), (0.375, 0.5)], 0.625)
    def test_lattice_boundary(self, points, radius):
        _check_same_draw(points, radius)

    @MASK_SETTINGS
    @given(
        FREE_POINTS,
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=1e-6, max_value=1.5, allow_nan=False),
    )
    # Every node on one spot: the complete graph.
    @example([(0.3, 0.7)], 4, 1e-6)
    def test_duplicate_positions(self, points, repeats, radius):
        _check_same_draw(points + points[:repeats], radius)

    def test_lattice_examples_cover_both_verdicts(self):
        assert _mask_graph(dict(enumerate(CHAIN)), 0.125)[1] is True
        assert _mask_graph(dict(enumerate(SPLIT)), 0.125)[1] is False


class TestSeededDrawMatchesPairLoop:
    @DRAW_SETTINGS
    @given(
        num_nodes=st.integers(min_value=1, max_value=40),
        radius=st.floats(min_value=0.05, max_value=1.5, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        area=st.sampled_from([1.0, 2.0, 0.5, 3]),
        ensure_connected=st.booleans(),
    )
    def test_same_draw(self, num_nodes, radius, seed, area, ensure_connected):
        def draw(generator):
            try:
                return generator(num_nodes, radius, seed, area, ensure_connected, 5)
            except GraphError:
                return None

        old = draw(_oracle_draw)
        new_calls, new = _recorded(lambda: draw(random_geometric_graph))
        assert (new is None) == (old is None)
        if old is None:
            return
        # The pair loop built a graph per attempt; replay the accepted one.
        old_calls, _ = _recorded(lambda: _geometric_edges(old[1], radius))
        assert new_calls == old_calls
        assert _adjacency(new[0]) == _adjacency(old[0])
        assert [(k, repr(x), repr(y)) for k, (x, y) in new[1].items()] == [
            (k, repr(x), repr(y)) for k, (x, y) in old[1].items()
        ]
