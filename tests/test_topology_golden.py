"""Golden digests of the cost model's hop trees and of the KMB Steiner tree.

``tests/data/golden_topology.json`` pins, for each graph below, every
source's topology index as :class:`~repro.core.costs.CostModel` serves
it: the BFS order, the BFS parents, the hop counts, the Euler ranges
``tin``/``tout`` (full rows, ``n`` marking a node outside the source's
tree) and the DFS preorder.  Each field is one sha256 over all sources
in graph order, nodes by ``repr``.  The graphs are a grid, a random
geometric network, a line, a ring, a star, a balanced tree, one
disconnected graph and one graph with string labels.

It also pins :func:`~repro.graphs.steiner.steiner_tree` on a 600-node
contention-weighted network: the sha256 of the tree's edges in
iteration order, weights by ``repr``.

The draws themselves are pinned as well: for
:func:`~repro.graphs.generators.connected_random_network` at 2, 20, 100
and 200 nodes over three seeds (most of the 100- and 200-node draws
grow their radius once), and for
:func:`~repro.graphs.generators.random_geometric_graph` with a larger
area, a radius that gives the complete graph and a single node.  Each
draw is two sha256s: every node's ``(neighbour, weight)`` list in graph
order, and the positions by ``repr``.  The ``GraphError`` message of a
draw that runs out of attempts is pinned verbatim.

A 1000-node case (hop trees, the draw and a KMB tree) is pinned too but
is too slow for the test suite; check it with::

    PYTHONPATH=src python -m tests.test_topology_golden --size 1000

Regenerate every entry (only after an intended change of outputs) with::

    PYTHONPATH=src python -m tests.test_topology_golden
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.core.costs import CostModel
from repro.core.storage import StorageState
from repro.errors import GraphError
from repro.graphs import (
    Graph,
    balanced_tree,
    connected_random_network,
    cycle_graph,
    grid_graph,
    path_graph,
    random_geometric_graph,
    star_graph,
    steiner_tree,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_topology.json"

SEED = 2017
CAPACITY = 5
FIELDS = ("order", "parents", "hops", "tin", "tout", "preorder")


def _disconnected() -> Graph:
    """A line, a ring and an isolated node, in one graph."""
    graph = path_graph(6)
    for u, v, _ in cycle_graph(5).edges():
        graph.add_edge(u + 10, v + 10)
    graph.add_node(99)
    return graph


def _string_labels() -> Graph:
    graph, _ = connected_random_network(40, seed=SEED + 1)
    return graph.relabeled({node: f"n{node}" for node in graph.nodes()})


#: case id -> graph factory, for the hop-tree digests.
GRAPHS: Dict[str, Callable[[], Graph]] = {
    "grid-7x5": lambda: grid_graph(7, 5),
    "rgg-150": lambda: connected_random_network(150, seed=SEED)[0],
    "rgg-sparse-60": lambda: random_geometric_graph(
        60, 0.16, seed=SEED, ensure_connected=False
    )[0],
    "line-17": lambda: path_graph(17),
    "ring-16": lambda: cycle_graph(16),
    "star-12": lambda: star_graph(12),
    "tree-3x3": lambda: balanced_tree(3, 3),
    "disconnected": _disconnected,
    "labels-40": _string_labels,
}
#: Pinned, but checked only from the command line (``--size 1000``).
SLOW_GRAPHS: Dict[str, Callable[[], Graph]] = {
    "rgg-1000": lambda: connected_random_network(1000, seed=SEED)[0],
}

#: case id -> draw, for the adjacency and position digests.  Ids end in
#: the node count, which ``--size`` matches on.
DRAWS: Dict[str, Callable[[], tuple]] = {
    **{
        f"crn-s{seed}-{nodes}": (
            lambda nodes=nodes, seed=seed: connected_random_network(nodes, seed=seed)
        )
        for nodes in (2, 20, 100, 200)
        for seed in (7, SEED, SEED + 1)
    },
    "rgg-area2-30": lambda: random_geometric_graph(
        30, 0.3, seed=SEED, area=2.0, ensure_connected=False
    ),
    "rgg-complete-12": lambda: random_geometric_graph(12, 1.5, seed=SEED),
    "rgg-single-1": lambda: random_geometric_graph(1, 0.3, seed=SEED),
}
SLOW_DRAWS: Dict[str, Callable[[], tuple]] = {
    "rgg-1000": lambda: connected_random_network(1000, seed=SEED),
}

#: A draw that runs out of attempts; its message is pinned verbatim.
EXHAUSTED = dict(num_nodes=50, radius=0.01, seed=0, max_attempts=3)

#: case id -> (nodes, terminals), for the KMB digests.
STEINER: Dict[str, tuple] = {"kmb-600": (600, 100)}
SLOW_STEINER: Dict[str, tuple] = {"kmb-1000": (1000, 180)}


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(json.dumps(line).encode("utf-8") + b"\n")
    return digest.hexdigest()


def hop_record(graph: Graph) -> Dict[str, str]:
    """One sha256 per topology field over every source of ``graph``."""
    model = CostModel(graph, StorageState(graph.nodes(), CAPACITY))
    rows: Dict[str, List[list]] = {field: [] for field in FIELDS}
    nodes = list(graph.nodes())
    for row, source in enumerate(nodes):
        tree = model._hop_tree(source)
        parents = model._forest.parent[row, tree.reach].tolist()
        rows["order"].append([repr(node) for node in tree.keys])
        rows["parents"].append(
            [[repr(node), repr(nodes[parent])]
             for node, parent in zip(tree.keys, parents)]
        )
        rows["hops"].append(
            [[repr(node), hops] for node, hops in model.hop_counts(source).items()]
        )
        rows["tin"].append(model._forest.tin[row].tolist())
        rows["tout"].append(model._forest.tout[row].tolist())
        rows["preorder"].append([repr(node) for node in tree.preorder])
    return {field: _digest(lines) for field, lines in rows.items()}


def draw_record(draw: tuple) -> Dict[str, str]:
    """The sha256s of one draw's adjacency lists and positions."""
    graph, positions = draw
    return {
        "adjacency": _digest(
            [
                repr(node),
                [[repr(nb), repr(w)] for nb, w in graph.neighbor_weights(node)],
            ]
            for node in graph.nodes()
        ),
        "positions": _digest(
            [repr(node), repr(x), repr(y)] for node, (x, y) in positions.items()
        ),
    }


def exhausted_message() -> str:
    try:
        random_geometric_graph(**EXHAUSTED)
    except GraphError as exc:
        return str(exc)
    raise AssertionError("the exhausted draw unexpectedly connected")


def steiner_record(nodes: int, terminals: int) -> str:
    """The sha256 of one KMB tree's edges on a contention-weighted network."""
    graph, _ = connected_random_network(nodes, seed=SEED)
    rng = random.Random(SEED)
    storage = StorageState(graph.nodes(), CAPACITY)
    for node in graph.nodes():
        for chunk in range(rng.randrange(CAPACITY)):
            storage.add(node, chunk)
    weighted = CostModel(graph, storage).contention_weighted_graph()
    chosen = rng.sample(sorted(graph.nodes()), terminals)
    tree = steiner_tree(weighted, chosen)
    return _digest([repr(u), repr(v), repr(w)] for u, v, w in tree.edges())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden["hop_trees"]) == sorted({**GRAPHS, **SLOW_GRAPHS})
    assert sorted(golden["draws"]) == sorted({**DRAWS, **SLOW_DRAWS})
    assert sorted(golden["steiner"]) == sorted({**STEINER, **SLOW_STEINER})


@pytest.mark.parametrize("case", sorted(GRAPHS))
def test_hop_trees_match_golden(golden, case):
    assert hop_record(GRAPHS[case]()) == golden["hop_trees"][case]


@pytest.mark.parametrize("case", sorted(DRAWS))
def test_draw_matches_golden(golden, case):
    assert draw_record(DRAWS[case]()) == golden["draws"][case]


def test_a_pinned_draw_grows_its_radius():
    """``crn-s7-100`` only connects after its radius grows past the first."""
    nodes = 100
    radius = math.sqrt(5.0 / (nodes * math.pi))
    with pytest.raises(GraphError):
        random_geometric_graph(nodes, radius, seed=7, max_attempts=20)


def test_exhausted_draw_message_matches_golden(golden):
    assert exhausted_message() == golden["errors"]["exhausted"]


@pytest.mark.parametrize("case", sorted(STEINER))
def test_steiner_tree_matches_golden(golden, case):
    assert steiner_record(*STEINER[case]) == golden["steiner"][case]


def regenerate() -> None:
    golden = {
        "hop_trees": {
            case: hop_record(factory())
            for case, factory in sorted({**GRAPHS, **SLOW_GRAPHS}.items())
        },
        "draws": {
            case: draw_record(factory())
            for case, factory in sorted({**DRAWS, **SLOW_DRAWS}.items())
        },
        "errors": {"exhausted": exhausted_message()},
        "steiner": {
            case: steiner_record(*spec)
            for case, spec in sorted({**STEINER, **SLOW_STEINER}.items())
        },
    }
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


def check_size(nodes: int) -> int:
    """Check every pinned case of ``nodes`` nodes; 0 when all match."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    checks = {
        case: (lambda factory=factory: hop_record(factory()))
        for case, factory in {**GRAPHS, **SLOW_GRAPHS}.items()
        if case.endswith(f"-{nodes}")
    }
    expected = {case: golden["hop_trees"][case] for case in checks}
    for case, factory in {**DRAWS, **SLOW_DRAWS}.items():
        if case.endswith(f"-{nodes}"):
            checks[f"draw:{case}"] = lambda factory=factory: draw_record(factory())
            expected[f"draw:{case}"] = golden["draws"][case]
    for case, spec in {**STEINER, **SLOW_STEINER}.items():
        if spec[0] == nodes:
            checks[case] = lambda spec=spec: steiner_record(*spec)
            expected[case] = golden["steiner"][case]
    if not checks:
        print(f"no pinned case has {nodes} nodes", file=sys.stderr)
        return 2
    failed = 0
    for case, check in sorted(checks.items()):
        ok = check() == expected[case]
        failed += not ok
        print(f"{case}: {'ok' if ok else 'MISMATCH'}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--size", type=int, default=None,
        help="check the pinned cases of this many nodes instead of "
        "regenerating the golden file",
    )
    args = parser.parse_args(argv)
    if args.size is not None:
        return check_size(args.size)
    regenerate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
