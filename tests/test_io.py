"""Unit tests for placement/problem JSON serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CachingProblem, solve_approximation
from repro.errors import ProblemError
from repro.experiments.runner import SOLVERS
from repro.graphs import Graph, grid_graph
from repro.io import (
    decode_node,
    encode_node,
    graph_from_dict,
    graph_to_dict,
    load_placement,
    placement_from_dict,
    placement_to_dict,
    problem_from_dict,
    problem_to_dict,
    save_placement,
)
from repro.workloads import grid_problem, random_problem

node_labels = st.recursive(
    st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        st.text(max_size=12),
        st.booleans(),
    ),
    lambda children: st.tuples(children, children),
    max_leaves=4,
)


class TestNodeCodec:
    @given(node_labels)
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, label):
        assert decode_node(encode_node(label)) == label

    def test_bool_not_confused_with_int(self):
        assert decode_node(encode_node(True)) is True
        assert decode_node(encode_node(1)) == 1
        assert type(decode_node(encode_node(1))) is int

    def test_tuple_nesting(self):
        label = (1, ("a", 2))
        assert decode_node(encode_node(label)) == label

    def test_unsupported_type_rejected(self):
        with pytest.raises(ProblemError):
            encode_node([1, 2])

    def test_malformed_payload_rejected(self):
        with pytest.raises(ProblemError):
            decode_node({"v": 1})
        with pytest.raises(ProblemError):
            decode_node({"t": "complex", "v": 1})


class TestGraphCodec:
    def test_round_trip_weights(self):
        g = Graph([(0, 1, 2.5), ((1, 2), "x", 1.0)])
        restored = graph_from_dict(graph_to_dict(g))
        assert restored.weight(0, 1) == 2.5
        assert restored.has_edge((1, 2), "x")
        assert restored.num_nodes == g.num_nodes

    def test_isolated_nodes_kept(self):
        g = Graph()
        g.add_node(7)
        restored = graph_from_dict(graph_to_dict(g))
        assert 7 in restored


class TestProblemCodec:
    def test_round_trip(self):
        problem = grid_problem(4, num_chunks=3, capacity=2,
                               fairness_weight=2.0)
        restored = problem_from_dict(problem_to_dict(problem))
        assert restored.producer == problem.producer
        assert restored.num_chunks == 3
        assert restored.fairness_weight == 2.0
        assert restored.new_storage().capacity(0) == 2
        assert restored.graph.num_edges == problem.graph.num_edges


class TestPlacementCodec:
    @pytest.fixture(scope="class")
    def placement(self):
        return solve_approximation(grid_problem(4, num_chunks=3))

    def test_round_trip_equivalence(self, placement):
        text = json.dumps(placement_to_dict(placement))
        restored = placement_from_dict(json.loads(text))
        assert json.dumps(placement_to_dict(restored)) == text
        assert restored.algorithm == placement.algorithm
        assert [c.caches for c in restored.chunks] == [
            c.caches for c in placement.chunks
        ]
        assert restored.objective_value() == placement.objective_value()
        assert restored.loads() == placement.loads()

    def test_payload_is_json_safe(self, placement):
        text = json.dumps(placement_to_dict(placement))
        assert "chunk" in text

    def test_file_round_trip(self, placement, tmp_path):
        path = tmp_path / "placement.json"
        save_placement(placement, str(path))
        restored = load_placement(str(path))
        assert restored.total_copies() == placement.total_copies()

    def test_version_checked(self, placement):
        payload = placement_to_dict(placement)
        payload["format_version"] = 99
        with pytest.raises(ProblemError):
            placement_from_dict(payload)

    def test_tampered_placement_rejected(self, placement):
        """Deserialization re-validates: a corrupted assignment fails."""
        payload = placement_to_dict(placement)
        payload["chunks"][0]["assignment"] = payload["chunks"][0]["assignment"][:1]
        with pytest.raises(ProblemError):
            placement_from_dict(payload)


@given(
    kind=st.sampled_from(("grid", "random")),
    policy=st.sampled_from(("hops", "contention")),
    algorithm=st.sampled_from(sorted(SOLVERS)),
    weight=st.sampled_from((1.0, 0.7)),
    fairness=st.sampled_from((1.0, 2)),
    seed=st.integers(min_value=0, max_value=99),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_saved_documents_are_fixed_points_of_load_save(
    kind, policy, algorithm, weight, fairness, seed
):
    """``dumps(to_dict(from_dict(loads(s)))) == s`` for problems and
    placements: a saved artifact reloads and saves to the same bytes."""
    options = {
        "path_policy": policy,
        "contention_weight": weight,
        "fairness_weight": fairness,
    }
    if kind == "grid":
        problem = grid_problem(3 + seed % 2, num_chunks=2, **options)
    else:
        problem, _ = random_problem(
            10 + seed % 8, seed=seed, num_chunks=2, **options
        )
    text = json.dumps(problem_to_dict(problem))
    reloaded = problem_from_dict(json.loads(text))
    assert json.dumps(problem_to_dict(reloaded)) == text
    text = json.dumps(placement_to_dict(SOLVERS[algorithm](problem)), indent=1)
    reloaded = placement_from_dict(json.loads(text))
    assert json.dumps(placement_to_dict(reloaded), indent=1) == text


def _drop(key):
    def mutate(document):
        del document[key]
    return mutate


def _set(key, value):
    def mutate(document):
        document[key] = value
    return mutate


def _isolate_producer(document):
    producer = document["producer"]
    document["graph"]["edges"] = [
        edge for edge in document["graph"]["edges"] if producer not in edge[:2]
    ]


DISCONNECTED = r"^the network graph must be connected \(Sec\. III-A\)$"

PROBLEM_DEFECTS = {
    "missing-graph": (_drop("graph"), "graph"),
    "missing-producer": (_drop("producer"), "producer"),
    "missing-num-chunks": (_drop("num_chunks"), "num_chunks"),
    "missing-capacity": (_drop("capacity"), "capacity"),
    "missing-weight": (_drop("fairness_weight"), "fairness_weight"),
    "missing-policy": (_drop("path_policy"), "path_policy"),
    "text-num-chunks": (_set("num_chunks", "three"), "num_chunks"),
    "null-num-chunks": (_set("num_chunks", None), "num_chunks"),
    "list-weight": (_set("contention_weight", [1.0]), "contention_weight"),
    "numeric-policy": (_set("path_policy", 3), "path_policy"),
    "capacity-not-pairs": (_set("capacity", [1, 2]), "capacity"),
    "capacity-not-list": (_set("capacity", 5), "capacity"),
    "producer-untagged": (_set("producer", 0), "producer"),
    "graph-not-object": (_set("graph", []), "graph"),
    "graph-no-edges": (lambda d: d["graph"].pop("edges"), "edges"),
    "edge-too-short": (lambda d: d["graph"]["edges"][0].pop(), "edges"),
    "edge-weight-text": (
        lambda d: d["graph"]["edges"][0].__setitem__(2, "heavy"), "edges"
    ),
    "graph-disconnected": (lambda d: d["graph"]["edges"].clear(), DISCONNECTED),
    "producer-isolated": (_isolate_producer, DISCONNECTED),
}


@pytest.mark.parametrize("defect", sorted(PROBLEM_DEFECTS))
def test_malformed_problem_raises_problem_error_naming_field(defect):
    mutate, field = PROBLEM_DEFECTS[defect]
    document = json.loads(json.dumps(problem_to_dict(grid_problem(3))))
    mutate(document)
    with pytest.raises(ProblemError, match=field):
        problem_from_dict(document)


def _chunk(mutate):
    def apply(document):
        mutate(document["chunks"][0])
    return apply


PLACEMENT_DEFECTS = {
    "missing-problem": (_drop("problem"), "problem"),
    "missing-chunks": (_drop("chunks"), "chunks"),
    "chunks-not-list": (_set("chunks", {"0": {}}), "chunks"),
    "chunk-not-object": (_set("chunks", [3]), r"chunks\[0\]"),
    "missing-chunk-id": (_chunk(lambda c: c.pop("chunk")), "chunk"),
    "missing-caches": (_chunk(lambda c: c.pop("caches")), "caches"),
    "missing-assignment": (_chunk(lambda c: c.pop("assignment")), "assignment"),
    "missing-tree": (_chunk(lambda c: c.pop("tree_edges")), "tree_edges"),
    "missing-stage-cost": (_chunk(lambda c: c.pop("stage_cost")), "stage_cost"),
    "missing-access": (
        _chunk(lambda c: c["stage_cost"].pop("access")), "access"
    ),
    "text-fairness": (
        _chunk(lambda c: c["stage_cost"].__setitem__("fairness", "x")),
        "fairness",
    ),
    "assignment-not-pairs": (
        _chunk(lambda c: c.__setitem__("assignment", [1])), "assignment"
    ),
    "caches-untagged": (
        _chunk(lambda c: c.__setitem__("caches", [5])), "caches"
    ),
    "tree-edge-triple": (
        _chunk(lambda c: c.__setitem__("tree_edges", [[1, 2, 3]])), "tree_edges"
    ),
}


@pytest.mark.parametrize("defect", sorted(PLACEMENT_DEFECTS))
def test_malformed_placement_raises_problem_error_naming_field(defect):
    mutate, field = PLACEMENT_DEFECTS[defect]
    placement = solve_approximation(grid_problem(3, num_chunks=2))
    document = json.loads(json.dumps(placement_to_dict(placement)))
    mutate(document)
    with pytest.raises(ProblemError, match=field):
        placement_from_dict(document)


@pytest.mark.parametrize("document", [[], "placement", 3, None])
def test_non_object_placement_raises_problem_error(document):
    with pytest.raises(ProblemError, match="placement must be a JSON object"):
        placement_from_dict(document)
