"""Serialize placements and problems to/from JSON.

A downstream user running the solvers on real deployments needs to save
placements (ship them to devices, archive experiment artifacts, diff runs).
The format is plain JSON; node labels are serialized through a reversible
tagged encoding so the common label types (int, str, tuples of those)
round-trip exactly.  A saved document loads and saves to the same bytes.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Hashable, List

from repro.errors import ProblemError
from repro.graphs.graph import Graph
from repro.core.placement import CachePlacement, ChunkPlacement, StageCost, edge_key
from repro.core.problem import CachingProblem

Node = Hashable

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Node-label encoding: JSON object keys must be strings, and tuples don't
# exist in JSON — tag every label with its type so decoding is exact.
# ----------------------------------------------------------------------
def encode_node(node: Node) -> Any:
    """Encode a node label into a JSON-safe tagged value."""
    if isinstance(node, bool):  # bool is an int subtype; keep it distinct
        return {"t": "bool", "v": node}
    if isinstance(node, int):
        return {"t": "int", "v": node}
    if isinstance(node, float):
        return {"t": "float", "v": node}
    if isinstance(node, str):
        return {"t": "str", "v": node}
    if isinstance(node, tuple):
        return {"t": "tuple", "v": [encode_node(item) for item in node]}
    raise ProblemError(
        f"cannot serialize node label of type {type(node).__name__}"
    )


def decode_node(payload: Any) -> Node:
    """Invert :func:`encode_node`."""
    if not isinstance(payload, dict) or "t" not in payload:
        raise ProblemError(f"malformed node payload: {payload!r}")
    tag, value = payload["t"], payload.get("v")
    if tag == "bool":
        return bool(value)
    if tag == "int":
        return int(value)
    if tag == "float":
        return float(value)
    if tag == "str":
        return str(value)
    if tag == "tuple":
        return tuple(decode_node(item) for item in value)
    raise ProblemError(f"unknown node tag {tag!r}")


# ----------------------------------------------------------------------
# Graph / problem / placement codecs
# ----------------------------------------------------------------------
def graph_to_dict(graph: Graph) -> Dict[str, Any]:
    return {
        "nodes": [encode_node(n) for n in graph.nodes()],
        "edges": [
            [encode_node(u), encode_node(v), w] for u, v, w in graph.edges()
        ],
    }


def graph_from_dict(payload: Dict[str, Any]) -> Graph:
    nodes = _field(payload, "nodes", _decode_all, "graph")
    edges = _field(payload, "edges", _decode_edges, "graph")
    graph = Graph()
    graph.add_nodes(nodes)
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    return graph


def problem_to_dict(problem: CachingProblem) -> Dict[str, Any]:
    storage = problem.new_storage()
    return {
        "graph": graph_to_dict(problem.graph),
        "producer": encode_node(problem.producer),
        "num_chunks": problem.num_chunks,
        "capacity": [
            [encode_node(n), storage.capacity(n)] for n in storage.nodes()
        ],
        "fairness_weight": problem.fairness_weight,
        "contention_weight": problem.contention_weight,
        "dissemination_scale": problem.dissemination_scale,
        "path_policy": problem.path_policy,
    }


def problem_from_dict(payload: Dict[str, Any]) -> CachingProblem:
    where = "problem"
    return CachingProblem(
        graph=_field(payload, "graph", graph_from_dict, where),
        producer=_field(payload, "producer", decode_node, where),
        num_chunks=_field(payload, "num_chunks", int, where),
        capacity=_field(payload, "capacity", _decode_capacity, where),
        fairness_weight=_field(payload, "fairness_weight", _number, where),
        contention_weight=_field(payload, "contention_weight", _number, where),
        dissemination_scale=_field(
            payload, "dissemination_scale", _number, where
        ),
        path_policy=_field(payload, "path_policy", _string, where),
    )


def placement_to_dict(placement: CachePlacement) -> Dict[str, Any]:
    """Serialize a placement (problem included) to JSON-safe primitives."""
    chunks: List[Dict[str, Any]] = []
    for chunk in placement.chunks:
        chunks.append(
            {
                "chunk": chunk.chunk,
                "caches": [encode_node(n) for n in sorted(chunk.caches, key=str)],
                "assignment": [
                    [encode_node(c), encode_node(s)]
                    for c, s in chunk.assignment.items()
                ],
                "tree_edges": [
                    [encode_node(u), encode_node(v)]
                    for u, v in sorted(  # not in set iteration order
                        (sorted(key, key=repr) for key in chunk.tree_edges),
                        key=lambda pair: list(map(repr, pair)),
                    )
                ],
                "stage_cost": {
                    "fairness": chunk.stage_cost.fairness,
                    "access": chunk.stage_cost.access,
                    "dissemination": chunk.stage_cost.dissemination,
                },
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "algorithm": placement.algorithm,
        "problem": problem_to_dict(placement.problem),
        "chunks": chunks,
    }


def placement_from_dict(payload: Dict[str, Any]) -> CachePlacement:
    """Invert :func:`placement_to_dict`; validates the result."""
    if not isinstance(payload, dict):
        raise ProblemError(
            f"placement must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ProblemError(
            f"unsupported placement format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    problem = _field(payload, "problem", problem_from_dict, "placement")
    chunks: List[ChunkPlacement] = []
    for index, entry in enumerate(_field(payload, "chunks", _list, "placement")):
        where = f"placement.chunks[{index}]"
        stage = _field(entry, "stage_cost", _object, where)
        stage_where = f"{where}.stage_cost"
        chunks.append(
            ChunkPlacement(
                chunk=_field(entry, "chunk", int, where),
                caches=_field(entry, "caches", _decode_set, where),
                assignment=_field(entry, "assignment", _decode_assignment, where),
                tree_edges=_field(entry, "tree_edges", _decode_tree, where),
                stage_cost=StageCost(
                    fairness=_field(stage, "fairness", _number, stage_where),
                    access=_field(stage, "access", _number, stage_where),
                    dissemination=_field(
                        stage, "dissemination", _number, stage_where
                    ),
                ),
            )
        )
    placement = CachePlacement(
        problem=problem, chunks=chunks, algorithm=payload.get("algorithm", "")
    )
    placement.validate()
    return placement


def save_placement(placement: CachePlacement, path: str) -> None:
    """Write a placement (with its problem) to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(placement_to_dict(placement), handle, indent=1)


def load_placement(path: str) -> CachePlacement:
    """Read a placement back; raises on malformed/infeasible content."""
    with open(path, "r", encoding="utf-8") as handle:
        return placement_from_dict(json.load(handle))


# ----------------------------------------------------------------------
# Field access: a missing or mistyped field raises ProblemError naming it
# ----------------------------------------------------------------------
def _field(
    payload: Any, key: str, convert: Callable[[Any], Any], where: str
) -> Any:
    """``convert(payload[key])``, or a :class:`ProblemError` naming
    ``where.key`` when the field is missing or its value malformed."""
    if not isinstance(payload, dict):
        raise ProblemError(
            f"{where} must be a JSON object, got {type(payload).__name__}"
        )
    if key not in payload:
        raise ProblemError(f"{where}: missing field {key!r}")
    try:
        return convert(payload[key])
    except (KeyError, TypeError, ValueError, ProblemError) as exc:
        raise ProblemError(f"{where}.{key}: malformed value ({exc})") from None


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _number(value: Any) -> float:
    """A JSON number as written: ``55`` stays an int, ``55.0`` a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _list(value: Any) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _object(value: Any) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _decode_all(value: Any) -> List[Node]:
    return [decode_node(node) for node in _list(value)]


def _decode_set(value: Any) -> frozenset:
    return frozenset(_decode_all(value))


def _decode_edges(value: Any) -> list:
    return [
        (decode_node(u), decode_node(v), _number(w)) for u, v, w in _list(value)
    ]


def _decode_capacity(value: Any) -> Dict[Node, int]:
    return {decode_node(node): int(cap) for node, cap in _list(value)}


def _decode_assignment(value: Any) -> Dict[Node, Node]:
    return {decode_node(c): decode_node(s) for c, s in _list(value)}


def _decode_tree(value: Any) -> frozenset:
    return frozenset(
        edge_key(decode_node(u), decode_node(v)) for u, v in _list(value)
    )
