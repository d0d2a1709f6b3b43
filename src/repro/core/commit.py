"""Shared chunk-commit accounting used by every placement algorithm.

Whatever picks the caching set for a chunk — dual ascent, a baseline
heuristic, the exact ILP, or the distributed protocol — the bookkeeping is
identical: compute the stage costs with the *current* storage state, build
the dissemination Steiner tree, assign clients to their cheapest server,
commit the chunk to storage and refresh the cost caches.  Each
``state.cache(node, chunk)`` call marks exactly one node dirty, so the
:class:`~repro.core.costs.CostModel` delta-patches its cached ``c_ij``
rows instead of rebuilding the matrix (Algorithm 1 lines 8–13) from
scratch.  Centralizing it here keeps all algorithms comparable down to
tie-breaking.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProblemError
from repro.analysis import contracts
from repro.graphs.steiner import steiner_tree
from repro.core.costs import CostModel
from repro.core.placement import ChunkPlacement, EdgeKey, StageCost, edge_key
from repro.core.problem import CachingProblem, ProblemState
from repro.obs import get_recorder, get_tracer

Node = Hashable


def nearest_server_assignment(
    costs: CostModel, problem: CachingProblem, caches: Sequence[Node]
) -> Dict[Node, Node]:
    """Assign every client its cheapest server among ``caches ∪ {producer}``.

    "A node will find the nearest copy of a chunk" (Sec. V-A); nearest is
    measured by the Path Contention Cost, with local hits free
    (``c_ii = 0``).  Ties go to the producer, then to earlier caches:
    the first minimum of each client's column in one
    ``cost_rows([producer] + caches, clients)`` block.  An unknown cache
    raises :class:`~repro.errors.NodeNotFoundError`; an unreachable
    client raises the :class:`~repro.errors.NoPathError` of its first
    unreachable server.
    """
    clients = problem.clients
    servers = [problem.producer, *caches]
    block = costs.cost_rows(servers, clients)
    unreachable = np.argwhere(~np.isfinite(block.T))
    if len(unreachable):
        # The scalar read of the first unreachable pair raises its error.
        client, server = unreachable[0].tolist()
        costs.contention_cost(servers[server], clients[client])
    best = block.argmin(axis=0).tolist()
    return dict(zip(clients, map(servers.__getitem__, best)))


def price_chunk(
    costs: CostModel,
    assignment: Dict[Node, Node],
    tree_edges: Iterable[EdgeKey],
) -> Tuple[float, float]:
    """``(access, dissemination)`` of one chunk under ``costs``.

    Access sums Eq. 2's ``c_ij`` from each client's server; dissemination
    sums ``c_e`` over the tree's edges, in ``repr`` order of their
    endpoints (frozenset iteration order is not byte-stable).  Every
    term is integer-valued and far below 2^53, so neither sum depends
    on its order.  An empty tree disseminates ``0.0``.
    """
    access = sum(
        costs.contention_cost(server, client)
        for client, server in assignment.items()
    )
    ordered = sorted(tree_edges, key=lambda key: tuple(sorted(map(repr, key))))
    if not ordered:
        return access, 0.0
    return access, sum(costs.edge_cost(*tuple(key)) for key in ordered)


def commit_chunk(
    state: ProblemState,
    chunk: int,
    caches: Iterable[Node],
    assignment: Optional[Dict[Node, Node]] = None,
    tree_edges: Optional[frozenset] = None,
) -> ChunkPlacement:
    """Record chunk placement, compute stage costs, and update storage.

    Parameters
    ----------
    caches:
        Nodes that will cache this chunk (order is the tie-break order for
        client assignment).  Must all have spare storage.
    assignment:
        Optional client → server map.  ``None`` (default) derives the
        nearest-server assignment.  If given, every server must be a cache
        or the producer, and every client must appear.
    tree_edges:
        Optional dissemination tree (set of edge keys).  ``None`` builds
        the KMB Steiner tree over ``caches ∪ {producer}``; the exact ILP
        passes its own optimal tree instead.

    Returns the :class:`ChunkPlacement`; ``state`` is mutated (storage
    update + per-dirty-node cost-cache patching).
    """
    trace = get_tracer()
    with get_recorder().timer("commit"), trace.span(
        "commit.chunk", track="commit"
    ) as span:
        placement = _commit_chunk(state, chunk, caches, assignment, tree_edges)
        if trace.enabled:
            # The cost-cache attribution (incremental patch vs full
            # rebuild) appears as costs.invalidate instants nested in
            # this span's time range — see CostModel.invalidate.
            span.add(
                chunk=chunk,
                caches=sorted(str(node) for node in placement.caches),
                copies=len(placement.caches),
                fairness=placement.stage_cost.fairness,
                access=placement.stage_cost.access,
                dissemination=placement.stage_cost.dissemination,
            )
        return placement


def _commit_chunk(
    state: ProblemState,
    chunk: int,
    caches: Iterable[Node],
    assignment: Optional[Dict[Node, Node]],
    tree_edges: Optional[frozenset],
) -> ChunkPlacement:
    obs = get_recorder()
    problem = state.problem
    cache_list = list(dict.fromkeys(caches))
    sanitize = contracts.sanitize_enabled()
    used_before = (
        {node: state.storage.used(node) for node in problem.graph.nodes()}
        if sanitize
        else None
    )
    for node in cache_list:
        if node not in problem.graph:
            raise ProblemError(f"cache node {node!r} is not in the graph")
        if not state.can_cache(node):
            raise ProblemError(
                f"node {node!r} cannot cache chunk {chunk} "
                "(full, battery-dead, or producer)"
            )

    # Stage fairness cost: f_i *before* this chunk lands (Eq. 1).
    fairness = sum(state.costs.fairness_cost(i) for i in cache_list)

    if assignment is None:
        with obs.timer("assignment"):
            assignment = nearest_server_assignment(
                state.costs, problem, cache_list
            )
    else:
        allowed = set(cache_list) | {problem.producer}
        for client, server in assignment.items():
            if server not in allowed:
                raise ProblemError(
                    f"client {client!r} assigned to {server!r}, which does "
                    f"not cache chunk {chunk}"
                )
        missing = set(problem.clients) - set(assignment)
        if missing:
            raise ProblemError(
                f"assignment misses clients {sorted(map(repr, missing))[:5]}"
            )

    if tree_edges is None:
        tree_edges = frozenset()
        if cache_list:
            with obs.timer("steiner"):
                weighted = state.costs.contention_weighted_graph()
                tree = steiner_tree(weighted, [problem.producer] + cache_list)
                tree_edges = frozenset(
                    edge_key(u, v) for u, v, _ in tree.edges()
                )
    # No cache, nothing disseminated, whatever tree was passed in.
    access, dissemination = price_chunk(
        state.costs, assignment, tree_edges if cache_list else ()
    )

    placement = ChunkPlacement(
        chunk=chunk,
        caches=frozenset(cache_list),
        assignment=dict(assignment),
        tree_edges=tree_edges,
        stage_cost=StageCost(
            fairness=fairness, access=access, dissemination=dissemination
        ),
    )
    for node in cache_list:
        state.cache(node, chunk)
    if sanitize and used_before is not None:
        contracts.check_storage_monotonic(
            chunk=chunk,
            used_before=used_before,
            used_after={
                node: state.storage.used(node)
                for node in problem.graph.nodes()
            },
            cached_nodes=cache_list,
        )
        contracts.check_chunk_commit(
            chunk=chunk,
            producer=problem.producer,
            clients=problem.clients,
            caches=cache_list,
            assignment=placement.assignment,
            tree_edges=placement.tree_edges,
            has_edge=problem.graph.has_edge,
            stage_costs={
                "fairness": placement.stage_cost.fairness,
                "access": placement.stage_cost.access,
                "dissemination": placement.stage_cost.dissemination,
            },
        )
    obs.count("commit.chunks")
    obs.count("commit.copies", len(cache_list))
    return placement
