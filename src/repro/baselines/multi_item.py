"""The paper's multi-item extension of the static baselines (Sec. V-B).

Hopc [13] and Cont [4] select one node set from topology alone and are
"not designed for multiple data items".  For a fair comparison the paper
extends them exactly like this:

    "If a set of nodes is chosen, we will put all data chunks in these
    nodes until none of them has vacancy for caching.  Then we construct a
    new subgraph consisting of other nodes ... and perform the same
    operations on these nodes ... This process is repeated, until all
    chunks are cached, or if a subgraph becomes disconnected, we will
    perform the operations on the largest connected component."

So chunks are consumed in batches: round ``r`` selects set ``A_r`` on the
current subgraph, then every node of ``A_r`` caches the next chunks until
its storage is exhausted; the nodes of ``A_r`` are removed and the process
recurses.  Access/dissemination costs are always accounted on the
*original* graph ("we calculated the contention by putting all the chunks
to the original connected graph"), via the shared
:func:`repro.core.commit.commit_chunk`.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence

from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.traversal import hop_distances
from repro.core.commit import commit_chunk
from repro.core.placement import CachePlacement, ChunkPlacement
from repro.core.problem import CachingProblem
from repro.baselines.selection import (
    CONT_REL_THRESHOLD,
    HOPC_REL_THRESHOLD,
    contention_cost_rows,
    greedy_select,
    hop_cost_rows,
)

Node = Hashable

SelectorFn = Callable[[Graph, Node, Sequence[Node], Sequence[Node]], List[Node]]


def _selector(metric: str, lam: float, rel_threshold: Optional[float]) -> SelectorFn:
    if rel_threshold is None:
        rel_threshold = (
            HOPC_REL_THRESHOLD if metric == "hops" else CONT_REL_THRESHOLD
        )

    def select(
        graph: Graph, producer: Node, clients: Sequence[Node], candidates: Sequence[Node]
    ) -> List[Node]:
        sources = list(dict.fromkeys([producer] + list(candidates)))
        if metric == "hops":
            rows = hop_cost_rows(graph, sources)
        else:
            rows = contention_cost_rows(graph, sources, producer)
        return greedy_select(
            graph, producer, clients, candidates, rows,
            lam=lam, rel_threshold=rel_threshold,
        )

    return select


def solve_static_baseline(
    problem: CachingProblem,
    metric: str,
    lam: float = 1.0,
    rel_threshold: Optional[float] = None,
) -> CachePlacement:
    """Run a static baseline (``metric`` = ``"hops"`` or ``"contention"``)
    with the multi-item subgraph-recursion extension.

    Returns a :class:`CachePlacement` with the same accounting as every
    other algorithm in this library.
    """
    if metric not in ("hops", "contention"):
        raise ValueError(f"unknown baseline metric {metric!r}")
    select = _selector(metric, lam, rel_threshold)
    graph = problem.graph
    producer = problem.producer
    state = problem.new_state()

    placements: List[ChunkPlacement] = []
    used_up: List[Node] = []  # nodes whose storage the recursion consumed
    pending = list(problem.chunks)
    next_index = 0

    current_set: List[Node] = []
    while next_index < problem.num_chunks:
        if not current_set:
            current_set = _select_on_remaining(problem, select, used_up)
            if not current_set:
                # No cacheable nodes anywhere: remaining chunks are served
                # directly by the producer.
                for chunk in pending[next_index:]:
                    placements.append(commit_chunk(state, chunk, []))
                next_index = problem.num_chunks
                break
        # The current set caches chunks until none of its members has
        # vacancy, then the recursion moves on.
        batch = min(
            min(state.cache_budget(node) for node in current_set),
            problem.num_chunks - next_index,
        )
        if batch <= 0:  # pragma: no cover - defensive; selection skips full nodes
            used_up.extend(current_set)
            current_set = []
            continue
        for _ in range(batch):
            chunk = pending[next_index]
            next_index += 1
            placements.append(commit_chunk(state, chunk, list(current_set)))
        if all(state.cache_budget(node) == 0 for node in current_set):
            used_up.extend(current_set)
            current_set = []

    return CachePlacement(
        problem=problem,
        chunks=placements,
        algorithm=f"static-{metric}",
    )


def _select_on_remaining(
    problem: CachingProblem, select: SelectorFn, used_up: Sequence[Node]
) -> List[Node]:
    """Select the next cache set on the subgraph of unconsumed nodes.

    Follows Sec. V-B: drop exhausted nodes, keep the largest connected
    component, and re-run the selection there.  The producer (or, if it
    fell outside the component, the component node nearest to the
    producer on the original graph) anchors the wiring costs.
    """
    graph = problem.graph
    consumed = set(used_up)
    remaining = [n for n in graph.nodes() if n not in consumed]
    candidates = [n for n in remaining if n != problem.producer]
    if not candidates:
        return []
    sub_nodes = set(remaining)
    subgraph = graph.subgraph(sub_nodes)
    components = connected_components(subgraph)
    component = components[0]
    if problem.producer in sub_nodes and problem.producer not in component:
        # Prefer the component that still contains the producer when it is
        # at least as useful; otherwise anchor on the largest component.
        for comp in components:
            if problem.producer in comp:
                if len(comp) >= len(component) // 2:
                    component = comp
                break
    subgraph = graph.subgraph(component)
    if problem.producer in component:
        anchor = problem.producer
    else:
        # Anchor = component node closest to the producer on the full graph.
        hops = hop_distances(graph, problem.producer)
        anchor = min(component, key=lambda n: (hops.get(n, float("inf")),
                                               str(n)))
    clients = [n for n in component if n != anchor]
    candidates = [n for n in clients]
    if not clients:
        return [anchor] if anchor != problem.producer else []
    selected = select(subgraph, anchor, clients, candidates)
    if not selected:
        # Degenerate component (e.g. a single client): cache at the
        # cheapest candidate so the recursion always progresses.
        selected = [candidates[0]]
    return selected
