"""Bounded local placement repair: cache/evict deltas that provably pay.

The cheap half of the adaptive control loop.  Where a re-solve runs a
full Algorithm-1 iteration, a *move* changes one ``(node, chunk)`` cell
of the placement — add a replica where demand appeared, drop one where
it vanished — and is accepted only when it **provably never worsens**
demand-weighted total cost:

    accept  ⇔  cost(before) − cost(after)  >  transfer + min_gain

where ``cost`` is the expected per-epoch access cost
(:func:`weighted_access_cost`: each observed ``(client, chunk)`` demand
weight times the cheapest Path Contention Cost among the chunk's
holders and the producer) and ``transfer`` is the one-time Eq. 2 cost of
shipping the new replica from its cheapest source.  Eviction can also
*reduce* access cost — Eq. 2 scales with occupancy ``S(k)``, so an
unused replica inflates every path through its host — which is why both
directions are evaluated, never assumed.

Candidate moves are applied tentatively against the live
:class:`~repro.core.problem.ProblemState` (the incremental
:class:`~repro.core.costs.CostModel` delta-patches its rows), re-priced
only over the pairs the touched node can affect
(:meth:`~repro.core.costs.CostModel.affected_targets` bounds the dirty
region), and reverted if the gain test fails.  Under ``REPRO_SANITIZE=1``
the controller cross-checks every *accepted* move against a fresh cost
model (:func:`repro.analysis.contracts.check_adaptive_move`), priced by
the scalar :func:`price_pair` loop of :func:`fresh_weighted_access_cost`.

Pricing reads the cost-row store in blocks: the pairs of one chunk price
as one ``cost_rows([producer] + holders, clients)`` slice reduced by a
column minimum (:func:`price_clients`).  Every ``c_ij`` is the same
float either way, and the minimum of equal floats is that float, so a
block price equals :func:`price_pair` bit for bit.

All candidate enumeration and float accumulation runs in sorted
``(chunk, str(client))`` order, one ``total += w * price`` at a time —
two runs produce bit-identical decisions and totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.commit import nearest_server_assignment, price_chunk
from repro.core.costs import CostModel
from repro.core.placement import ChunkPlacement, StageCost, edge_key
from repro.core.problem import ProblemState
from repro.errors import NodeNotFoundError, ProblemError
from repro.graphs.steiner import steiner_tree

Node = Hashable

#: Demand key: (client node, chunk id) — matches the signal layer.
PairKey = Tuple[Node, int]

MOVE_CACHE = "cache"
MOVE_EVICT = "evict"

#: Minimum strictly-positive gain a move must clear; filters float fuzz.
DEFAULT_MIN_GAIN = 1e-9


@dataclass(frozen=True)
class Move:
    """One accepted placement delta."""

    kind: str
    node: Node
    chunk: int
    gain: float
    transfer_cost: float


def price_pair(
    costs: CostModel, producer: Node, holders: Sequence[Node], client: Node
) -> float:
    """Cheapest access cost for ``client`` among ``holders ∪ {producer}``.

    A client that itself holds the chunk pays 0 (``c_ii = 0``).
    """
    best = costs.contention_cost(producer, client)
    for server in holders:
        cost = costs.contention_cost(server, client)
        if cost < best:
            best = cost
    return best


def price_clients(
    costs: CostModel,
    producer: Node,
    holders: Sequence[Node],
    clients: Sequence[Node],
) -> List[float]:
    """:func:`price_pair` for each of ``clients``, from one cost block.

    The column minimum of ``cost_rows([producer] + holders, clients)``.
    A block with an unknown node or an unreachable pair is priced again
    through :func:`price_pair`, which raises the error the scalar read
    names (:class:`~repro.errors.NodeNotFoundError` or
    :class:`~repro.errors.NoPathError`).
    """
    try:
        block = costs.cost_rows([producer, *holders], clients)
    except NodeNotFoundError:
        block = None
    if block is None or not np.isfinite(block).all():
        return [
            price_pair(costs, producer, holders, client) for client in clients
        ]
    return block.min(axis=0).tolist()


def _clients_by_chunk(
    weights: Mapping[PairKey, float]
) -> Dict[int, List[Node]]:
    """The positively weighted clients of each chunk, in ascending chunk
    order and each chunk's clients by ``str``: sorted
    ``(chunk, str(client))`` order, grouped."""
    groups: Dict[int, List[Node]] = {}
    for client, chunk in sorted(weights, key=lambda k: (k[1], str(k[0]))):
        if weights[(client, chunk)] <= 0.0:
            continue
        groups.setdefault(chunk, []).append(client)
    return groups


def weighted_access_cost(
    costs: CostModel,
    producer: Node,
    holders_by_chunk: Mapping[int, Sequence[Node]],
    weights: Mapping[PairKey, float],
) -> float:
    """Expected access cost: ``Σ w(client, chunk) · cheapest c_ij``.

    Each chunk's clients price from one cost block
    (:func:`price_clients`); the terms are summed one by one in sorted
    ``(chunk, str(client))`` order, so the float result is bit-stable
    for a given demand/placement pair.
    """
    total = 0.0
    for chunk, clients in _clients_by_chunk(weights).items():
        prices = price_clients(
            costs, producer, holders_by_chunk.get(chunk, ()), clients
        )
        for client, price in zip(clients, prices):
            total += weights[(client, chunk)] * price
    return total


def fresh_weighted_access_cost(
    state: ProblemState,
    holders_by_chunk: Mapping[int, Sequence[Node]],
    weights: Mapping[PairKey, float],
) -> float:
    """:func:`weighted_access_cost` from a *fresh* cost model.

    The sanitizer's reference value: rebuilt from the current storage
    with no incremental patches, priced pair by pair through
    :func:`price_pair` (not the block read it checks), summed in the
    same order.
    """
    fresh = CostModel(
        state.problem.graph, state.storage, state.problem.path_policy
    )
    total = 0.0
    for key in sorted(weights, key=lambda k: (k[1], str(k[0]))):
        weight = weights[key]
        if weight <= 0.0:
            continue
        client, chunk = key
        total += weight * price_pair(
            fresh, state.problem.producer, holders_by_chunk.get(chunk, ()),
            client,
        )
    return total


def replica_transfer_cost(
    state: ProblemState, holders: Sequence[Node], node: Node
) -> float:
    """One-time cost of shipping a new replica to ``node``.

    The cheapest Path Contention Cost from any current holder or the
    producer — priced *before* the move lands (the transfer happens on
    the pre-move network).
    """
    return price_pair(state.costs, state.problem.producer, holders, node)


def rebuild_chunk_placement(state: ProblemState, chunk: int) -> ChunkPlacement:
    """A :class:`ChunkPlacement` reflecting the live storage for ``chunk``.

    Used after moves/re-solves mutate holders outside the commit path:
    nearest-server assignment and the dissemination Steiner tree are
    rebuilt from the current state.  The stage ``fairness`` is recorded
    as 0 — fairness cost is a placement-*time* price (Eq. 1 before the
    chunk lands) and has no meaningful post-hoc value; ``access`` and
    ``dissemination`` are priced on the current costs.
    """
    problem = state.problem
    holders = sorted(state.storage.holders(chunk), key=str)
    # Both calls go through this module's globals, so a wrapper set on
    # ``moves.nearest_server_assignment`` or ``moves.steiner_tree`` sees
    # them.
    assignment = nearest_server_assignment(state.costs, problem, holders)
    tree_edges: frozenset = frozenset()
    if holders:
        weighted = state.costs.contention_weighted_graph()
        tree = steiner_tree(weighted, [problem.producer] + holders)
        tree_edges = frozenset(edge_key(u, v) for u, v, _ in tree.edges())
    access, dissemination = price_chunk(state.costs, assignment, tree_edges)
    return ChunkPlacement(
        chunk=chunk,
        caches=frozenset(holders),
        assignment=assignment,
        tree_edges=tree_edges,
        stage_cost=StageCost(
            fairness=0.0, access=access, dissemination=dissemination
        ),
    )


class MoveEvaluator:
    """Prices a placement against demand weights and trials moves on it.

    Owns the canonical per-chunk holder lists (sorted by ``str``) and an
    incrementally-maintained price per weighted ``(client, chunk)``
    pair.  :meth:`try_move` tentatively applies a move to the live
    ``state`` — mutating storage and letting the incremental cost model
    patch itself — re-prices only the affected pairs, and either keeps
    the move or reverts it.  The caller reads accepted holder lists
    back from :attr:`holders`.
    """

    def __init__(
        self,
        state: ProblemState,
        holders_by_chunk: Mapping[int, Sequence[Node]],
        weights: Mapping[PairKey, float],
        min_gain: float = DEFAULT_MIN_GAIN,
    ) -> None:
        if min_gain < 0:
            raise ProblemError(f"min_gain must be >= 0, got {min_gain}")
        self.state = state
        self.producer = state.problem.producer
        self.min_gain = min_gain
        self.holders: Dict[int, List[Node]] = {
            chunk: sorted(holders_by_chunk[chunk], key=str)
            for chunk in sorted(holders_by_chunk)
        }
        self.weights: Dict[PairKey, float] = {
            key: float(value)
            for key, value in weights.items()
            if value > 0.0
        }
        self._clients_by_chunk = _clients_by_chunk(self.weights)
        # (server, via) → affected targets; under "hops" this is pure
        # topology, so it is safe to memoize across moves.
        self._affected_memo: Dict[Tuple[Node, Node], frozenset] = {}
        self._prices: Dict[PairKey, float] = {}
        self.total = 0.0
        for chunk, clients in self._clients_by_chunk.items():
            holders = self.holders.get(chunk, ())
            prices = price_clients(state.costs, self.producer, holders, clients)
            for client, price in zip(clients, prices):
                self._prices[(client, chunk)] = price
                self.total += self.weights[(client, chunk)] * price

    # ------------------------------------------------------------------
    def _affected(self, server: Node, via: Node) -> frozenset:
        key = (server, via)
        hit = self._affected_memo.get(key)
        if hit is None:
            hit = self.state.costs.affected_targets(server, via)
            self._affected_memo[key] = hit
        return hit

    def _affected_pairs(
        self, node: Node, chunk: int
    ) -> List[Tuple[int, List[Node]]]:
        """Weighted pairs whose price a move at ``(node, chunk)`` can touch,
        as ``(chunk, clients)`` groups in ascending chunk order.

        The moved chunk re-prices for every weighted client (its server
        set changed).  Any other chunk re-prices only for clients whose
        path from some current server passes through ``node`` — the
        dirty region :meth:`CostModel.affected_targets` bounds.
        """
        groups: List[Tuple[int, List[Node]]] = []
        for other, clients in self._clients_by_chunk.items():
            if other != chunk:
                touched: set = set()
                for server in [self.producer] + self.holders.get(other, []):
                    touched |= self._affected(server, node)
                clients = [client for client in clients if client in touched]
            if clients:
                groups.append((other, clients))
        return groups

    def try_move(
        self, kind: str, node: Node, chunk: int, transfer_cost: float
    ) -> Optional[Move]:
        """Trial one move; keep it only if it clears the gain test.

        Returns the accepted :class:`Move` (state and holder lists
        updated), or ``None`` — in which case the tentative mutation has
        been fully reverted and the tracked prices are untouched.
        """
        state = self.state
        holders = self.holders.get(chunk, [])
        if kind == MOVE_CACHE:
            if (
                node in holders
                or node == self.producer
                or not state.can_cache(node)
            ):
                return None
        elif kind == MOVE_EVICT:
            if node not in holders:
                return None
        else:
            raise ProblemError(f"unknown move kind {kind!r}")

        affected = self._affected_pairs(node, chunk)
        # Tentative apply: storage mutates, the incremental cost model
        # patches its rows for the single dirty node.
        if kind == MOVE_CACHE:
            state.cache(node, chunk)
            self.holders[chunk] = sorted(holders + [node], key=str)
        else:
            state.evict(node, chunk)
            self.holders[chunk] = [h for h in holders if h != node]

        delta = 0.0
        new_prices: List[Tuple[PairKey, float]] = []
        for pair_chunk, clients in affected:
            prices = price_clients(
                state.costs,
                self.producer,
                self.holders.get(pair_chunk, ()),
                clients,
            )
            for client, price in zip(clients, prices):
                pair = (client, pair_chunk)
                new_prices.append((pair, price))
                delta += self.weights[pair] * (price - self._prices[pair])

        gain = -delta - transfer_cost
        if gain > self.min_gain:
            for pair, price in new_prices:
                self._prices[pair] = price
            self.total += delta
            return Move(
                kind=kind,
                node=node,
                chunk=chunk,
                gain=gain,
                transfer_cost=transfer_cost,
            )

        # Revert: undo the storage mutation (the cost model re-patches
        # back) and restore the holder list.
        if kind == MOVE_CACHE:
            state.evict(node, chunk)
        else:
            state.cache(node, chunk)
        self.holders[chunk] = holders
        return None
