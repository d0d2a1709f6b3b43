"""Pluggable replica-selection policies for the serving engine.

When a request for chunk ``n`` arrives, the engine offers the policy an
ordered candidate list — the chunk's cache nodes (deterministic order)
with the producer appended last, so every policy inherits the
producer-fallback guarantee: the candidate list is never empty and the
producer is never dead.

Policies see the network only through a :class:`ServeView`:

* ``cost(server, client)`` — the paper's Eq. 2 contention cost ``c_ij``
  served by the placement's :class:`~repro.core.costs.CostModel`, and
  ``cost_rows(servers, clients)`` the same costs as one block;
* ``queue_depth(server)`` — requests currently queued or in service at
  ``server``;
* ``clients`` — every node that may issue a request;
* ``rng`` — the engine's seeded RNG (randomized policies must draw from
  it, and only from it, to keep replays bit-identical).

A request that lands on a dead replica fails over: the engine removes
the dead choice and asks again, until a live server is chosen.
:meth:`ReplicaSelector.pick` is that loop — ``(server, attempts)`` for
one arrival, ``attempts`` counting the dead servers tried first — and
the one place the engine runs it.  A policy may answer it without the
loop, as long as the answer is the loop's: :class:`LeastLoaded` ranks
each chunk's candidates once per replay and settles the failover in
closed form, with one :meth:`~ReplicaSelector.choose` per arrival.

Three policies, bracketing the classic latency/load trade-off:

* :class:`CheapestCost` — the paper's accessing-phase semantics: fetch
  from the replica with the minimum Eq. 2 cost (ties → earlier
  candidate, so a cache beats the producer listed last).
* :class:`LeastLoaded` — ignore path cost, go to the emptiest queue
  (ties → cheaper, then earlier).
* :class:`PowerOfTwoChoices` — sample two distinct candidates, keep the
  less loaded (Mitzenmacher's "power of two choices"; near-LeastLoaded
  balance at O(1) state probes).

The :data:`SELECTION_POLICIES` registry maps CLI names to classes;
``repro list`` enumerates it.
"""

from __future__ import annotations

import random
from typing import (
    AbstractSet, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple,
    Type,
)

import numpy as np

from repro.errors import NodeNotFoundError

Node = Hashable

#: A ranked client's failover data for one chunk: the live candidates,
#: how many dead candidates are ranked ahead of each, and the dead total.
LivePick = Tuple[List[Node], Dict[Node, int], int]


class ServeView:
    """What a policy may observe; implemented by the engine."""

    rng: random.Random

    #: Every node that may issue a request (the problem's clients).
    clients: Sequence[Node]

    def cost(self, server: Node, client: Node) -> float:
        """Eq. 2 contention cost ``c_ij`` of serving ``client`` from
        ``server`` on the final storage state."""
        raise NotImplementedError

    def cost_rows(
        self, servers: Sequence[Node], clients: Sequence[Node]
    ) -> np.ndarray:
        """``cost(server, client)`` for every server × client pair, as
        one float64 array (``inf`` where a client is unreachable)."""
        raise NotImplementedError

    def queue_depth(self, server: Node) -> int:
        """Requests queued or in service at ``server`` right now."""
        raise NotImplementedError


class ReplicaSelector:
    """Base replica-selection policy.

    :meth:`bind` is called once per replay with the engine's view;
    :meth:`pick` once per arrival, and the base :meth:`pick` calls
    :meth:`choose` once per attempt with the candidates not yet found
    dead (never empty — the producer is always last, and never dead).

    ``load_independent`` declares that :meth:`choose` is a pure function
    of ``(client, chunk, candidates)`` — it reads neither queue depths
    nor the RNG.  The batched engine exploits this to resolve each
    ``(client, chunk)`` pair to its ``(server, failover count)`` exactly
    once per replay instead of once per request, in bulk through
    :meth:`resolve` where the policy offers it; load-dependent policies
    keep the per-request call (see ``docs/SCALING.md``).
    """

    name = "base"

    #: True only when choose() ignores queue depths and the RNG.
    load_independent = False

    def bind(self, view: ServeView) -> None:
        self._view = view

    def choose(self, client: Node, chunk: int, candidates: Sequence[Node]) -> Node:
        raise NotImplementedError

    def pick(
        self,
        client: Node,
        chunk: int,
        candidates: Sequence[Node],
        dead: AbstractSet[Node],
    ) -> Tuple[Node, int]:
        """One arrival's ``(server, attempts)``, failover included.

        Calls :meth:`choose`; while the choice is in ``dead``, removes it
        and chooses again.  ``server`` is the first live choice and
        ``attempts`` the number of dead ones before it.  ``candidates``
        is not modified.  Within one binding, every call for a chunk
        passes the same ``candidates`` and ``dead``, and a dead server's
        queue depth is always 0 — no request is ever queued there; a
        policy's own :meth:`pick` may rely on both.
        """
        remaining = candidates
        attempts = 0
        while True:
            server = self.choose(client, chunk, remaining)
            if server not in dead:
                return server, attempts
            if not attempts:
                remaining = list(candidates)
            attempts += 1
            remaining.remove(server)

    def resolve(
        self,
        clients: Sequence[Node],
        candidates: Sequence[Node],
        dead: AbstractSet[Node],
    ) -> Mapping[Node, Tuple[Node, int]]:
        """The failover loop's outcome for many clients of one chunk.

        Maps a client to ``(server, failovers)``: what :meth:`pick`
        returns for it.  A load-independent policy may offer it; the
        engine calls :meth:`pick` for every client left out.  This
        default resolves none.
        """
        return {}


class CheapestCost(ReplicaSelector):
    """Paper semantics: the replica with the minimum Eq. 2 cost wins.

    A client that caches the chunk itself serves itself (``c_ii = 0``).
    Ties go to the earlier candidate, so the producer, listed last, wins
    only when strictly cheaper than every cache.  Commit's
    :func:`~repro.core.commit.nearest_server_assignment` lists the
    producer first and so gives it the ties: the two rules pick
    different servers for a client equidistant from a cache and the
    producer.
    """

    name = "cheapest"

    # Costs are frozen for a whole replay (final storage state), so the
    # choice per (client, chunk) never changes.
    load_independent = True

    def choose(self, client: Node, chunk: int, candidates: Sequence[Node]) -> Node:
        view = self._view
        best = candidates[0]
        best_cost = view.cost(best, client)
        for server in candidates[1:]:
            cost = view.cost(server, client)
            if cost < best_cost:
                best = server
                best_cost = cost
        return best

    def resolve(
        self,
        clients: Sequence[Node],
        candidates: Sequence[Node],
        dead: AbstractSet[Node],
    ) -> Mapping[Node, Tuple[Node, int]]:
        """:meth:`choose` with failover, from one candidate × client block.

        The loop's choices for a client are its candidates in cost order,
        ties in candidate order: a stable argsort of the client's column.
        It tries them until the first live one, so the failover count is
        the number of dead candidates ranked ahead of it.  The loop
        raises where a cost read fails, so it is left to resolve, per
        request: a client with an unreachable candidate, and every
        client when a node is unknown or every candidate is dead.
        """
        ranking = _rank_block(self._view, candidates, clients, dead)
        if ranking is None:
            return {}
        live, ranked, reachable = ranking
        tried = live[ranked].argmax(axis=0)
        winners = ranked[tried, np.arange(len(clients))]
        return {
            client: (candidates[winner], failovers)
            for client, winner, failovers, ok in zip(
                clients, winners.tolist(), tried.tolist(), reachable.tolist()
            )
            if ok
        }


class LeastLoaded(ReplicaSelector):
    """Go wherever the queue is shortest; ties break toward the cheaper
    path, then the earlier candidate.

    The choice is the minimum of ``(queue_depth, cost)`` over the
    candidates, found by a ranked walk instead of a full scan.  The
    first call for a ``(client, chunk)`` after :meth:`bind` stable-sorts
    the candidates by cost (ties keep candidate order) and caches that
    rank; costs are frozen for a replay, so the rank stays valid until
    the next :meth:`bind`.  Each call walks the rank: the first idle
    replica is the answer (no key beats ``(0, lowest idle cost)``), and
    when none is idle the first replica of minimum depth is.  A failover
    passes the candidates minus the dead server tried; the walk skips
    servers missing from ``candidates``, and ties still resolve as in
    ``candidates`` because that list keeps the ranked list's order.  A
    candidate list that is not an order-preserving subset of the ranked
    one is ranked afresh for that call.

    :meth:`pick` settles the failover loop without looping.  A dead
    server's depth is always 0, so the loop removes dead choices in
    ``(depth, rank)`` order and lands on the live candidate of least
    ``(depth, rank)`` — :meth:`choose` over the live candidates alone.
    Its attempts are the dead candidates with a smaller key: those
    ranked ahead of it when it is idle, every dead one when it is not.
    """

    name = "least-loaded"

    def bind(self, view: ServeView) -> None:
        super().bind(view)
        # (client, chunk) → (candidates as first seen, cost rank).
        self._ranks: Dict[Tuple[Node, int], Tuple[List[Node], List[Node]]] = {}
        # chunk → client → LivePick, filled on the chunk's first pick().
        self._picks: Dict[int, Dict[Node, LivePick]] = {}

    def choose(self, client: Node, chunk: int, candidates: Sequence[Node]) -> Node:
        entry = self._ranks.get((client, chunk))
        if entry is None:
            entry = (list(candidates), self._rank(client, candidates))
            self._ranks[(client, chunk)] = entry
        seen, ranked = entry
        members = None
        if candidates is not seen and candidates != seen:
            remaining = iter(seen)
            if all(server in remaining for server in candidates):
                members = set(candidates)
            else:
                ranked = self._rank(client, candidates)
        queue_depth = self._view.queue_depth
        best = None
        best_depth = 0
        for server in ranked:
            if members is not None and server not in members:
                continue
            depth = queue_depth(server)
            if not depth:
                return server
            if best is None or depth < best_depth:
                best = server
                best_depth = depth
        return best

    def pick(
        self,
        client: Node,
        chunk: int,
        candidates: Sequence[Node],
        dead: AbstractSet[Node],
    ) -> Tuple[Node, int]:
        """The failover loop's ``(server, attempts)``, one :meth:`choose`.

        A chunk's first call ranks every client of the view at once
        (:meth:`_rank_chunk`); a client it leaves out — unknown, or with
        an unreachable candidate — runs the base loop, which raises as
        :meth:`choose` does.
        """
        ranked = self._picks.get(chunk)
        if ranked is None:
            ranked = self._picks[chunk] = self._rank_chunk(
                chunk, candidates, dead
            )
        entry = ranked.get(client)
        if entry is None:
            return super().pick(client, chunk, candidates, dead)
        live, ahead, dead_count = entry
        server = self.choose(client, chunk, live)
        attempts = ahead[server]
        if attempts != dead_count and self._view.queue_depth(server):
            attempts = dead_count
        return server, attempts

    def _rank_chunk(
        self, chunk: int, candidates: Sequence[Node], dead: AbstractSet[Node]
    ) -> Dict[Node, LivePick]:
        """Every client's :data:`LivePick` for ``chunk``, from one block.

        The cost rank comes from :func:`_rank_block`; :meth:`choose`
        gets each client's live candidates in that rank.  A client with
        an unreachable candidate is left out, and so is every client
        when a node is unknown or every candidate is dead.
        """
        picks: Dict[Node, LivePick] = {}
        clients = self._view.clients
        ranking = _rank_block(self._view, candidates, clients, dead)
        if ranking is None:
            return picks
        live, ranked, reachable = ranking
        # Row = client, column = rank: candidate indices, cheapest first.
        ranked = ranked.T
        dead_ranked = ~live[ranked]
        before = np.cumsum(dead_ranked, axis=1) - dead_ranked
        ahead = np.empty_like(before)  # by candidate index, not rank
        np.put_along_axis(ahead, ranked, before, axis=1)
        seen = [server for server in candidates if server not in dead]
        live_ranked = ranked[~dead_ranked].reshape(len(clients), len(seen))
        dead_count = len(candidates) - len(seen)
        for client, order, counts, ok in zip(
            clients, live_ranked.tolist(), ahead[:, live].tolist(),
            reachable.tolist(),
        ):
            if ok:
                self._ranks[(client, chunk)] = (
                    seen, [candidates[i] for i in order]
                )
                picks[client] = (seen, dict(zip(seen, counts)), dead_count)
        return picks

    def _rank(self, client: Node, candidates: Sequence[Node]) -> List[Node]:
        """``candidates`` by cost to ``client``; the sort is stable."""
        cost = self._view.cost
        return sorted(candidates, key=lambda server: cost(server, client))


class PowerOfTwoChoices(ReplicaSelector):
    """Sample two distinct candidates with the engine RNG, keep the less
    loaded (ties → cheaper, then the earlier sample)."""

    name = "p2c"

    def choose(self, client: Node, chunk: int, candidates: Sequence[Node]) -> Node:
        view = self._view
        if len(candidates) == 1:
            return candidates[0]
        first, second = view.rng.sample(range(len(candidates)), 2)
        a, b = candidates[first], candidates[second]
        key_a = (view.queue_depth(a), view.cost(a, client))
        key_b = (view.queue_depth(b), view.cost(b, client))
        return b if key_b < key_a else a


def _rank_block(
    view: ServeView,
    candidates: Sequence[Node],
    clients: Sequence[Node],
    dead: AbstractSet[Node],
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rank ``candidates`` for every client from one cost block.

    Returns ``(live, ranked, reachable)``: which candidates are not in
    ``dead``; each client's column of candidate indices in cost order,
    ties in candidate order (row = rank); and which clients reach every
    candidate.  None when every candidate is dead or a node is unknown.
    """
    live = np.array([server not in dead for server in candidates])
    if not live.any():
        return None
    try:
        block = view.cost_rows(candidates, clients)
    except NodeNotFoundError:
        return None
    ranked = np.argsort(block, axis=0, kind="stable")
    return live, ranked, np.isfinite(block).all(axis=0)


#: CLI name → policy class (``repro serve --policy`` / ``repro list``).
SELECTION_POLICIES: Dict[str, Type[ReplicaSelector]] = {
    CheapestCost.name: CheapestCost,
    LeastLoaded.name: LeastLoaded,
    PowerOfTwoChoices.name: PowerOfTwoChoices,
}


def make_selector(policy: "str | ReplicaSelector") -> ReplicaSelector:
    """Resolve a policy name (or pass through an instance)."""
    if isinstance(policy, ReplicaSelector):
        return policy
    cls = SELECTION_POLICIES.get(policy)
    if cls is None:
        raise KeyError(
            f"unknown selection policy {policy!r}; "
            f"choose from {sorted(SELECTION_POLICIES)}"
        )
    return cls()
