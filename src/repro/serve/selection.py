"""Pluggable replica-selection policies for the serving engine.

When a request for chunk ``n`` arrives, the engine offers the policy an
ordered candidate list — the chunk's cache nodes (deterministic order)
with the producer appended last, so every policy inherits the
producer-fallback guarantee: the candidate list is never empty and the
producer is never dead.

Policies see the network only through a :class:`ServeView`:

* ``cost(server, client)`` — the paper's Eq. 2 contention cost ``c_ij``
  served by the placement's :class:`~repro.core.costs.CostModel`;
* ``queue_depth(server)`` — requests currently queued or in service at
  ``server``;
* ``rng`` — the engine's seeded RNG (randomized policies must draw from
  it, and only from it, to keep replays bit-identical).

Three policies, bracketing the classic latency/load trade-off:

* :class:`CheapestCost` — the paper's accessing-phase semantics: fetch
  from the replica with the minimum Eq. 2 cost (ties → earlier
  candidate, producer last).
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
from typing import Dict, Hashable, List, Sequence, Tuple, Type

Node = Hashable


class ServeView:
    """What a policy may observe; implemented by the engine."""

    rng: random.Random

    def cost(self, server: Node, client: Node) -> float:
        """Eq. 2 contention cost ``c_ij`` of serving ``client`` from
        ``server`` on the final storage state."""
        raise NotImplementedError

    def queue_depth(self, server: Node) -> int:
        """Requests queued or in service at ``server`` right now."""
        raise NotImplementedError


class ReplicaSelector:
    """Base replica-selection policy.

    :meth:`bind` is called once per replay with the engine's view;
    :meth:`choose` once per request attempt with the still-alive
    candidates (never empty — the producer is always last).

    ``load_independent`` declares that :meth:`choose` is a pure function
    of ``(client, chunk, candidates)`` — it reads neither queue depths
    nor the RNG.  The batched engine exploits this to resolve each
    ``(client, chunk)`` pair to its ``(server, failover count)`` exactly
    once per replay instead of once per request; load-dependent policies
    keep the per-request call (see ``docs/SCALING.md``).
    """

    name = "base"

    #: True only when choose() ignores queue depths and the RNG.
    load_independent = False

    def bind(self, view: ServeView) -> None:
        self._view = view

    def choose(self, client: Node, chunk: int, candidates: Sequence[Node]) -> Node:
        raise NotImplementedError


class CheapestCost(ReplicaSelector):
    """Paper semantics: the replica with the minimum Eq. 2 cost wins.

    A client that caches the chunk itself serves itself (``c_ii = 0``);
    the producer, listed last, wins only when strictly cheaper than
    every cache — exactly :func:`repro.core.placement.assignment_from_nearest`.
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
    """

    name = "least-loaded"

    def bind(self, view: ServeView) -> None:
        super().bind(view)
        # (client, chunk) → (candidates as first seen, cost rank).
        self._ranks: Dict[Tuple[Node, int], Tuple[List[Node], List[Node]]] = {}

    def choose(self, client: Node, chunk: int, candidates: Sequence[Node]) -> Node:
        entry = self._ranks.get((client, chunk))
        if entry is None:
            entry = (list(candidates), self._rank(client, candidates))
            self._ranks[(client, chunk)] = entry
        seen, ranked = entry
        members = None
        if candidates != seen:
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
