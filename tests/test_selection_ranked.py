"""Ranked least-loaded selection against the literal full scan.

:class:`repro.serve.selection.LeastLoaded` walks a per-``(client,
chunk)`` cost rank and stops at the first idle replica.
:class:`ReferenceLeastLoaded` below is the plain scan it replaced: the
minimum ``(queue_depth, cost)`` key over every candidate, earlier
candidates winning ties.  Hypothesis drives both through the same calls
— cost ties, idle/mixed/saturated queues, failover subsets, candidate
lists that are not subsets, depths changing between calls, rebinds to a
new view — and asserts they pick the same server every time.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.selection import LeastLoaded, ReplicaSelector, ServeView

Node = Hashable


class ReferenceLeastLoaded(ReplicaSelector):
    """The full ``(queue_depth, cost)`` scan, every candidate every call."""

    name = "least-loaded-reference"

    def choose(self, client: Node, chunk: int, candidates: Sequence[Node]) -> Node:
        view = self._view
        best = candidates[0]
        best_key = (view.queue_depth(best), view.cost(best, client))
        for server in candidates[1:]:
            key = (view.queue_depth(server), view.cost(server, client))
            if key < best_key:
                best = server
                best_key = key
        return best


class FakeView(ServeView):
    """Fixed costs, mutable depths, and call counts for both probes."""

    def __init__(self, costs: Dict[Tuple[Node, Node], float]) -> None:
        self.rng = random.Random(0)
        self.costs = costs
        self.depths: Dict[Node, int] = {}
        self.cost_calls = 0
        self.depth_calls = 0

    def cost(self, server: Node, client: Node) -> float:
        self.cost_calls += 1
        return self.costs[server, client]

    def queue_depth(self, server: Node) -> int:
        self.depth_calls += 1
        return self.depths.get(server, 0)


SERVERS = list(range(8))
CLIENTS = ["a", "b", 3]  # a client may also be a server
CHUNKS = (0, 1)

#: Few distinct values, so equal costs are common.
TIED_COSTS = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.0, 3.5])

DEPTHS = {
    "mostly-idle": st.sampled_from([0, 0, 0, 0, 1]),
    "some-busy": st.integers(min_value=0, max_value=3),
    "all-busy": st.integers(min_value=1, max_value=3),
}


def _costs(data) -> Dict[Tuple[Node, Node], float]:
    return {
        (server, client): data.draw(TIED_COSTS)
        for server in SERVERS
        for client in CLIENTS
    }


def _subset(data, full: List[Node]) -> List[Node]:
    """An order-preserving failover subset: some servers dropped."""
    keep = data.draw(st.lists(st.booleans(), min_size=len(full),
                              max_size=len(full)))
    subset = [server for server, kept in zip(full, keep) if kept]
    return subset or full[-1:]


def _not_subset(data, full: List[Node]) -> List[Node]:
    """A candidate list the rank cannot serve: reordered or foreign."""
    outsiders = [server for server in SERVERS if server not in full]
    if len(full) > 1 and (not outsiders or data.draw(st.booleans())):
        shuffled = data.draw(st.permutations(full))
        if shuffled != full:
            return shuffled
    if not outsiders:
        return full
    extra = data.draw(st.sampled_from(outsiders))
    spot = data.draw(st.integers(min_value=0, max_value=len(full)))
    return full[:spot] + [extra] + full[spot:]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_ranked_walk_matches_full_scan(data):
    candidates = {
        chunk: data.draw(
            st.permutations(SERVERS).map(list).flatmap(
                lambda order: st.integers(1, len(order)).map(
                    lambda size: order[:size]
                )
            )
        )
        for chunk in CHUNKS
    }
    ranked, reference = LeastLoaded(), ReferenceLeastLoaded()
    view = FakeView(_costs(data))
    ranked.bind(view)
    reference.bind(view)
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        step = data.draw(st.sampled_from(
            ["full", "full", "subset", "subset", "not-subset", "rebind"]
        ))
        if step == "rebind":
            view = FakeView(_costs(data))
            ranked.bind(view)
            reference.bind(view)
            continue
        mode = data.draw(st.sampled_from(sorted(DEPTHS)))
        view.depths = {server: data.draw(DEPTHS[mode]) for server in SERVERS}
        client = data.draw(st.sampled_from(CLIENTS))
        chunk = data.draw(st.sampled_from(CHUNKS))
        full = candidates[chunk]
        offered = {
            "full": lambda: list(full),
            "subset": lambda: _subset(data, full),
            "not-subset": lambda: _not_subset(data, full),
        }[step]()
        assert ranked.choose(client, chunk, offered) == reference.choose(
            client, chunk, offered
        )


def test_failover_sequence_matches_full_scan():
    """The engine's loop: choose, drop the dead pick, choose again."""
    costs = {(server, "c"): float(server % 3) for server in SERVERS}
    dead = {0, 3, 6}
    for ranked_first in (True, False):
        sequences = []
        for selector in (LeastLoaded(), ReferenceLeastLoaded()):
            view = FakeView(costs)
            view.depths = {1: 2, 4: 1, 7: 1}
            selector.bind(view)
            remaining = list(SERVERS) if ranked_first else SERVERS[::-1]
            picks = []
            while True:
                server = selector.choose("c", 0, remaining)
                picks.append(server)
                if server not in dead:
                    break
                remaining.remove(server)
            sequences.append(picks)
        assert sequences[0] == sequences[1]


def test_rank_is_built_once_per_bind():
    costs = {(server, "c"): float(-server) for server in SERVERS}
    view = FakeView(costs)
    selector = LeastLoaded()
    selector.bind(view)
    assert selector.choose("c", 0, SERVERS) == SERVERS[-1]
    built = view.cost_calls
    assert built == len(SERVERS)
    for _ in range(5):
        selector.choose("c", 0, SERVERS)
    assert view.cost_calls == built
    # An idle cheapest replica ends the walk after one depth probe.
    view.depth_calls = 0
    selector.choose("c", 0, SERVERS)
    assert view.depth_calls == 1
    # A rebind drops the rank: the new view's costs decide.
    flipped = FakeView({(server, "c"): float(server) for server in SERVERS})
    selector.bind(flipped)
    assert selector.choose("c", 0, SERVERS) == SERVERS[0]
