"""``LeastLoaded.pick`` against the choose/remove failover loop.

:meth:`repro.serve.selection.LeastLoaded.pick` ranks a chunk's
candidates once per binding, from one cost block, and answers each
arrival with a single ``choose`` over the live candidates plus a closed
form for the failover count.  Here it is compared with the loop it
replaces, written out literally below: call the full-scan
:class:`~tests.test_selection_ranked.ReferenceLeastLoaded`, drop the
dead pick, call again.  Hypothesis drives both through cost ties, idle,
mixed and saturated queues, no, some and every cache dead, depths
changing between arrivals, rebinds to a new view, and clients that are
unknown or cannot reach a candidate — which must raise the same
exception with the same message as the loop.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError, NoPathError
from repro.serve.selection import (
    LeastLoaded,
    PowerOfTwoChoices,
    ReplicaSelector,
    ServeView,
)
from tests.test_selection_ranked import ReferenceLeastLoaded

Node = Hashable

SERVERS = list(range(8))
KNOWN_CLIENTS = ["a", "b", 3]  # a client may also be a server
UNKNOWN = "ghost"
CHUNKS = (0, 1)

#: Few distinct values, so equal costs are common; ``inf`` is an
#: unreachable pair.
COSTS = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.0, 3.5])
UNREACHABLE = st.sampled_from([0.0, 1.0, 2.0, math.inf])

DEPTHS = {
    "idle": st.just(0),
    "mixed": st.integers(min_value=0, max_value=3),
    "saturated": st.integers(min_value=1, max_value=3),
}


class BlockView(ServeView):
    """Fixed costs (``inf`` = unreachable), mutable depths, a client list."""

    def __init__(
        self, costs: Dict[Tuple[Node, Node], float], clients: List[Node]
    ) -> None:
        self.rng = random.Random(0)
        self.costs = costs
        self.clients = clients
        self.depths: Dict[Node, int] = {}

    def cost(self, server: Node, client: Node) -> float:
        for node in (server, client):
            if node not in SERVERS and node not in KNOWN_CLIENTS:
                raise NodeNotFoundError(node)
        cost = self.costs[server, client]
        if cost == math.inf:
            raise NoPathError(server, client)
        return cost

    def cost_rows(
        self, servers: Sequence[Node], clients: Sequence[Node]
    ) -> np.ndarray:
        for node in list(servers) + list(clients):
            if node not in SERVERS and node not in KNOWN_CLIENTS:
                raise NodeNotFoundError(node)
        return np.array(
            [[self.costs[server, client] for client in clients]
             for server in servers],
            dtype=float,
        )

    def queue_depth(self, server: Node) -> int:
        return self.depths.get(server, 0)


def loop_pick(selector, client, chunk, candidates, dead):
    """The engine's failover loop, literally: choose, drop the dead pick."""
    candidates = list(candidates)
    attempts = 0
    while True:
        server = selector.choose(client, chunk, candidates)
        if server not in dead:
            return server, attempts
        attempts += 1
        candidates.remove(server)


def outcome(call):
    """What ``call()`` returns, or the type and message it raises."""
    try:
        return call()
    except (NodeNotFoundError, NoPathError) as exc:
        return type(exc), str(exc)


@st.composite
def bindings(draw, unreachable: bool):
    """A view, per-chunk candidates (producer last) and a dead set."""
    values = UNREACHABLE if unreachable else COSTS
    costs = {
        (server, client): draw(values)
        for server in SERVERS
        for client in KNOWN_CLIENTS
    }
    clients = list(KNOWN_CLIENTS)
    if draw(st.booleans()):
        # A client list the block cannot read: every client falls back.
        clients.insert(draw(st.integers(0, len(clients))), UNKNOWN)
    candidates = {}
    for chunk in CHUNKS:
        order = draw(st.permutations(SERVERS))
        candidates[chunk] = list(order[: draw(st.integers(1, len(order)))])
    caches = sorted({s for c in candidates.values() for s in c[:-1]})
    mode = draw(st.sampled_from(["none", "some", "all"]))
    if mode == "none":
        dead = frozenset()
    elif mode == "all":
        # Producers never die: a server that is some chunk's producer
        # stays alive.
        producers = {c[-1] for c in candidates.values()}
        dead = frozenset(s for s in caches if s not in producers)
    else:
        producers = {c[-1] for c in candidates.values()}
        dead = frozenset(
            s for s in caches
            if s not in producers and draw(st.booleans())
        )
    return BlockView(costs, clients), candidates, dead


def run_arrivals(data, unreachable: bool) -> None:
    picked, reference = LeastLoaded(), ReferenceLeastLoaded()
    view, candidates, dead = data.draw(bindings(unreachable))
    picked.bind(view)
    reference.bind(view)
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        if data.draw(st.integers(0, 9)) == 0:
            view, candidates, dead = data.draw(bindings(unreachable))
            picked.bind(view)
            reference.bind(view)
            continue
        mode = data.draw(st.sampled_from(sorted(DEPTHS)))
        # No request is ever queued at a dead cache.
        view.depths = {
            server: 0 if server in dead else data.draw(DEPTHS[mode])
            for server in SERVERS
        }
        client = data.draw(st.sampled_from(KNOWN_CLIENTS + [UNKNOWN]))
        chunk = data.draw(st.sampled_from(CHUNKS))
        offered = candidates[chunk]
        before = list(offered)
        got = outcome(lambda: picked.pick(client, chunk, offered, dead))
        want = outcome(
            lambda: loop_pick(reference, client, chunk, offered, dead)
        )
        assert got == want, (client, chunk, offered, sorted(dead))
        assert offered == before


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_pick_matches_failover_loop(data):
    run_arrivals(data, unreachable=False)


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_pick_matches_failover_loop_with_unreachable_pairs(data):
    run_arrivals(data, unreachable=True)


def test_every_arrival_calls_choose_once():
    """One ``choose`` per arrival, failovers and saturation included."""

    class Counting(LeastLoaded):
        calls = 0

        def choose(self, client, chunk, candidates):
            Counting.calls += 1
            return super().choose(client, chunk, candidates)

    costs = {(s, c): float(s % 3) for s in SERVERS for c in KNOWN_CLIENTS}
    view = BlockView(costs, list(KNOWN_CLIENTS))
    selector = Counting()
    selector.bind(view)
    dead = frozenset({0, 3, 5})
    # Rank by cost: 0 3 6 | 1 4 7 | 2 5; the first live one is 6.
    for depth in (0, 1, 2):
        view.depths = {s: 0 if s in dead else depth for s in SERVERS}
        assert selector.pick("a", 0, SERVERS, dead) == (
            6, 2 if depth == 0 else len(dead)
        )
    assert Counting.calls == 3


def test_base_pick_is_the_loop_for_p2c():
    """``p2c`` keeps the base loop: same picks, same RNG draws."""
    costs = {(s, c): float(s % 4) for s in SERVERS for c in KNOWN_CLIENTS}
    dead = frozenset({1, 2, 4, 6})
    views = [BlockView(costs, list(KNOWN_CLIENTS)) for _ in range(2)]
    picked, looped = PowerOfTwoChoices(), PowerOfTwoChoices()
    picked.bind(views[0])
    looped.bind(views[1])
    for arrival in range(200):
        depths = {s: 0 if s in dead else arrival % 3 for s in SERVERS}
        views[0].depths = views[1].depths = depths
        client = KNOWN_CLIENTS[arrival % 3]
        assert picked.pick(client, 0, SERVERS, dead) == loop_pick(
            looped, client, 0, SERVERS, dead
        )
    assert views[0].rng.random() == views[1].rng.random()


def test_base_pick_leaves_candidates_alone():
    selector = ReplicaSelector()
    selector.choose = lambda client, chunk, candidates: candidates[0]
    candidates = [5, 6, 7]
    assert selector.pick("a", 0, candidates, frozenset({5, 6})) == (7, 2)
    assert candidates == [5, 6, 7]
