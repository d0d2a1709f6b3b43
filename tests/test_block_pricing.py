"""Block reads of the cost-row store against their per-pair oracles.

Every access is priced as the cheapest Eq. 2 cost ``c_ij`` over a set of
servers.  The adaptive pricing (:func:`price_clients`,
:func:`weighted_access_cost`, :class:`MoveEvaluator`), the ``cheapest``
replica resolution (:meth:`CheapestCost.resolve`) and the commit's
:func:`nearest_server_assignment` read those costs as one
``cost_rows(servers, clients)`` block.  Each must equal the scalar loop
over :meth:`CostModel.contention_cost` kept here as its oracle: the
same floats (compared with ``==``), the same winners under ties, the
same exception and message for unknown and unreachable nodes.  The
scalar read itself is one entry of the same row store: it must equal
the one-entry block ``cost_rows([s], [t])``, with patches still queued
when it is the first read after a storage change.

Networks come from the grid, random-geometric, line, ring, star and
balanced-tree generators, under both path policies, with a random
occupancy committed first.  Node costs ``w_k (1 + S(k))`` are integers,
so equal-cost ties are common.  Every example is derived from a fixed
seed (``derandomize=True``).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.moves import (
    MOVE_CACHE,
    MOVE_EVICT,
    MoveEvaluator,
    price_clients,
    price_pair,
    weighted_access_cost,
)
from repro.core import CachingProblem
from repro.core.commit import nearest_server_assignment
from repro.core.costs import (
    CostModel,
    PATH_POLICY_CONTENTION,
    PATH_POLICY_HOPS,
)
from repro.core.storage import StorageState
from repro.errors import NodeNotFoundError, NoPathError
from repro.graphs import (
    Graph,
    balanced_tree,
    connected_random_network,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.serve.selection import CheapestCost, ServeView

KINDS = ("grid", "rgg", "line", "ring", "star", "tree")
POLICIES = (PATH_POLICY_HOPS, PATH_POLICY_CONTENTION)
CHUNKS = 3
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def topology(kind: str, size: int, seed: int) -> Graph:
    if kind == "grid":
        return grid_graph(size)
    if kind == "line":
        return path_graph(4 * size)
    if kind == "ring":
        return cycle_graph(4 * size)
    if kind == "star":
        return star_graph(4 * size)
    if kind == "tree":
        return balanced_tree(2, size)
    return connected_random_network(5 * size, seed=seed)[0]


# -- the scalar oracles --------------------------------------------------

def scalar_weighted(costs, producer, holders_by_chunk, weights) -> float:
    """``weighted_access_cost`` as one ``price_pair`` per weighted pair."""
    total = 0.0
    for key in sorted(weights, key=lambda k: (k[1], str(k[0]))):
        weight = weights[key]
        if weight <= 0.0:
            continue
        client, chunk = key
        total += weight * price_pair(
            costs, producer, holders_by_chunk.get(chunk, ()), client
        )
    return total


def scalar_resolve(selector, client, candidates, dead):
    """The engine's choose-and-remove failover loop for one client."""
    candidates = list(candidates)
    attempts = 0
    while True:
        server = selector.choose(client, 0, candidates)
        if server not in dead:
            return server, attempts
        attempts += 1
        candidates.remove(server)


def scalar_assignment(costs, producer, caches, clients):
    """First minimum over ``[producer] + caches``, client by client."""
    assignment = {}
    for client in clients:
        best = producer
        best_cost = costs.contention_cost(producer, client)
        for server in caches:
            cost = costs.contention_cost(server, client)
            if cost < best_cost:
                best = server
                best_cost = cost
        assignment[client] = best
    return assignment


class CostView(ServeView):
    """A :class:`ServeView` over a bare cost model."""

    def __init__(self, costs: CostModel) -> None:
        self._costs = costs
        self.rng = random.Random(0)

    def cost(self, server, client):
        return self._costs.contention_cost(server, client)

    def cost_rows(self, servers, clients):
        return self._costs.cost_rows(servers, clients)

    def queue_depth(self, server):
        return 0


def cheapest(costs: CostModel) -> CheapestCost:
    selector = CheapestCost()
    selector.bind(CostView(costs))
    return selector


def raised(call):
    """``(type, message)`` of what ``call()`` raises, or ``None``."""
    try:
        call()
    except (NodeNotFoundError, NoPathError) as exc:
        return type(exc), str(exc)
    return None


def scalar_entry(costs, source, target):
    """``contention_cost(source, target)``, or ``(type, message)`` raised."""
    try:
        return costs.contention_cost(source, target)
    except (NodeNotFoundError, NoPathError) as exc:
        return type(exc), str(exc)


def block_entry(costs, source, target):
    """The one-entry block, read as :func:`scalar_entry` reads a pair: an
    ``inf`` entry is the :class:`NoPathError` of the pair."""
    try:
        cost = costs.cost_rows([source], [target])[0, 0]
    except NodeNotFoundError as exc:
        return type(exc), str(exc)
    if cost == math.inf:
        return NoPathError, str(NoPathError(source, target))
    return cost


def toggle(state, node, chunk):
    """Evict ``chunk`` from ``node`` if it holds it, else cache it there
    if it can: one storage change, queued as a patch on built rows."""
    if chunk in state.storage.chunks_at(node):
        state.evict(node, chunk)
    elif state.can_cache(node):
        state.cache(node, chunk)


# -- the generated cases -------------------------------------------------

@st.composite
def priced_states(draw):
    """A problem state with random occupancy, its holders and weights."""
    kind = draw(st.sampled_from(KINDS))
    graph = topology(
        kind,
        draw(st.integers(min_value=2, max_value=5)),
        draw(st.integers(min_value=0, max_value=10_000)),
    )
    nodes = sorted(graph.nodes(), key=str)
    problem = CachingProblem(
        graph=graph,
        producer=draw(st.sampled_from(nodes)),
        num_chunks=CHUNKS,
        capacity=draw(st.sampled_from([1, 2, 3])),
        path_policy=draw(st.sampled_from(POLICIES)),
    )
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    state = problem.new_state()
    for chunk in range(CHUNKS):
        for node in problem.clients:
            if rng.random() < 0.3 and state.can_cache(node):
                state.cache(node, chunk)
    holders = {
        chunk: sorted(state.storage.holders(chunk), key=str)
        for chunk in range(CHUNKS)
    }
    weights = {
        (node, chunk): rng.choice([0.0, -1.0, 0.5, 1.0, 2.0, 3.7, 7])
        for node in nodes
        for chunk in range(CHUNKS)
        if rng.random() < 0.6
    }
    return state, holders, weights, rng


# -- properties ----------------------------------------------------------

@SETTINGS
@given(priced_states())
def test_block_prices_equal_price_pair(case):
    state, holders, _, rng = case
    producer = state.problem.producer
    nodes = list(state.problem.graph.nodes())
    for chunk in range(CHUNKS):
        clients = rng.sample(nodes, rng.randint(1, len(nodes)))
        expected = [
            price_pair(state.costs, producer, holders[chunk], client)
            for client in clients
        ]
        assert price_clients(
            state.costs, producer, holders[chunk], clients
        ) == expected


@SETTINGS
@given(priced_states())
def test_weighted_access_cost_is_bit_identical(case):
    state, holders, weights, _ = case
    producer = state.problem.producer
    assert weighted_access_cost(
        state.costs, producer, holders, weights
    ) == scalar_weighted(state.costs, producer, holders, weights)


@SETTINGS
@given(priced_states())
def test_move_evaluator_tracks_scalar_prices(case):
    state, holders, weights, rng = case
    producer = state.problem.producer
    evaluator = MoveEvaluator(state, holders, weights)
    assert evaluator.total == scalar_weighted(
        state.costs, producer, holders, weights
    )
    for _ in range(4):
        chunk = rng.randrange(CHUNKS)
        kind = rng.choice([MOVE_CACHE, MOVE_EVICT])
        node = rng.choice(state.problem.clients)
        evaluator.try_move(kind, node, chunk, transfer_cost=0.0)
        for (client, pair_chunk), price in evaluator._prices.items():
            assert price == price_pair(
                state.costs, producer, evaluator.holders[pair_chunk], client
            )


@SETTINGS
@given(priced_states(), st.sampled_from(["none", "some", "all"]))
def test_cheapest_resolution_equals_failover_loop(case, dead_mode):
    state, holders, _, rng = case
    problem = state.problem
    selector = cheapest(state.costs)
    clients = problem.clients
    for chunk in range(CHUNKS):
        caches = [node for node in holders[chunk] if node != problem.producer]
        candidates = caches + [problem.producer]
        if dead_mode == "all":
            dead = frozenset(caches)
        elif dead_mode == "some":
            dead = frozenset(node for node in caches if rng.random() < 0.5)
        else:
            dead = frozenset()
        resolved = selector.resolve(clients, candidates, dead)
        assert list(resolved) == clients
        for client in clients:
            assert resolved[client] == scalar_resolve(
                selector, client, candidates, dead
            )


@SETTINGS
@given(priced_states())
def test_block_assignment_equals_first_minimum_loop(case):
    state, holders, _, rng = case
    problem = state.problem
    clients = problem.clients
    for chunk in range(CHUNKS):
        caches = holders[chunk][:]
        rng.shuffle(caches)
        assert nearest_server_assignment(
            state.costs, problem, caches
        ) == scalar_assignment(state.costs, problem.producer, caches, clients)


@SETTINGS
@given(priced_states())
def test_scalar_read_equals_one_entry_block(case):
    state, _, _, rng = case
    costs = state.costs
    nodes = list(state.problem.graph.nodes())
    costs.cost_rows(nodes, nodes)  # every row built: changes queue patches
    with pytest.MonkeyPatch.context() as patch:
        # The sanitizer applies each patch at once to check it.
        patch.setenv("REPRO_SANITIZE", "0")
        for _ in range(8):
            node = rng.choice(state.problem.clients)
            toggle(state, node, rng.randrange(CHUNKS))
            source, target = (rng.choice(nodes + ["ghost"]) for _ in range(2))
            # The scalar read comes first, so it applies any queued patch.
            expected = scalar_entry(costs, source, target)
            assert block_entry(costs, source, target) == expected


# -- errors: unknown and unreachable nodes -------------------------------

def split_network(policy: str) -> CostModel:
    """A grid plus a two-node island: the island is unreachable."""
    graph = grid_graph(3)
    graph.add_edge("island-a", "island-b")
    storage = StorageState(graph.nodes(), 2, producer=4)
    storage.add(1, 0)
    storage.add("island-a", 0)
    return CostModel(graph, storage, policy)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "holders, clients",
    [
        ([1, 7], [0, "island-b", 8]),          # unreachable client
        ([1, "island-a"], [0, 2]),             # unreachable holder
        ([1, 7], [0, "ghost", 8]),             # unknown client
        (["ghost", 1], [0, 2]),                # unknown holder
        (["island-a"], ["island-b", "ghost"]),  # both kinds
    ],
)
def test_block_prices_raise_the_scalar_error(policy, holders, clients):
    costs = split_network(policy)

    def block():
        price_clients(costs, 4, holders, clients)

    def scalar():
        for client in clients:
            price_pair(costs, 4, holders, client)

    expected = raised(scalar)
    assert expected is not None
    assert raised(block) == expected


@pytest.mark.parametrize("policy", POLICIES)
def test_scalar_read_raises_the_block_error(policy, monkeypatch):
    # The sanitizer applies each patch at once to check it.
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    costs = split_network(policy)
    storage = costs.storage
    nodes = list(costs.graph.nodes())
    costs.cost_rows(nodes, nodes)
    for source in nodes + ["ghost"]:
        for target in nodes + ["ghost"]:
            # Queue a patch (a full drop under "contention") before each
            # pair, so the scalar read is the first read after a change.
            if 1 in storage.chunks_at(1):
                storage.remove(1, 1)
            else:
                storage.add(1, 1)
            costs.invalidate(dirty_nodes=[1])
            if policy == PATH_POLICY_HOPS:
                assert costs._pending
            expected = scalar_entry(costs, source, target)
            assert block_entry(costs, source, target) == expected
    assert scalar_entry(costs, 0, "island-b") == (
        NoPathError, "no path between 0 and 'island-b'"
    )
    assert scalar_entry(costs, "ghost", "ghost") == (
        NodeNotFoundError, "node 'ghost' is not in the graph"
    )
    assert scalar_entry(costs, 0, "ghost") == scalar_entry(costs, "ghost", 0)


@pytest.mark.parametrize("policy", POLICIES)
def test_cheapest_resolution_leaves_unreachable_clients_to_the_loop(policy):
    costs = split_network(policy)
    selector = cheapest(costs)
    candidates = [1, "island-a", 4]
    clients = [0, "island-b", 8]
    resolved = selector.resolve(clients, candidates, frozenset({1}))
    assert list(resolved) == []
    expected = raised(
        lambda: scalar_resolve(selector, 0, candidates, frozenset({1}))
    )
    assert expected == (NoPathError, "no path between 'island-a' and 0")
    # An unknown candidate leaves every client to the loop.
    assert selector.resolve(clients, [1, "ghost", 4], frozenset()) == {}
    # Reachable candidates only: every client resolves.
    resolved = selector.resolve([0, 8], [1, 7, 4], frozenset({1}))
    for client in (0, 8):
        assert resolved[client] == scalar_resolve(
            selector, client, [1, 7, 4], frozenset({1})
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_block_assignment_raises_the_scalar_error(policy):
    problem = CachingProblem(
        graph=grid_graph(3), producer=4, num_chunks=1, path_policy=policy
    )
    state = problem.new_state()
    clients = problem.clients

    unknown = raised(
        lambda: nearest_server_assignment(state.costs, problem, [1, "ghost"])
    )
    assert unknown == raised(
        lambda: scalar_assignment(state.costs, 4, [1, "ghost"], clients)
    )
    assert unknown == (NodeNotFoundError, "node 'ghost' is not in the graph")

    # Cut node 8 off after the problem was built: it becomes unreachable.
    problem.graph.remove_edge(5, 8)
    problem.graph.remove_edge(7, 8)
    state.costs.invalidate_topology()
    cut = raised(
        lambda: nearest_server_assignment(state.costs, problem, [1, 2])
    )
    assert cut == raised(
        lambda: scalar_assignment(state.costs, 4, [1, 2], clients)
    )
    assert cut == (NoPathError, "no path between 4 and 8")


# -- the two tie rules, pinned ---------------------------------------------

def tie_line(policy: str):
    """Line 0 - 1 - 2, producer 0, cache 2: client 1 pays 3 either way."""
    problem = CachingProblem(
        graph=path_graph(3), producer=0, num_chunks=1, path_policy=policy
    )
    state = problem.new_state()
    assert state.costs.contention_cost(0, 1) == 3.0
    assert state.costs.contention_cost(2, 1) == 3.0
    return state


@pytest.mark.parametrize("policy", POLICIES)
def test_commit_assignment_gives_ties_to_the_producer(policy):
    state = tie_line(policy)
    assert nearest_server_assignment(state.costs, state.problem, [2]) == {
        1: 0,
        2: 2,
    }


@pytest.mark.parametrize("policy", POLICIES)
def test_commit_assignment_gives_ties_among_caches_to_the_earlier(policy):
    problem = CachingProblem(
        graph=path_graph(7), producer=0, num_chunks=1, path_policy=policy
    )
    state = problem.new_state()
    # Client 3 sits between caches 2 and 4 at equal cost.
    assert state.costs.contention_cost(2, 3) == 4.0
    assert state.costs.contention_cost(4, 3) == 4.0
    assert nearest_server_assignment(state.costs, problem, [4, 2])[3] == 4
    assert nearest_server_assignment(state.costs, problem, [2, 4])[3] == 2


@pytest.mark.parametrize("policy", POLICIES)
def test_cheapest_gives_ties_to_the_cache(policy):
    state = tie_line(policy)
    selector = cheapest(state.costs)
    assert selector.choose(1, 0, [2, 0]) == 2
    assert selector.resolve([1, 2], [2, 0], frozenset()) == {
        1: (2, 0),
        2: (2, 0),
    }
    # Dead, the cache fails over to the producer after one attempt.
    assert selector.resolve([1], [2, 0], frozenset({2})) == {1: (0, 1)}
