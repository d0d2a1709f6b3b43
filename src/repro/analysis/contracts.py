"""Runtime invariant sanitizer, toggled by ``REPRO_SANITIZE=1``.

Cheap assertions for the paper's per-chunk ConFL invariants, wired into
the places a wrong answer could silently pass through:

* :func:`check_dual_solution` — after each dual ascent
  (``core/dual_ascent.py``): every client frozen onto an affordable
  server, every ADMIN facility fully paid (dual feasibility of the α/β
  bids, Theorem 1's bookkeeping), and SPAN support at or above the
  ``M`` threshold.
* :func:`check_storage_monotonic` / :func:`check_chunk_commit` — inside
  the shared commit path (``core/commit.py``): storage ``S(k)`` only
  ever grows within Algorithm 1, stage costs are finite and
  non-negative, and the committed chunk satisfies the ILP constraints
  (4)–(6) per chunk (served exactly once, served only by caches or the
  producer, dissemination tree connects every cache to the producer).
* :func:`check_message_census` — after each protocol session
  (``distributed/protocol.py``): Table II census conservation — the NPI
  and BADMIN floods reach every node exactly once, unicast transmission
  counts stay within the ``k``-hop envelope, and no unknown message
  types appear.
* :func:`check_session_cacheability` — at the end of each protocol
  session: every node's cacheability, resolved once when the session
  started, still equals ``state.can_cache(node)``.
* :func:`check_column_apply` — after each simulator column entry
  (``distributed/simulator.py``): the apply scheduled and cancelled
  nothing, which is what makes the column's one-step live-depth drop
  exact.
* :func:`check_incremental_cost_rows` — after each incremental cost
  patch (``core/costs.py``): the delta-patched ``c_ij`` rows equal a
  full recompute from the current storage state, with *exact* float
  equality (all node costs are integers, so float64 sums are exact).
* :func:`check_serve_equivalence` / :func:`check_stream_equivalence` —
  on small serve replays (``serve/engine.py``): the batched report is
  byte-equal to the per-request reference loop's, and the bulk-decoded
  request stream equals the per-request one.

Everything here is duck-typed over plain dicts/sequences so this module
stays at the bottom of the layering (stdlib + :mod:`repro.errors` only)
and :mod:`repro.core` can import it without cycles.  When the env var is
unset the per-call cost is a single dict lookup.
"""

from __future__ import annotations

import math
import os
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import InvariantError

Node = Hashable

ENV_VAR = "REPRO_SANITIZE"


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to anything but ''/'0'."""
    return os.environ.get(ENV_VAR, "").strip() not in ("", "0")


def _fail(rule: str, message: str) -> None:
    raise InvariantError(rule, message)


def _tol(scale: float) -> float:
    return 1e-6 * (1.0 + abs(scale))


# ----------------------------------------------------------------------
# Dual ascent (Algorithm 1 lines 17-46)
# ----------------------------------------------------------------------
def check_dual_solution(
    *,
    producer: Node,
    clients: Sequence[Node],
    facilities: Sequence[Node],
    open_cost: Mapping[Node, float],
    connect_cost: Mapping[Node, Mapping[Node, float]],
    admins: Sequence[Node],
    assignment: Mapping[Node, Node],
    alpha: Mapping[Node, float],
    payments: Mapping[Node, float],
    span_counts: Mapping[Node, int],
    step: float,
    threshold: int,
) -> None:
    """Assert the dual-ascent outcome is a feasible frozen state."""
    rule = "dual-feasibility"
    client_set = set(clients)
    admin_list = list(admins)
    admin_set = set(admin_list)
    facility_set = set(facilities)

    if len(admin_list) != len(admin_set):
        _fail(rule, f"ADMIN set has duplicates: {admin_list!r}")
    stray = admin_set - facility_set
    if stray:
        _fail(rule, f"ADMIN nodes {sorted(map(repr, stray))[:5]} are not "
                    "eligible facilities")
    if producer in admin_set:
        _fail(rule, "the producer appeared in the ADMIN set")

    served = set(assignment)
    if served != client_set:
        missing = client_set - served
        extra = served - client_set
        _fail(
            rule,
            "assignment does not cover the clients exactly "
            f"(missing={sorted(map(repr, missing))[:5]}, "
            f"extra={sorted(map(repr, extra))[:5]})",
        )

    open_servers = admin_set | {producer}
    for client, server in assignment.items():
        if server not in open_servers:
            _fail(
                rule,
                f"client {client!r} frozen onto {server!r}, which is "
                "neither an ADMIN facility nor the producer",
            )
        bid = alpha[client]
        if bid < -_tol(bid):
            _fail(rule, f"client {client!r} has negative bid alpha={bid}")
        cost = connect_cost[server][client]
        if bid + _tol(cost) < cost:
            _fail(
                rule,
                f"client {client!r} frozen onto {server!r} it cannot "
                f"afford: alpha={bid} < connection cost {cost}",
            )

    for facility in admin_list:
        paid = float(payments[facility])
        cost = float(open_cost[facility])
        if not math.isfinite(cost):
            _fail(rule, f"ADMIN facility {facility!r} has infinite "
                        "opening cost")
        if paid + _tol(cost) < cost:
            _fail(
                rule,
                f"ADMIN facility {facility!r} opened under-paid: "
                f"sum of beta bids {paid} < opening cost {cost}",
            )
        support = int(span_counts.get(facility, 0))
        # No upper bound on ``paid`` is asserted: a facility whose opening
        # cost is covered early can keep accumulating beta surplus while it
        # waits for its M-th SPAN-tight client, so the payment at opening
        # legitimately exceeds f_i by more than one quantization step.
        if support < threshold:
            _fail(
                rule,
                f"ADMIN facility {facility!r} opened with SPAN support "
                f"{support} below the threshold M={threshold}",
            )


# ----------------------------------------------------------------------
# Shared commit path (Algorithm 1 lines 47-48)
# ----------------------------------------------------------------------
def check_storage_monotonic(
    *,
    chunk: int,
    used_before: Mapping[Node, int],
    used_after: Mapping[Node, int],
    cached_nodes: Iterable[Node],
) -> None:
    """Assert S(k) grew by exactly one at each cache and never shrank."""
    rule = "storage-monotonic"
    cached = set(cached_nodes)
    for node, before in used_before.items():
        after = used_after[node]
        if after < before:
            _fail(
                rule,
                f"chunk {chunk}: storage at {node!r} decreased "
                f"({before} -> {after}) during commit",
            )
        expected = before + 1 if node in cached else before
        if after != expected:
            _fail(
                rule,
                f"chunk {chunk}: storage at {node!r} moved {before} -> "
                f"{after}, expected {expected}",
            )


def check_chunk_commit(
    *,
    chunk: int,
    producer: Node,
    clients: Iterable[Node],
    caches: Sequence[Node],
    assignment: Mapping[Node, Node],
    tree_edges: Iterable[FrozenSet[Node]],
    has_edge: Callable[[Node, Node], bool],
    stage_costs: Mapping[str, float],
) -> None:
    """Assert the committed chunk satisfies ILP constraints (4)-(6)."""
    rule = "commit-feasibility"
    cache_set = set(caches)
    if producer in cache_set:
        _fail(rule, f"chunk {chunk}: the producer is in the caching set")

    client_set = set(clients)
    served = set(assignment)
    if served != client_set:
        _fail(
            rule,
            f"chunk {chunk}: assignment covers {len(served)} clients, "
            f"expected {len(client_set)} (constraint 4)",
        )
    allowed = cache_set | {producer}
    for client, server in assignment.items():
        if server not in allowed:
            _fail(
                rule,
                f"chunk {chunk}: client {client!r} served by {server!r}, "
                "which caches nothing (constraint 5)",
            )

    for name, value in stage_costs.items():
        if not math.isfinite(value) or value < -_tol(value):
            _fail(
                rule,
                f"chunk {chunk}: stage {name} cost is {value}; stage "
                "costs must be finite and non-negative",
            )

    # Constraint (6): the dissemination edges connect every cache to the
    # producer.  Inline BFS keeps this module free of graphs/ imports.
    if not cache_set:
        return
    adjacency: Dict[Node, List[Node]] = {}
    for key in tree_edges:
        endpoints: Tuple[Node, ...] = tuple(key)
        if len(endpoints) != 2:
            _fail(rule, f"chunk {chunk}: malformed tree edge {key!r}")
        u, v = endpoints
        if not has_edge(u, v):
            _fail(
                rule,
                f"chunk {chunk}: dissemination edge ({u!r}, {v!r}) is not "
                "a network link",
            )
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    reached: Set[Node] = {producer}
    frontier: List[Node] = [producer]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency.get(node, ()):
            if neighbor not in reached:
                reached.add(neighbor)
                frontier.append(neighbor)
    unreachable = cache_set - reached
    if unreachable:
        _fail(
            rule,
            f"chunk {chunk}: caches {sorted(map(repr, unreachable))[:5]} "
            "are not connected to the producer by the dissemination tree "
            "(constraint 6)",
        )


# ----------------------------------------------------------------------
# Incremental cost engine (Algorithm 1 lines 8-13, delta patching)
# ----------------------------------------------------------------------
def check_incremental_cost_rows(
    *,
    dirty_nodes: Sequence[Node],
    patched: Mapping[Node, Mapping[Node, float]],
    fresh: Mapping[Node, Mapping[Node, float]],
) -> None:
    """Assert delta-patched contention rows equal a full recompute.

    Equality is *exact*: Eq. 2 sums integer node costs ``w_k (1 + S(k))``
    and the patch adds the integer delta ``w_k · ΔS(k)``, so both sides
    are integer-valued floats and any difference is a real defect, not
    rounding.
    """
    rule = "incremental-costs"
    dirty = sorted(map(repr, dirty_nodes))
    if set(patched) != set(fresh):
        missing = set(fresh) - set(patched)
        extra = set(patched) - set(fresh)
        _fail(
            rule,
            "patched row sources diverge from the fresh rebuild after "
            f"dirty={dirty[:5]} (missing={sorted(map(repr, missing))[:5]}, "
            f"extra={sorted(map(repr, extra))[:5]})",
        )
    for source, fresh_row in fresh.items():
        patched_row = patched[source]
        if set(patched_row) != set(fresh_row):
            _fail(
                rule,
                f"row {source!r}: patched targets diverge from the fresh "
                f"rebuild after dirty={dirty[:5]}",
            )
        for target, expected in fresh_row.items():
            got = patched_row[target]
            if got != expected:
                _fail(
                    rule,
                    f"row {source!r}: patched c[{source!r}][{target!r}] = "
                    f"{got} but a fresh rebuild gives {expected} "
                    f"(after dirty={dirty[:5]})",
                )


# ----------------------------------------------------------------------
# Distributed protocol (Algorithm 2, Table II)
# ----------------------------------------------------------------------
#: Message types whose range is limited to k hops (Table II "local").
_SCOPED_TYPES = ("CC", "TIGHT", "SPAN", "FREEZE", "NADMIN")


def check_message_census(
    *,
    chunk: int,
    known_types: Sequence[str],
    messages_before: Mapping[str, int],
    messages_after: Mapping[str, int],
    transmissions_before: Mapping[str, int],
    transmissions_after: Mapping[str, int],
    num_nodes: int,
    num_admins: int,
    hop_limit: int,
) -> None:
    """Assert the Table II message census obeys its conservation laws."""
    rule = "message-census"
    known = set(known_types)
    for label, mapping in (
        ("messages", messages_after),
        ("transmissions", transmissions_after),
    ):
        unknown = set(mapping) - known
        if unknown:
            _fail(
                rule,
                f"chunk {chunk}: unknown {label} type(s) "
                f"{sorted(unknown)!r} in the census",
            )

    deltas: Dict[str, Tuple[int, int]] = {}
    for msg_type in known_types:
        d_messages = messages_after.get(msg_type, 0) - messages_before.get(
            msg_type, 0
        )
        d_transmissions = transmissions_after.get(
            msg_type, 0
        ) - transmissions_before.get(msg_type, 0)
        if d_messages < 0 or d_transmissions < 0:
            _fail(
                rule,
                f"chunk {chunk}: {msg_type} census decreased "
                f"(messages {d_messages:+}, transmissions "
                f"{d_transmissions:+})",
            )
        if d_transmissions < d_messages:
            _fail(
                rule,
                f"chunk {chunk}: {msg_type} logged {d_messages} messages "
                f"but only {d_transmissions} transmissions; every "
                "delivery costs at least one hop",
            )
        deltas[msg_type] = (d_messages, d_transmissions)

    # Floods are reliable: NPI reaches every non-producer node exactly
    # once, BADMIN reaches everyone but the announcing admin.
    npi_messages = deltas.get("NPI", (0, 0))[0]
    if npi_messages != num_nodes:
        _fail(
            rule,
            f"chunk {chunk}: NPI flood delivered {npi_messages} messages, "
            f"expected exactly {num_nodes} (one per non-producer node)",
        )
    badmin_messages = deltas.get("BADMIN", (0, 0))[0]
    expected_badmin = num_admins * max(0, num_nodes - 1)
    if badmin_messages != expected_badmin:
        _fail(
            rule,
            f"chunk {chunk}: BADMIN floods delivered {badmin_messages} "
            f"messages for {num_admins} admin(s), expected "
            f"{expected_badmin}",
        )

    for msg_type in _SCOPED_TYPES:
        d_messages, d_transmissions = deltas.get(msg_type, (0, 0))
        if d_transmissions > d_messages * max(1, hop_limit):
            _fail(
                rule,
                f"chunk {chunk}: {msg_type} transmissions "
                f"{d_transmissions} exceed the {hop_limit}-hop envelope "
                f"for {d_messages} messages (Table II range violation)",
            )


def check_session_cacheability(
    *,
    chunk: int,
    resolved: Mapping[Node, bool],
    can_cache: Callable[[Node], bool],
) -> None:
    """Assert the cacheability a protocol session resolved at its start
    still matches the live storage state at its end.

    The session reads each node's ``can_cache`` once; that is exact only
    while storage changes nowhere but the commit after the session."""
    for node, cached in resolved.items():
        if cached != can_cache(node):
            _fail(
                "session-cacheability",
                f"chunk {chunk}: node {node!r} resolved can_cache={cached} "
                f"at session start, but storage now says {not cached}",
            )


def check_column_apply(
    *, before: Tuple[int, int, int], after: Tuple[int, int, int]
) -> None:
    """Assert a simulator column apply left the queue as it found it.

    ``before`` and ``after`` are ``(heap entries, live events, cancelled
    entries)``.  A column lowers the live depth by all its items before
    its apply runs, which is exact only while the apply schedules and
    cancels nothing."""
    if before != after:
        _fail(
            "column-apply",
            "a column apply changed the event queue (entries, live, "
            f"cancelled) from {before} to {after}",
        )


# ----------------------------------------------------------------------
# Serve engine (request plane): batched vs per-request byte-equality
# ----------------------------------------------------------------------
#: Replays at or below this size get a shadow per-request replay when
#: the sanitizer is on; above it the check would dominate the run.
SERVE_EQUIVALENCE_MAX_REQUESTS = 2048


def check_serve_equivalence(
    *,
    batched_json: str,
    reference_json: str,
    context: str,
) -> None:
    """Assert the batched serve report is byte-equal to the reference.

    The request plane's core promise (docs/SCALING.md): the batched
    engine is an execution strategy, not a different simulation, so its
    ``ServeReport`` must serialize to the exact bytes the per-request
    engine produces.  Both sides arrive pre-serialized so this module
    needs no knowledge of the report type.
    """
    rule = "serve-equivalence"
    if batched_json == reference_json:
        return
    for index, (left, right) in enumerate(
        zip(batched_json.splitlines(), reference_json.splitlines())
    ):
        if left != right:
            _fail(
                rule,
                f"{context}: batched report diverges from the per-request "
                f"reference at JSON line {index + 1}: "
                f"batched={left.strip()!r} reference={right.strip()!r}",
            )
    _fail(
        rule,
        f"{context}: batched report length {len(batched_json)} != "
        f"per-request reference length {len(reference_json)}",
    )


def check_stream_equivalence(
    *,
    batched: Sequence[Tuple[float, Node, int]],
    reference: Sequence[Tuple[float, Node, int]],
    context: str,
) -> None:
    """Assert a batched request stream equals the per-request one.

    ``Workload.stream_batches`` decodes its columns in bulk from the
    same RNG words ``Workload.stream`` draws one call at a time
    (docs/SCALING.md); both sides arrive as ``(time, client, chunk)``
    rows in stream order and must agree row for row.  Replays at or
    below :data:`SERVE_EQUIVALENCE_MAX_REQUESTS` requests are checked.
    """
    rule = "stream-equivalence"
    for index, (left, right) in enumerate(zip(batched, reference)):
        if left != right:
            _fail(
                rule,
                f"{context}: batched request {index} is {left!r}, the "
                f"per-request stream's is {right!r}",
            )
    if len(batched) != len(reference):
        _fail(
            rule,
            f"{context}: {len(batched)} batched requests != "
            f"{len(reference)} per-request requests",
        )


# ----------------------------------------------------------------------
# Adaptive control plane: local moves must never worsen total cost
# ----------------------------------------------------------------------
def check_adaptive_move(
    *,
    move: str,
    node: Node,
    chunk: int,
    tracked_before: float,
    tracked_after: float,
    fresh_before: float,
    fresh_after: float,
    transfer_cost: float,
    context: str,
) -> None:
    """Assert an accepted adaptive move is priced honestly and pays off.

    The control plane evaluates candidate moves against its *live*
    incrementally-patched cost model; this check re-prices both sides of
    an accepted move with values from a fresh cost model (the caller
    recomputes them from scratch) and asserts (a) the tracked totals
    agree with the fresh ones — the incremental patches didn't drift —
    and (b) the move never worsens demand-weighted total cost once its
    one-time transfer cost is charged (``docs/ADAPTIVE.md``).
    """
    rule = "adaptive-move"
    if transfer_cost < 0:
        _fail(
            rule,
            f"{context}: {move} of chunk {chunk} at {node!r} has negative "
            f"transfer cost {transfer_cost}",
        )
    if abs(tracked_before - fresh_before) > _tol(fresh_before):
        _fail(
            rule,
            f"{context}: tracked pre-move cost {tracked_before} diverges "
            f"from fresh recomputation {fresh_before} "
            f"({move} of chunk {chunk} at {node!r})",
        )
    if abs(tracked_after - fresh_after) > _tol(fresh_after):
        _fail(
            rule,
            f"{context}: tracked post-move cost {tracked_after} diverges "
            f"from fresh recomputation {fresh_after} "
            f"({move} of chunk {chunk} at {node!r})",
        )
    if fresh_after + transfer_cost > fresh_before + _tol(fresh_before):
        _fail(
            rule,
            f"{context}: accepted {move} of chunk {chunk} at {node!r} "
            f"worsens cost: before={fresh_before} "
            f"after={fresh_after} transfer={transfer_cost}",
        )


__all__ = [
    "ENV_VAR",
    "SERVE_EQUIVALENCE_MAX_REQUESTS",
    "check_adaptive_move",
    "check_chunk_commit",
    "check_column_apply",
    "check_dual_solution",
    "check_incremental_cost_rows",
    "check_message_census",
    "check_serve_equivalence",
    "check_stream_equivalence",
    "check_storage_monotonic",
    "sanitize_enabled",
]
