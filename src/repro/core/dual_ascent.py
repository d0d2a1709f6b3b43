"""Primal-dual dual ascent for one ConFL chunk (Algorithm 1, phase 1).

This is the centralized core of the paper's approximation algorithm.  It
follows the structure of Algorithm 1 lines 17–46, which re-states the
deterministic 6.55-approximation of Jung et al. [20] in primal-dual form:

* Every unserved (not FROZEN) client ``j`` raises its bid ``α_j`` by a
  unit step ``U_α`` per round — the price it is willing to pay to reach a
  cache (line 18).
* When ``α_j ≥ c_ij`` for an *already selected* cache ``i`` (the ADMIN set
  ``A``) or the producer, ``j`` connects there and freezes (lines 21–26,
  conditions 1–2).
* Otherwise ``j`` goes **tight** with still-closed facilities it can
  afford; the surplus ``β_ij = α_j − c_ij`` pays toward the opening cost
  ``f_i`` (line 19) and the client's relay bid ``γ`` turns into a SPAN
  request (line 20).
* A facility whose opening cost is fully paid **and** that has gathered at
  least ``M`` SPAN-tight clients becomes ADMIN: it is added to ``A``, and
  every client tight with it freezes onto it (lines 27–45, conditions
  3(a)–3(c)).  The ``M`` threshold is what couples facility opening to the
  connectivity (Steiner) part of ConFL — a cache must be worth wiring into
  the dissemination tree.

Frozen clients stop bidding but their accumulated payments stay on the
books (the FREEZE handler of Algorithm 2 only *stops increasing* α, β, γ),
which matches the dual feasibility argument of Theorem 1.

Determinism: clients and facilities are processed in their instance order
(graph insertion order), so runs are exactly reproducible.

Event-driven implementation (the standard primal-dual loop of Jung et al.
[20]): every active client starts at ``α = 0`` and gains the same
``step · jump`` per event loop, so all active bids equal one clock ``t``.
Each client's servers are sorted by ``c_ij`` once, and a pointer marks the
first one it cannot yet afford.  Everything before the pointer is a
still-closed facility the client is tight with (an affordable open server
would have frozen it), so the next client event, the freeze check and the
tight refresh read only entries at or past the pointer.  Facilities keep a
count of their active tight clients, and only those with at least ``M``
are priced.  Rounds, bids, payments, freeze order and ``tight[i]``
insertion order are exactly those of the round-by-round rule above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.errors import SolverError
from repro.analysis import contracts
from repro.core.confl import ConFLInstance
from repro.obs import get_recorder, get_tracer

Node = Hashable


@dataclass(frozen=True)
class DualAscentConfig:
    """Tuning knobs of the dual ascent.

    Attributes
    ----------
    step:
        The bid increment ``U_α`` per round.  Smaller steps track the dual
        trajectory more precisely but take more rounds (the paper bounds
        rounds by ``max{c_ij} / U_α``, Sec. IV-B).
    span_threshold:
        ``M`` — SPAN-tight clients required before a paid facility becomes
        ADMIN.  ``None`` defers to the instance's dissemination scale
        (minimum 1).
    max_rounds:
        Safety valve; the ascent provably ends within
        ``max c_ij / step + 1`` rounds, so hitting this raises.
    """

    step: float = 1.0
    span_threshold: Optional[int] = 3
    max_rounds: int = 1_000_000

    def resolved_threshold(self, instance: ConFLInstance) -> int:
        if self.span_threshold is not None:
            return max(1, int(self.span_threshold))
        return max(1, int(round(instance.dissemination_scale)))


@dataclass
class DualAscentResult:
    """Outcome of phase 1 for one chunk."""

    admins: List[Node]
    assignment: Dict[Node, Node]
    alpha: Dict[Node, float]
    rounds: int
    # Diagnostics useful for tests / the distributed twin:
    payments: Dict[Node, float] = field(default_factory=dict)
    span_counts: Dict[Node, int] = field(default_factory=dict)


def _servers_by_cost(
    instance: ConFLInstance, facilities: List[Node]
) -> Tuple[Dict[Node, List[float]], Dict[Node, List[Node]]]:
    """Each client's servers in the order its bid reaches them.

    Per client: the facilities cheaper than the producer, by ``c_ij``
    (ties in facility order), then the producer, then an ``inf`` cost
    that stops every scan.  A client whose bid reaches the producer's
    cost freezes onto it — the producer wins every tie — so nothing
    dearer is ever read.  ``facilities`` is a subsequence of the
    instance's; one stable argsort of ``connect_matrix`` ranks them for
    every client at once.
    """
    row_of = instance.row_of
    matrix = instance.connect_matrix
    # clients × facilities, so each client's sort runs over contiguous memory.
    ranked = np.take(matrix.T, [row_of[i] for i in facilities], axis=1)
    order = np.argsort(ranked, axis=1, kind="stable")
    ranked = np.take_along_axis(ranked, order, 1)
    producer_costs = matrix[row_of[instance.producer]]
    cuts = (ranked < producer_costs[:, None]).sum(axis=1)
    # Only the entries before each client's cut are ever read.
    kept = np.arange(len(facilities)) < cuts[:, None]
    kept_costs = ranked[kept].tolist()
    kept_servers = list(map(facilities.__getitem__, order[kept].tolist()))
    del ranked, order, kept  # free the sort buffers before the lists grow
    producer = instance.producer
    costs_of: Dict[Node, List[float]] = {}
    servers_of: Dict[Node, List[Node]] = {}
    start = 0
    for j, end, own in zip(
        instance.clients, np.cumsum(cuts).tolist(), producer_costs.tolist()
    ):
        costs_of[j] = kept_costs[start:end] + [own, math.inf]
        servers_of[j] = kept_servers[start:end] + [producer]
        start = end
    return costs_of, servers_of


def dual_ascent(
    instance: ConFLInstance, config: DualAscentConfig = DualAscentConfig()
) -> DualAscentResult:
    """Run the dual ascent; returns the ADMIN set and client assignment.

    Every client ends FROZEN: connected to an ADMIN facility or to the
    producer.  Facilities with infinite opening cost never open, so
    capacity is respected by construction.
    """
    if config.step <= 0:
        raise SolverError(f"dual-ascent step must be positive, got {config.step}")
    producer = instance.producer
    clients: List[Node] = list(instance.clients)
    facilities: List[Node] = [
        node
        for node in instance.facilities
        if math.isfinite(instance.open_cost[node])
    ]
    open_cost = instance.open_cost
    threshold = config.resolved_threshold(instance)
    step = config.step

    # t: the bid of every still-active client (they all rise together);
    # alpha[j] is written when j freezes.
    t = 0.0
    alpha: Dict[Node, float] = {j: 0.0 for j in clients}
    active: List[Node] = list(clients)
    frozen: Set[Node] = set()
    target: Dict[Node, Node] = {}
    admins: List[Node] = []
    # Open servers and their tie-break rank: the order [producer] + admins.
    open_rank: Dict[Node, int] = {producer: -1}
    # T[i]: clients that went tight with facility i while still bidding.
    tight: Dict[Node, Set[Node]] = {i: set() for i in facilities}
    # c_ij of each member j of T[i], recorded when j went tight with i.
    tight_cost: Dict[Node, Dict[Node, float]] = {i: {} for i in facilities}
    # How many members of T[i] are still bidding.
    active_tight: Dict[Node, int] = {i: 0 for i in facilities}
    # Payments toward f_i, locked in place when a contributor freezes.
    locked_payment: Dict[Node, float] = {i: 0.0 for i in facilities}

    costs_of, servers_of = _servers_by_cost(instance, facilities)
    # ptr[j]: the first entry of j's lists that j cannot afford yet.
    ptr: Dict[Node, int] = {j: 0 for j in clients}

    def facility_payment(i: Node) -> float:
        """Σ β_ij: live bids of unfrozen tight clients + locked payments."""
        live = sum(t - tight_cost[i][j] for j in tight[i] if j not in frozen)
        return locked_payment[i] + live

    def freeze(j: Node, server: Node) -> None:
        """FROZEN: stop j's bids, lock its β contributions, record target."""
        frozen.add(j)
        target[j] = server
        alpha[j] = t
        costs = costs_of[j]
        servers = servers_of[j]
        for k in range(ptr[j]):
            i = servers[k]
            locked_payment[i] += max(0.0, t - costs[k])
            active_tight[i] -= 1

    def cheapest_open_server(j: Node) -> Optional[Node]:
        """Best already-open server j can afford (ADMIN or producer)."""
        costs = costs_of[j]
        servers = servers_of[j]
        best: Optional[Node] = None
        best_cost = math.inf
        best_rank = 0
        k = ptr[j]
        while costs[k] <= t and costs[k] <= best_cost:
            rank = open_rank.get(servers[k])
            if rank is not None and (best is None or rank < best_rank):
                best, best_cost, best_rank = servers[k], costs[k], rank
            k += 1
        return best

    def rounds_to_next_event() -> int:
        """Idle rounds that can be skipped in one jump.

        Between events (a client affording an open server, a client going
        tight with a new facility, a facility's payment reaching ``f_i``)
        every round just adds ``step`` to all active bids — so the
        trajectory is identical if those rounds are applied at once.
        The next client event is the cheapest entry at any active
        client's pointer; the next facility event is the smallest
        deficit among facilities with at least ``M`` active tight
        clients.  This event-driven jump is what keeps Algorithm 1 fast
        in practice (cf. Fig. 5) without changing any outcome.
        """
        nearest = min(costs_of[j][ptr[j]] for j in active) - t
        if nearest <= 0:
            return 1
        best = max(1, math.ceil(nearest / step - 1e-12))
        for i in facilities:
            count = active_tight[i]
            if count < threshold or i in open_rank:
                continue
            deficit = open_cost[i] - facility_payment(i)
            if deficit <= 0:
                return 1
            rounds_needed = max(1, math.ceil(deficit / (count * step) - 1e-12))
            if rounds_needed < best:
                best = rounds_needed
        return best

    rounds = 0
    event_loops = 0
    direct_freezes = 0
    trace = get_tracer()
    obs = get_recorder()
    series_on = obs.series_enabled
    # The cumulative counters (bumped at the end of every earlier run)
    # offset this run's round numbers and freeze/opening tallies, so
    # the convergence series stay monotone across per-chunk solves.
    series_base = frozen_base = admins_base = 0.0
    if series_on:
        series_base = float(obs.counter("dual_ascent.rounds"))
        frozen_base = float(
            obs.counter("dual_ascent.freezes.direct")
            + obs.counter("dual_ascent.freezes.via_opening")
        )
        admins_base = float(obs.counter("dual_ascent.admins_opened"))
    tight_edges = 0
    while len(frozen) < len(clients):
        jump = rounds_to_next_event()
        rounds += jump
        event_loops += 1
        frozen_before = len(frozen)
        admins_before = len(admins)
        if rounds > config.max_rounds:
            raise SolverError(
                f"dual ascent did not converge in {config.max_rounds} rounds"
            )
        # Line 18: raise bids of every active client (jumped in one step).
        t += step * jump

        # Conditions 1-2 (lines 21-26): connect to ADMIN / producer.
        for j in active:
            if costs_of[j][ptr[j]] <= t:
                server = cheapest_open_server(j)
                if server is not None:
                    freeze(j, server)
                    direct_freezes += 1

        # Lines 19-20: refresh tight sets (β, γ bids) of active clients.
        # A client still bidding here affords no open server, so every
        # entry its pointer passes is a still-closed facility.
        for j in active:
            if j in frozen:
                continue
            costs = costs_of[j]
            servers = servers_of[j]
            k = ptr[j]
            while costs[k] <= t:
                i = servers[k]
                tight[i].add(j)
                tight_cost[i][j] = costs[k]
                active_tight[i] += 1
                k += 1
            ptr[j] = k

        # Condition 3 (lines 27-45): open fully paid, well-supported
        # facilities.  Deterministic facility order; openings within a
        # round see the freezes caused by earlier openings.
        for i in facilities:
            if active_tight[i] < threshold or i in open_rank:
                continue
            if facility_payment(i) + 1e-12 < open_cost[i]:
                continue
            open_rank[i] = len(admins)
            admins.append(i)
            supporters = [j for j in tight[i] if j not in frozen]
            if trace.enabled:
                trace.instant(
                    "dual_ascent.admin_open",
                    track="dual_ascent",
                    args={
                        "facility": str(i),
                        "round": rounds,
                        "payment": facility_payment(i),
                        "open_cost": open_cost[i],
                        "tight_clients": len(supporters),
                    },
                )
            for j in supporters:
                freeze(j, i)
        active = [j for j in active if j not in frozen]

        # Per-iteration trace: the dual trajectory (bid levels, tight
        # edges, freezes, openings) as one instant event per event-loop
        # round.  Payload construction is gated so the default
        # NullTracer costs one attribute read per iteration.
        if trace.enabled:
            total_tight = sum(len(members) for members in tight.values())
            trace.instant(
                "dual_ascent.round",
                track="dual_ascent",
                args={
                    "round": rounds,
                    "jump": jump,
                    "frozen": len(frozen),
                    "new_freezes": len(frozen) - frozen_before,
                    "admins": len(admins),
                    "new_admins": len(admins) - admins_before,
                    "tight_edges": total_tight,
                    "new_tight_edges": total_tight - tight_edges,
                    "alpha_active_max": t if active else 0.0,
                },
            )
            tight_edges = total_tight

        # Per-round convergence series (virtual time = round number):
        # the dual objective Σα, the freeze/opening census, and the
        # residual infeasibility (clients still bidding).  One
        # attribute read per iteration when telemetry is off.
        if series_on:
            at = series_base + rounds
            obs.series_point(
                "dual_ascent.objective",
                at,
                sum(alpha[j] if j in frozen else t for j in clients),
            )
            obs.series_point(
                "dual_ascent.frozen",
                at,
                frozen_base + len(frozen),
                kind="counter",
            )
            obs.series_point(
                "dual_ascent.admins",
                at,
                admins_base + len(admins),
                kind="counter",
            )
            obs.series_point(
                "dual_ascent.unserved", at, len(clients) - len(frozen)
            )

    payments = {i: facility_payment(i) for i in facilities}
    span_counts = {i: len(tight[i]) for i in facilities}
    if contracts.sanitize_enabled():
        contracts.check_dual_solution(
            producer=producer,
            clients=clients,
            facilities=facilities,
            open_cost=open_cost,
            connect_matrix=instance.connect_matrix,
            row_of=instance.row_of,
            admins=admins,
            assignment=target,
            alpha=alpha,
            payments=payments,
            span_counts=span_counts,
            step=config.step,
            threshold=threshold,
        )
    obs.count("dual_ascent.runs")
    obs.count("dual_ascent.rounds", rounds)
    obs.count("dual_ascent.event_loops", event_loops)
    obs.count("dual_ascent.tight_events", sum(span_counts.values()))
    obs.count("dual_ascent.span_supported_facilities",
              sum(1 for c in span_counts.values() if c >= threshold))
    obs.count("dual_ascent.freezes.direct", direct_freezes)
    obs.count("dual_ascent.freezes.via_opening", len(frozen) - direct_freezes)
    obs.count("dual_ascent.admins_opened", len(admins))
    return DualAscentResult(
        admins=admins,
        assignment=dict(target),
        alpha=alpha,
        rounds=rounds,
        payments=payments,
        span_counts=span_counts,
    )
