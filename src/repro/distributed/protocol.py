"""Orchestration of the distributed algorithm (Sec. IV-C).

:func:`solve_distributed` runs Algorithm 2 chunk by chunk on the
discrete-event simulator:

1. The producer floods NPI — every node learns a new chunk needs caching
   and its own contention cost to the producer.
2. Every node floods a CC (contention collection) request ``k`` hops out;
   receivers learn candidate caches and the ``Con_ij`` costs (the flood
   accumulates node contention along the BFS path, exactly Eq. 2).
3. A global bid clock ticks; nodes bid, TIGHT, SPAN, and freeze per
   :class:`~repro.distributed.node.ProtocolNode` until every node is
   served.
4. Admins that emerged proactively fetch the chunk; the session commits
   the placement with the shared accounting of
   :func:`repro.core.commit.commit_chunk`, so Dist / Appx / baselines /
   exact results are directly comparable.

All control messages except NPI and BADMIN are limited to ``k`` hops
(k = 2 in the paper's evaluation; Fig. 3 studies the sweep).  Message and
transmission counts per Table II type are collected in
:class:`~repro.distributed.messages.MessageStats`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable, Deque, Dict, Hashable, List, Optional, Sequence, Set, Tuple,
)

from repro.errors import SimulationError
from repro.analysis import contracts
from repro.core.commit import commit_chunk
from repro.core.placement import CachePlacement, ChunkPlacement
from repro.core.problem import CachingProblem, ProblemState
from repro.distributed.faults import FaultPlane, FaultReport
from repro.distributed.messages import (
    ALL_TYPES,
    BADMIN,
    CC,
    FREEZE,
    NADMIN,
    NPI,
    SPAN,
    TIGHT,
    MessageStats,
)
from repro.distributed.node import ACTIVE, ProtocolNode
from repro.distributed.simulator import ColumnApply, Simulator
from repro.obs import get_recorder, get_tracer

Node = Hashable

ALGORITHM_NAME = "distributed"


@dataclass(frozen=True)
class DistributedConfig:
    """Protocol parameters.

    Attributes
    ----------
    hop_limit:
        ``k`` — range of CC / TIGHT / SPAN / FREEZE / NADMIN messages
        (paper default 2).
    step:
        Bid increment per tick (the distributed ``U_α``).
    span_threshold:
        ``M`` — SPAN supporters required to self-promote to ADMIN; matches
        the centralized dual ascent's threshold so the two algorithms are
        directly comparable.
    tick_interval / hop_latency:
        Simulated durations of a bidding round and of one radio hop.  The
        defaults keep all message deliveries within the round that sent
        them, which mirrors the synchronous-round analysis of Sec. IV-D.
        ``step`` and ``tick_interval`` must be finite and positive,
        ``hop_latency`` and ``promotion_latency`` finite and
        non-negative; :func:`solve_distributed` rejects anything else.
    max_ticks:
        Safety bound; the ascent provably freezes every node once bids
        exceed its producer cost.
    gamma_from_alpha:
        Where the relay bid ``γ`` starts when a client goes tight.  True
        (default): at the current bid ``α_j``, so SPAN follows TIGHT on the
        next tick — this keeps the distributed opening clock aligned with
        the centralized dual ascent.  False: γ ramps from zero (the
        literal pseudocode), which delays facility openings by roughly
        ``Con_ij / U`` extra rounds and measurably under-opens; exposed as
        an ablation (see ``tests/test_paper_shapes.py``).
    serialize_promotions:
        True (default): self-promotions to ADMIN pass through a session
        arbiter that re-validates the ADMIN condition against *live*
        supporters and admits one candidate per ``promotion_latency``
        window — emulating the backoff-based collision avoidance a real
        radio deployment needs.  False: candidates promote the instant
        their condition holds, so a whole wave can open simultaneously
        before each other's FREEZEs land (the over-opening race; kept as
        an ablation).
    promotion_latency:
        Arbitration window; must exceed the worst-case FREEZE delivery
        time (network diameter × ``hop_latency``) and stay well under
        ``tick_interval``.
    loss_rate:
        Failure injection in ``[0, 1]``: every delivery — each unicast
        control message (TIGHT, SPAN, FREEZE, NADMIN) and each leg of
        the NPI / CC / BADMIN floods — is independently dropped with this
        probability (seeded, deterministic).  The protocol must still
        terminate: clients always retain the producer fallback.  Dropped
        messages are not counted in the message statistics (they never
        arrived), so loss shows up as degraded placement quality, not
        accounting noise.
    jitter:
        Uniform per-delivery latency jitter in ``[0, jitter)`` simulated
        seconds, added on top of ``hops * hop_latency`` — engages the
        :class:`~repro.distributed.faults.FaultPlane` and lets messages
        on the same link arrive out of send order.
    churn_schedule:
        Scheduled node membership changes — a sequence of
        :class:`~repro.distributed.faults.ChurnEvent` (or ``(time, node,
        "leave"|"join")`` tuples).  Offline nodes neither send, receive,
        nor tick; the producer may never leave.  Applies to every chunk
        session (each runs the same timeline on its own simulator).
    retx_timeout:
        When positive, every delivery (floods included) is acknowledged
        and retransmitted on timeout with exponential backoff
        (``retx_timeout * 2**attempt``), up to ``max_retries`` retries;
        duplicate deliveries are suppressed by per-message sequence
        numbers.  ``0`` (default) disables retransmission.
    max_retries:
        Retry budget per message once ``retx_timeout`` is engaged.
    fault_seed:
        Seed of the fault plane's RNG; each chunk session draws from its
        own substream of it.

    When any fault knob is engaged the plane is active: the Table II
    census sanitizer check is skipped (floods are no longer
    conservation-exact), and a session that quiesces with unserved nodes
    commits them to the producer and reports them in the outcome's
    :class:`~repro.distributed.faults.FaultReport` instead of raising.
    With every fault knob at its default the plane is a provable no-op:
    placements and :class:`MessageStats` are byte-identical to a
    fault-free build (see ``docs/FAULTS.md``).
    """

    hop_limit: int = 2
    step: float = 1.0
    span_threshold: int = 3
    tick_interval: float = 1.0
    hop_latency: float = 0.001
    max_ticks: int = 1_000_000
    gamma_from_alpha: bool = True
    serialize_promotions: bool = True
    promotion_latency: float = 0.05
    span_policy: str = "all"
    loss_rate: float = 0.0
    jitter: float = 0.0
    churn_schedule: tuple = ()
    retx_timeout: float = 0.0
    max_retries: int = 3
    fault_seed: int = 0


@dataclass
class DistributedOutcome:
    """Placement plus protocol-level observables.

    ``faults`` is ``None`` when no fault knob is engaged (every chunk
    session ran an inactive fault plane); otherwise it aggregates
    the drop / retransmission / churn accounting and any nodes that
    quiesced unserved (committed to the producer fallback).
    """

    placement: CachePlacement
    stats: MessageStats
    ticks_per_chunk: List[int] = field(default_factory=list)
    sim_events: int = 0
    faults: Optional[FaultReport] = None


class ChunkSession:
    """One chunk's protocol run; the service interface nodes talk to."""

    def __init__(
        self,
        state: ProblemState,
        chunk: int,
        config: DistributedConfig,
        stats: MessageStats,
        series_base: Tuple[float, int, int, int] = (0.0, 0, 0, 0),
    ) -> None:
        self.state = state
        self.chunk = chunk
        self.config = config
        self.stats = stats
        # Telemetry-only offsets ``(sim_time, done, drops, retx)``
        # accumulated over earlier chunk sessions, so the per-tick
        # series stay monotone across the per-chunk simulator resets.
        # Never read by the protocol itself.
        self._series_base = series_base
        self.sim = Simulator()
        self.producer = state.problem.producer
        self.graph = state.problem.graph
        self.span_threshold = config.span_threshold
        self.gamma_starts_at_alpha = config.gamma_from_alpha
        self.span_policy = config.span_policy
        if self.span_policy not in ("best", "all"):
            raise SimulationError(f"unknown span_policy {self.span_policy!r}")
        self._order = {
            node: index for index, node in enumerate(self.graph.nodes())
        }
        self.nodes: Dict[Node, ProtocolNode] = {
            node: ProtocolNode(node, self)
            for node in self.graph.nodes()
            if node != self.producer
        }
        self._done: Set[Node] = set()
        # The bid clock's walks, in node order: clients still bidding, and
        # cacheable candidates that are not (yet) admins.  Pruned as nodes
        # freeze or promote.
        self._bidders: List[ProtocolNode] = list(self.nodes.values())
        self._facilities: List[ProtocolNode] = [
            proto for proto in self.nodes.values() if proto.can_cache
        ]
        self.admins: List[Node] = []
        self.ticks = 0
        self._promotion_queue: Deque[Node] = deque()
        self._promotion_pending: Set[Node] = set()
        self._arbiter_scheduled = False
        #: Nodes still unserved when a faulty session quiesced (sorted by
        #: the deterministic node order; empty without fault knobs).
        self.unserved: List[Node] = []
        # Resolved once per session: the per-message trace guard must be
        # a plain attribute read, not a context-var lookup per radio send.
        self._trace = get_tracer()
        # Same contract for the per-tick series guard.
        self._obs = get_recorder()
        # Every delivery funnels through the fault plane; with all fault
        # knobs at their defaults it is inactive, which is byte-identical
        # to scheduling on the simulator directly.
        self.faults = FaultPlane(
            sim=self.sim,
            stats=stats,
            trace=self._trace,
            chunk=chunk,
            hop_latency=config.hop_latency,
            loss_rate=config.loss_rate,
            jitter=config.jitter,
            retx_timeout=config.retx_timeout,
            max_retries=config.max_retries,
            churn=config.churn_schedule,
            seed=config.fault_seed,
        )
        self.faults.start(set(self.nodes), self.producer)

    # ------------------------------------------------------------------
    # Node-facing services
    # ------------------------------------------------------------------
    def can_cache(self, node: Node) -> bool:
        return self.state.can_cache(node)

    def fairness_cost(self, node: Node) -> float:
        return self.state.costs.fairness_cost(node)

    def is_done(self, node: Node) -> bool:
        return node in self._done

    def order_index(self, node: Node) -> int:
        """Deterministic global order of nodes (tie-breaking)."""
        return self._order[node]

    def notify_done(self, node: Node) -> None:
        self._done.add(node)

    def register_admin(self, node: Node) -> None:
        self.admins.append(node)

    def request_promotion(self, node: Node) -> None:
        """A candidate met the ADMIN condition and wants to self-promote."""
        if not self.config.serialize_promotions:
            self.nodes[node].promote()
            return
        if node in self._promotion_pending:
            return
        self._obs.count("dist.promotion_requests")
        self._promotion_pending.add(node)
        self._promotion_queue.append(node)
        if not self._arbiter_scheduled:
            self._arbiter_scheduled = True
            self.sim.schedule(self.config.promotion_latency, self._arbitrate)

    def _arbitrate(self) -> None:
        """Admit one still-valid candidate; requeue the arbiter if needed."""
        self._arbiter_scheduled = False
        while self._promotion_queue:
            node = self._promotion_queue.popleft()
            self._promotion_pending.discard(node)
            if not self.faults.is_online(node):
                continue  # churned out between request and arbitration
            proto = self.nodes[node]
            if proto.promotion_valid():
                proto.promote()
                break
        if self._promotion_queue:
            self._arbiter_scheduled = True
            self.sim.schedule(self.config.promotion_latency, self._arbitrate)

    # --- unicasts (k-hop scoped) --------------------------------------
    # A message is a call to the receiver's handler with its fields.
    def _deliver(
        self, msg_type: str, src: Node, dst: Node, handler: Callable[[], None]
    ) -> None:
        hops = self._hop(src, dst)
        if hops > self.config.hop_limit:
            return  # out of control-message range
        self.faults.unicast(msg_type, src, dst, hops, handler)

    def send_tight(self, src: Node, dst: Node, contention: float, bid: float) -> None:
        self._deliver(
            TIGHT, src, dst, partial(self.nodes[dst].on_tight, src, contention, bid)
        )

    def send_span(
        self, src: Node, dst: Node, contention: float, resource_bid: float
    ) -> None:
        self._deliver(
            SPAN, src, dst,
            partial(self.nodes[dst].on_span, src, contention, resource_bid),
        )

    def send_freeze(self, src: Node, dst: Node, server: Node) -> None:
        self._deliver(FREEZE, src, dst, partial(self.nodes[dst].on_freeze, server))

    def send_nadmin(self, src: Node, dst: Node) -> None:
        self._deliver(NADMIN, src, dst, partial(self.nodes[dst].on_nadmin, src))

    # --- floods ---------------------------------------------------------
    # Each flood names its receivers in send order and hands the fault
    # plane their hop counts and path costs, with the apply that runs
    # each receiver's ``learn_*`` update in order.
    def broadcast_badmin(self, admin: Node) -> None:
        """Network-wide admin announcement, accumulating path contention."""
        dsts = [node for node in self.nodes if node != admin]
        self._flood(BADMIN, admin, dsts, partial(self._learn_admin, admin))

    def _flood_npi(self) -> None:
        self._flood(NPI, self.producer, list(self.nodes), self._learn_producer)

    def _flood(self, msg_type: str, src: Node, dsts: List[Node],
               apply: ColumnApply, hops: Optional[List[int]] = None) -> None:
        """Flood ``dsts`` from ``src``, ``hops`` away (looked up when not
        given); their costs are one row-store slice."""
        if hops is None:
            hop_row = self._hops_from(src)
            hops = [hop_row[node] for node in dsts]
        self.faults.flood(
            msg_type, src, dsts, hops,
            self.state.costs.cost_rows([src], dsts)[0].tolist(), apply,
        )

    def _flood_cc(self, origin: Node) -> None:
        """CC flood: k-hop neighbors learn (origin, Con_origin→them)."""
        if not self.faults.is_online(origin):
            return  # a churned-out candidate cannot announce itself
        # The origin's k-hop ball, minus the producer.
        dsts, hops = self.state.costs.hop_ball(origin, self.config.hop_limit)
        if self.producer in dsts:
            at = dsts.index(self.producer)
            dsts = dsts[:at] + dsts[at + 1:]
            hops = hops[:at] + hops[at + 1:]
        self._flood(
            CC, origin, dsts, partial(self._learn_candidate, origin), hops
        )

    # Flood applies: one receiver update per item, in send order.
    def _learn_producer(self, dsts: Sequence[Node],
                        costs: Sequence[float]) -> None:
        nodes = self.nodes
        for node, cost in zip(dsts, costs):
            nodes[node].learn_producer(cost)

    def _learn_candidate(self, origin: Node, dsts: Sequence[Node],
                         costs: Sequence[float]) -> None:
        nodes = self.nodes
        for node, cost in zip(dsts, costs):
            nodes[node].learn_candidate(origin, cost)

    def _learn_admin(self, admin: Node, dsts: Sequence[Node],
                     costs: Sequence[float]) -> None:
        nodes = self.nodes
        for node, cost in zip(dsts, costs):
            nodes[node].learn_admin(admin, cost)

    # ------------------------------------------------------------------
    # Session driver
    # ------------------------------------------------------------------
    def run(self) -> ChunkPlacement:
        """Run the protocol for this chunk and commit the placement."""
        sanitize = contracts.sanitize_enabled()
        # Always-on Table II census: message totals are snapshotted per
        # session and mirrored into ``protocol.msgs.<type>`` counters at
        # the end, so the per-message radio path stays counter-free.  The
        # REPRO_SANITIZE census cross-check below additionally covers
        # transmissions and structural bounds.
        msgs_before = dict(self.stats.messages)
        census_before = (
            dict(self.stats.transmissions) if sanitize else None
        )
        with self._trace.span("chunk_session", track="protocol") as span:
            self._flood_npi()
            # After NPI propagates, cacheable candidates announce themselves.
            announce = 0.5 * self.config.tick_interval
            for proto in self._facilities:
                self.sim.schedule(announce, partial(self._flood_cc, proto.id))
            self.sim.schedule(self.config.tick_interval, self._tick)
            self.sim.run()
            if len(self._done) < len(self.nodes):
                if not self.faults.faults_active:
                    raise SimulationError(
                        f"chunk {self.chunk}: protocol ended with "
                        f"{len(self.nodes) - len(self._done)} unserved nodes"
                    )
                # Under faults an unreachable node (permanently churned
                # out, or isolated by exhausted retry budgets) is a
                # legitimate outcome: commit it against the producer — the
                # physical fallback server — and report it.
                self.unserved = sorted(
                    (n for n in self.nodes if n not in self._done),
                    key=self._order.__getitem__,
                )
            if self._trace.enabled:
                span.add(
                    chunk=self.chunk,
                    ticks=self.ticks,
                    admins=sorted(str(node) for node in self.admins),
                    nodes=len(self.nodes),
                    unserved=len(self.unserved),
                )
        if sanitize:
            contracts.check_session_cacheability(
                chunk=self.chunk,
                resolved={
                    node: proto.can_cache for node, proto in self.nodes.items()
                },
                can_cache=self.state.can_cache,
            )
        # The Table II census invariants (every node hears NPI exactly
        # once, BADMIN = admins × (N-1), ...) assume reliable floods; on
        # an active fault plane floods are lossy, so the cross-check is
        # skipped.
        if self.faults.faults_active:
            census_before = None
        if sanitize and census_before is not None:
            contracts.check_message_census(
                chunk=self.chunk,
                known_types=ALL_TYPES,
                messages_before=msgs_before,
                messages_after=dict(self.stats.messages),
                transmissions_before=census_before,
                transmissions_after=dict(self.stats.transmissions),
                num_nodes=len(self.nodes),
                num_admins=len(self.admins),
                hop_limit=self.config.hop_limit,
            )
        obs = get_recorder()
        obs.count("dist.chunk_sessions")
        obs.count("dist.ticks", self.ticks)
        obs.count("dist.admins_promoted", len(self.admins))
        # Table II census, always on (not just under REPRO_SANITIZE): one
        # counter per message type this session actually sent.
        session_total = 0
        for msg_type, count in self.stats.messages.items():
            delta = count - msgs_before.get(msg_type, 0)
            if delta:
                obs.count(f"protocol.msgs.{msg_type}", delta)
                session_total += delta
        obs.count("protocol.msgs.total", session_total)
        # Fault accounting (all zero — and unrecorded — without faults).
        if self.faults.faults_active:
            fstats = self.faults.fstats
            if fstats.total_drops():
                obs.count("protocol.drops", fstats.total_drops())
            if fstats.offline_drops:
                obs.count("protocol.drops.offline", fstats.offline_drops)
            if fstats.total_retx():
                obs.count("protocol.retx.attempts", fstats.total_retx())
            if fstats.acks:
                obs.count("protocol.retx.acks", fstats.acks)
            if fstats.ack_drops:
                obs.count("protocol.retx.ack_drops", fstats.ack_drops)
            if fstats.total_exhausted():
                obs.count("protocol.retx.exhausted", fstats.total_exhausted())
            if fstats.total_duplicates():
                obs.count("protocol.dups", fstats.total_duplicates())
            if fstats.leaves:
                obs.count("faults.churn.leaves", fstats.leaves)
            if fstats.joins:
                obs.count("faults.churn.joins", fstats.joins)
            if self.unserved:
                obs.count("protocol.unserved", len(self.unserved))
        # Per-node queue depth: how many tight clients each candidate had
        # to track (the candidate-side memory the protocol costs a node).
        for proto in self.nodes.values():
            obs.gauge("dist.node_tight_queue", len(proto.tights))
        assignment = {
            node_id: (proto.target if proto.target is not None else self.producer)
            for node_id, proto in self.nodes.items()
        }
        return commit_chunk(
            self.state, self.chunk, self.admins, assignment=assignment
        )

    def _tick(self) -> None:
        self.ticks += 1
        if self.ticks > self.config.max_ticks:
            raise SimulationError("distributed protocol exceeded max_ticks")
        faulty = self.faults.faults_active
        step = self.config.step
        # A frozen client or an admin never bids again.
        self._bidders = [p for p in self._bidders if p.state == ACTIVE]
        for proto in self._bidders:
            if faulty and not self.faults.is_online(proto.id):
                continue  # churned-out nodes pause their state machine
            proto.client_tick(step)
        # With M >= 1 a candidate without a tight record has no payment to
        # grow and cannot meet the ADMIN condition, so its tick is a no-op.
        self._facilities = [p for p in self._facilities if not p.is_admin]
        needs_tight = self.span_threshold >= 1
        for proto in self._facilities:
            if needs_tight and not proto.tights:
                continue
            if faulty and not self.faults.is_online(proto.id):
                continue
            proto.candidate_tick(step)
        if self._trace.enabled:
            self._trace.instant(
                "dist.tick",
                track="protocol",
                args={
                    "tick": self.ticks,
                    "chunk": self.chunk,
                    "done": len(self._done),
                    "nodes": len(self.nodes),
                    "admins": len(self.admins),
                    "sim_time": self.sim.now,
                },
            )
        # Per-tick convergence / health series on the simulator clock.
        # ``self.stats`` and ``self.faults.fstats`` are live during the
        # session, so the cumulative counter-kind points yield windowed
        # message / drop / retx rates; ``protocol.online_nodes`` is the
        # live census under churn.  One attribute read when off.
        if self._obs.series_enabled:
            t0, done0, drops0, retx0 = self._series_base
            now = t0 + self.sim.now
            obs = self._obs
            obs.series_point(
                "protocol.done", now, done0 + len(self._done), kind="counter"
            )
            obs.series_point(
                "protocol.messages",
                now,
                self.stats.total_messages(),
                kind="counter",
            )
            # Named apart from the ``protocol.drops`` / ``protocol.retx.*``
            # counters mirrored at session end, so mark snapshots of
            # those stale totals never interleave with these live values.
            fstats = self.faults.fstats
            obs.series_point(
                "protocol.dropped",
                now,
                drops0 + fstats.total_drops(),
                kind="counter",
            )
            obs.series_point(
                "protocol.retransmits",
                now,
                retx0 + fstats.total_retx(),
                kind="counter",
            )
            online = (
                sum(1 for n in self.nodes if self.faults.is_online(n))
                if faulty
                else len(self.nodes)
            )
            obs.series_point("protocol.online_nodes", now, online)
            obs.series_mark(now)
        if len(self._done) < len(self.nodes):
            if not faulty:
                self.sim.schedule(self.config.tick_interval, self._tick)
            elif self.sim.pending > 0 or self._progress_possible():
                # Keep the clock alive while deliveries / acks / retx
                # timers / churn events are in flight or some online node
                # can still make headway.  When both run dry the session
                # is stalled — stop ticking so the simulator quiesces and
                # ``run()`` reports the partial placement.
                self.sim.schedule(self.config.tick_interval, self._tick)

    def close(self) -> None:
        """Drop the node → session links once the session's results are
        read, so the session and its nodes are freed by reference
        counting alone instead of waiting for a cyclic collection."""
        for proto in self.nodes.values():
            proto.session = None

    def _progress_possible(self) -> bool:
        """Can any online, still-bidding or promotable node make progress?"""
        return any(
            self.faults.is_online(node_id) and proto.progress_possible()
            for node_id, proto in self.nodes.items()
        )

    # ------------------------------------------------------------------
    def _hops_from(self, source: Node) -> Dict[Node, int]:
        """Hop counts from ``source`` (scoped delivery + latency), cached
        per problem by the cost model."""
        return self.state.costs.hop_counts(source)

    def _hop(self, src: Node, dst: Node) -> int:
        return self._hops_from(src)[dst]


def solve_distributed(
    problem: CachingProblem, config: Optional[DistributedConfig] = None
) -> DistributedOutcome:
    """Run the distributed algorithm for every chunk of ``problem``."""
    config = config or DistributedConfig()
    if config.hop_limit < 1:
        raise SimulationError("hop_limit must be at least 1")
    for name in ("step", "tick_interval"):
        value = getattr(config, name)
        if not 0 < value < math.inf:
            raise SimulationError(
                f"{name} must be finite and positive, got {value}"
            )
    for name in ("hop_latency", "promotion_latency"):
        value = getattr(config, name)
        if not 0 <= value < math.inf:
            raise SimulationError(
                f"{name} must be finite and non-negative, got {value}"
            )
    state = problem.new_state()
    stats = MessageStats()
    placements: List[ChunkPlacement] = []
    ticks: List[int] = []
    events = 0
    fault_report: Optional[FaultReport] = None
    obs = get_recorder()
    series_base = (0.0, 0, 0, 0)
    with obs.timer("solve_distributed"):
        for chunk in problem.chunks:
            session = ChunkSession(
                state, chunk, config, stats, series_base=series_base
            )
            with obs.timer("chunk_session"):
                placements.append(session.run())
            series_base = (
                series_base[0] + session.sim.now,
                series_base[1] + len(session._done),
                series_base[2] + session.faults.fstats.total_drops(),
                series_base[3] + session.faults.fstats.total_retx(),
            )
            ticks.append(session.ticks)
            events += session.sim.events_processed
            if session.faults.faults_active:
                if fault_report is None:
                    fault_report = FaultReport()
                fault_report.stats.merge(session.faults.fstats)
                if session.unserved:
                    fault_report.unserved[chunk] = list(session.unserved)
            session.close()
    # Mirror the Table II message census into the recorder (totals over
    # all chunks; recorded once at the end so the radio path stays cheap).
    for msg_type, count in stats.messages.items():
        obs.count(f"dist.messages.{msg_type}", count)
        obs.count(f"dist.transmissions.{msg_type}", stats.transmissions[msg_type])
    obs.count("dist.messages.total", stats.total_messages())
    obs.count("dist.transmissions.total", stats.total_transmissions())
    placement = CachePlacement(
        problem=problem, chunks=placements, algorithm=ALGORITHM_NAME
    )
    return DistributedOutcome(
        placement=placement,
        stats=stats,
        ticks_per_chunk=ticks,
        sim_events=events,
        faults=fault_report,
    )
