"""Fault injection for Algorithm 2: the radio between nodes and simulator.

The Table II protocol was grown on a reliable, in-order, churn-free
simulator.  A pervasive-edge radio environment offers none of that, so
this module interposes a :class:`FaultPlane` between the protocol
(:mod:`repro.distributed.protocol`) and the discrete-event
:class:`~repro.distributed.simulator.Simulator`.  Every control-message
delivery — unicasts *and* the per-destination legs of the NPI / CC /
BADMIN floods — funnels through the plane, which, once a fault knob is
set, can:

* **drop** it: per-link Bernoulli loss with probability ``loss_rate``
  (seeded, deterministic);
* **reorder** it: a uniform latency jitter in ``[0, jitter)`` is added to
  the hop latency, so two messages on the same link may arrive out of
  send order;
* **never start it**: nodes leave and join the network on a scheduled
  ``churn_schedule``; an offline node neither transmits nor receives, and
  its per-tick state machine is paused by the session;
* **retry it**: when ``retx_timeout > 0`` every delivery is acknowledged
  by the receiver; an unacknowledged message is retransmitted with
  exponential backoff (``retx_timeout * 2**attempt``) up to
  ``max_retries`` times before the sender gives up.  The plane numbers
  each delivery it sends (one per unicast, one per flood leg) the first
  time it goes out, retransmissions reuse that number, and receivers
  suppress duplicates through a per-node seen-set, so the node state
  machines observe each logical message at most once.  Only the
  numbers' uniqueness within a session matters: nothing else reads
  them.

Inactive and active planes
--------------------------
With every fault knob at its default the plane is inactive, so the
fault machinery is provably absent when unused.  A unicast reduces to
exactly the pre-fault code path — record the stats, trace,
``sim.schedule(hops * hop_latency, handler)`` — consuming no randomness
and scheduling no extra events.  A flood is delivered per hop ring (see
below).  Placements, :class:`MessageStats`, ``sim_events`` and the
protocol trace are byte-identical to a build without this module
(tested against golden snapshots in ``tests/test_faults.py`` and
``tests/test_dist_golden.py``).

Any non-default knob — ``loss_rate`` alone included — makes the plane
active (``faults_active``): every delivery, flood legs included, is
subject to loss, jitter, churn and, when enabled, acknowledged
retransmission.  ``loss_rate`` may be anything in ``[0, 1]``; at ``1.0``
nothing arrives, and the session terminates with a partial-placement
report instead of hanging.

Floods are delivered per hop ring
---------------------------------
A flood names its receivers, their hop counts and the value each one
learns (a path cost), in send order, plus the ``apply(receivers,
values)`` that runs each receiver's update.  On an inactive plane
:meth:`FaultPlane.flood` records the census once, traces each leg at
send time, and hands the simulator one column entry of ``(receivers,
values)`` per arrival time — one per hop ring, since arrival is ``now +
hops * hop_latency``.  The column's apply runs each receiver's update
in send order.  Per-leg events would take consecutive sequence
numbers, so the legs with one arrival time would fire back to back in
send order; a column applies them in that same order, so the no-op
contract holds.  Rings are keyed by arrival time, not hop count, so
that with ``hop_latency = 0`` every leg still lands in send order.  Each item of a column counts as one
simulator event, so ``sim_events`` and ``sim.max_queue_depth`` count
legs.  An active plane keeps one delivery and one event per leg,
because loss, jitter and retransmission act per leg; a leg's handler is
``apply`` over that one receiver and value.

Fault accounting lives in :class:`FaultStats` (mirrored into
``protocol.drops`` / ``protocol.retx.*`` / ``faults.churn.*`` recorder
counters at session end) — never in :class:`MessageStats`, whose Table II
census counts only messages the protocol actually delivered.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple,
)

from repro.errors import SimulationError
from repro.distributed.messages import MessageStats
from repro.distributed.simulator import ColumnApply, EventHandle, Simulator
from repro.obs import get_recorder

Node = Hashable
Handler = Callable[[], None]

LEAVE = "leave"
JOIN = "join"


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership change: ``node`` leaves or joins at
    ``time`` (simulation seconds).  The producer may never leave — it is
    the data source and the protocol's termination anchor."""

    time: float
    node: Node
    kind: str  # LEAVE | JOIN

    def validate(self) -> None:
        if self.kind not in (LEAVE, JOIN):
            raise SimulationError(
                f"churn event kind must be {LEAVE!r} or {JOIN!r}, "
                f"got {self.kind!r}"
            )
        if not math.isfinite(self.time):
            raise SimulationError(
                f"churn event time must be finite, got {self.time}"
            )
        if self.time < 0:
            raise SimulationError(
                f"churn event time must be >= 0, got {self.time}"
            )


def normalize_churn(schedule: Sequence) -> List[ChurnEvent]:
    """Accept ``ChurnEvent`` instances or ``(time, node, kind)`` tuples."""
    events: List[ChurnEvent] = []
    for entry in schedule:
        if isinstance(entry, ChurnEvent):
            event = entry
        else:
            try:
                time, node, kind = entry
            except (TypeError, ValueError):
                raise SimulationError(
                    "churn_schedule entries must be ChurnEvent or "
                    f"(time, node, kind) tuples, got {entry!r}"
                )
            event = ChurnEvent(time=float(time), node=node, kind=str(kind))
        event.validate()
        events.append(event)
    return events


@dataclass
class FaultStats:
    """Per-session fault accounting (kept apart from the Table II census).

    ``drops`` counts radio losses by message type; ``offline_drops``
    counts deliveries that found an endpoint churned out; ``retx`` counts
    retransmission attempts; ``acks`` / ``ack_drops`` the transport
    acknowledgements; ``duplicates`` deliveries suppressed by the
    receiver's sequence-number filter; ``exhausted`` messages whose retry
    budget ran out.
    """

    drops: Dict[str, int] = field(default_factory=dict)
    retx: Dict[str, int] = field(default_factory=dict)
    duplicates: Dict[str, int] = field(default_factory=dict)
    exhausted: Dict[str, int] = field(default_factory=dict)
    offline_drops: int = 0
    acks: int = 0
    ack_drops: int = 0
    leaves: int = 0
    joins: int = 0

    def total_drops(self) -> int:
        return sum(self.drops.values())

    def total_retx(self) -> int:
        return sum(self.retx.values())

    def total_duplicates(self) -> int:
        return sum(self.duplicates.values())

    def total_exhausted(self) -> int:
        return sum(self.exhausted.values())

    def merge(self, other: "FaultStats") -> None:
        for mine, theirs in (
            (self.drops, other.drops),
            (self.retx, other.retx),
            (self.duplicates, other.duplicates),
            (self.exhausted, other.exhausted),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        self.offline_drops += other.offline_drops
        self.acks += other.acks
        self.ack_drops += other.ack_drops
        self.leaves += other.leaves
        self.joins += other.joins


@dataclass
class FaultReport:
    """Run-level fault outcome attached to a ``DistributedOutcome``."""

    stats: FaultStats = field(default_factory=FaultStats)
    #: chunk -> nodes left unserved when the session quiesced (each is
    #: committed against the producer, the physical fallback server).
    unserved: Dict[int, List[Node]] = field(default_factory=dict)

    @property
    def total_unserved(self) -> int:
        return sum(len(nodes) for nodes in self.unserved.values())

    @property
    def converged(self) -> bool:
        """True when every node of every chunk session was served."""
        return self.total_unserved == 0


class _Pending:
    """Sender-side record of one in-flight (possibly retried) message.

    ``seq`` is the plane's next sequence number, taken at the first
    attempt; retransmissions keep it."""

    __slots__ = (
        "seq", "msg_type", "src", "dst", "hops", "handler",
        "attempt", "acked", "timer",
    )

    def __init__(
        self,
        msg_type: str,
        src: Node,
        dst: Node,
        hops: int,
        handler: Handler,
    ) -> None:
        self.seq = -1
        self.msg_type = msg_type
        self.src = src
        self.dst = dst
        self.hops = hops
        self.handler = handler
        self.attempt = 0
        self.acked = False
        self.timer: Optional[EventHandle] = None


class FaultPlane:
    """The (possibly unreliable) radio between protocol nodes.

    Parameters
    ----------
    sim:
        The session's discrete-event simulator.
    stats:
        The session's Table II :class:`MessageStats`; only *delivered,
        non-duplicate* messages are recorded there.
    trace:
        The resolved tracer (``repro.obs`` Tracer or NullTracer).
    chunk:
        Session chunk id (trace labelling + RNG substream derivation).
    hop_latency:
        Per-hop radio latency (seconds of simulated time).
    loss_rate / jitter / retx_timeout / max_retries / churn / seed:
        The fault knobs; see the module docstring.  ``seed`` feeds
        ``random.Random(seed * 1_000_003 + chunk)`` so every chunk
        session owns an independent, reproducible substream.
    """

    def __init__(
        self,
        *,
        sim: Simulator,
        stats: MessageStats,
        trace,
        chunk: int,
        hop_latency: float,
        loss_rate: float = 0.0,
        jitter: float = 0.0,
        retx_timeout: float = 0.0,
        max_retries: int = 3,
        churn: Sequence = (),
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.stats = stats
        self.fstats = FaultStats()
        self.chunk = chunk
        self.hop_latency = hop_latency
        self.loss_rate = loss_rate
        self.jitter = jitter
        self.retx_timeout = retx_timeout
        self.max_retries = max_retries
        self.churn_events = normalize_churn(churn)
        self._trace = trace
        for name, value in (
            ("loss_rate", loss_rate),
            ("jitter", jitter),
            ("retx_timeout", retx_timeout),
        ):
            if not math.isfinite(value):
                raise SimulationError(f"{name} must be finite, got {value}")
        if not 0.0 <= loss_rate <= 1.0:
            raise SimulationError(
                f"loss_rate must be in [0, 1], got {loss_rate}"
            )
        if jitter < 0:
            raise SimulationError(f"jitter must be >= 0, got {jitter}")
        if retx_timeout < 0:
            raise SimulationError(
                f"retx_timeout must be >= 0, got {retx_timeout}"
            )
        if max_retries < 0:
            raise SimulationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        #: True when any knob is off its default: the session must then
        #: expect drops, churn and duplicates.
        self.faults_active = bool(
            loss_rate > 0 or jitter > 0 or retx_timeout > 0
            or self.churn_events
        )
        # The RNG exists only when it can be consumed.
        self._rng = (
            random.Random(seed * 1_000_003 + chunk)
            if self.faults_active
            else None
        )
        self._seqs = itertools.count()
        self._offline: Set[Node] = set()
        self._pending_joins: Dict[Node, int] = {}
        self._outstanding: Dict[int, _Pending] = {}
        self._seen: Dict[Node, Set[int]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Unacknowledged messages still holding a retransmission claim."""
        return len(self._outstanding)

    def is_online(self, node: Node) -> bool:
        return node not in self._offline

    def has_pending_join(self, node: Node) -> bool:
        """True while a scheduled JOIN for ``node`` has not fired yet."""
        return self._pending_joins.get(node, 0) > 0

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def start(self, known_nodes: Set[Node], producer: Node) -> None:
        """Validate and schedule the churn timeline onto the simulator."""
        for event in self.churn_events:
            if event.node == producer:
                raise SimulationError(
                    "the producer cannot churn out: it is the data source "
                    f"(event at t={event.time})"
                )
            if event.node not in known_nodes:
                raise SimulationError(
                    f"churn event names unknown node {event.node!r}"
                )
            if event.kind == JOIN:
                self._pending_joins[event.node] = (
                    self._pending_joins.get(event.node, 0) + 1
                )
            self.sim.schedule_at(
                event.time, (lambda e=event: self._apply_churn(e))
            )

    def _apply_churn(self, event: ChurnEvent) -> None:
        if event.kind == LEAVE:
            self._offline.add(event.node)
            self.fstats.leaves += 1
        else:
            self._offline.discard(event.node)
            self._pending_joins[event.node] -= 1
            self.fstats.joins += 1
        if self._trace.enabled:
            self._trace.instant(
                f"fault.churn.{event.kind}",
                track="faults",
                args={
                    "node": str(event.node),
                    "chunk": self.chunk,
                    "sim_time": self.sim.now,
                },
            )
        # Churn events are rare (scheduled timeline, not per-message),
        # so the context-var lookup here is off the hot path.  The
        # series records the offline census at each step edge; the
        # per-tick ``protocol.online_nodes`` samples fill in between.
        obs = get_recorder()
        if obs.series_enabled:
            obs.series_point(
                "faults.offline_nodes", self.sim.now, len(self._offline)
            )

    # ------------------------------------------------------------------
    # Send paths
    # ------------------------------------------------------------------
    def unicast(
        self, msg_type: str, src: Node, dst: Node, hops: int,
        handler: Handler,
    ) -> None:
        """One k-hop-scoped control message (TIGHT/SPAN/FREEZE/NADMIN)."""
        if self.faults_active:
            self._send(_Pending(msg_type, src, dst, hops, handler))
            return
        self.stats.record(msg_type, hops)
        if self._trace.enabled:
            self._trace_msg(msg_type, src, dst, hops)
        self.sim.schedule(hops * self.hop_latency, handler)

    def flood(
        self,
        msg_type: str,
        src: Node,
        dsts: Sequence[Node],
        hops: Sequence[int],
        values: Sequence[Any],
        apply: ColumnApply,
    ) -> None:
        """One NPI / CC / BADMIN flood: ``dsts[i]``, ``hops[i]`` away,
        learns ``values[i]``; the lists are in send order.

        On an active plane every leg is another lossy, retriable delivery
        whose handler is ``apply((dst,), (value,))`` — re-flooding is
        idempotent because receivers suppress duplicate sequence numbers
        and every flood update is monotone.  On an inactive plane each
        hop ring arrives as one column entry ``apply(receivers,
        values)``; see the module docstring.
        """
        if self.faults_active:
            for dst, h, value in zip(dsts, hops, values):
                self._send(_Pending(
                    msg_type, src, dst, h, partial(apply, (dst,), (value,))
                ))
            return
        if self._trace.enabled:
            for dst, h in zip(dsts, hops):
                self._trace_msg(msg_type, src, dst, h)
        # Every hop counts one transmission, and a 0-hop leg counts one.
        self.stats.record_many(
            msg_type, len(dsts), sum(hops) + hops.count(0)
        )
        now = self.sim.now
        hop_latency = self.hop_latency
        # Arrival time -> (delay, receivers, values), each in send order;
        # ``by_hops`` finds a leg's ring without recomputing its arrival.
        rings: Dict[float, Tuple[float, List[Node], List[Any]]] = {}
        by_hops: Dict[int, Tuple[float, List[Node], List[Any]]] = {}
        for dst, h, value in zip(dsts, hops, values):
            ring = by_hops.get(h)
            if ring is None:
                delay = h * hop_latency
                ring = rings.get(now + delay)
                if ring is None:
                    ring = rings[now + delay] = (delay, [], [])
                by_hops[h] = ring
            ring[1].append(dst)
            ring[2].append(value)
        schedule = self.sim.schedule_column
        for delay, receivers, ring_values in rings.values():
            schedule(delay, apply, receivers, ring_values)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _latency(self, hops: int) -> float:
        delay = hops * self.hop_latency
        if self.jitter > 0:
            delay += self._rng.random() * self.jitter
        return delay

    def _send(self, rec: _Pending) -> None:
        """Attempt (or re-attempt) one delivery on an active plane."""
        retriable = self.retx_timeout > 0
        if rec.attempt == 0:
            rec.seq = next(self._seqs)
        else:
            self.fstats.retx[rec.msg_type] = (
                self.fstats.retx.get(rec.msg_type, 0) + 1
            )
            if self._trace.enabled:
                self._trace.instant(
                    "fault.retx",
                    track="faults",
                    args={
                        "type": rec.msg_type,
                        "src": str(rec.src),
                        "dst": str(rec.dst),
                        "attempt": rec.attempt,
                        "chunk": self.chunk,
                        "sim_time": self.sim.now,
                    },
                )
        if rec.src in self._offline:
            # A churned-out sender cannot key the radio at all; the
            # attempt is spent (its backoff timer still runs), so a
            # permanent leaver drains its budget and goes quiet.
            self.fstats.offline_drops += 1
        elif self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self._count_drop(rec.msg_type, rec.src, rec.dst)
        else:
            self.sim.schedule(
                self._latency(rec.hops), (lambda r=rec: self._arrive(r))
            )
        if retriable:
            if rec.attempt == 0:
                self._outstanding[rec.seq] = rec
            backoff = self.retx_timeout * (2.0 ** rec.attempt)
            rec.timer = self.sim.schedule(
                backoff, (lambda r=rec: self._on_timeout(r))
            )
        # retx_timeout == 0: a drop is final.

    def _arrive(self, rec: _Pending) -> None:
        if rec.dst in self._offline:
            self.fstats.offline_drops += 1
            return  # no ack: the sender's backoff may retry post-rejoin
        seen = self._seen.setdefault(rec.dst, set())
        if rec.seq in seen:
            self.fstats.duplicates[rec.msg_type] = (
                self.fstats.duplicates.get(rec.msg_type, 0) + 1
            )
        else:
            seen.add(rec.seq)
            self.stats.record(rec.msg_type, rec.hops)
            if self._trace.enabled:
                self._trace_msg(rec.msg_type, rec.src, rec.dst, rec.hops)
            rec.handler()
        # Duplicates re-acknowledge: the first ack may have been the
        # casualty, and an un-acked sender retransmits forever (well,
        # until its budget runs out).
        if self.retx_timeout > 0:
            if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
                self.fstats.ack_drops += 1
                return
            self.sim.schedule(
                self._latency(rec.hops), (lambda r=rec: self._on_ack(r))
            )

    def _on_ack(self, rec: _Pending) -> None:
        if rec.src in self._offline or rec.acked:
            return
        rec.acked = True
        self.fstats.acks += 1
        if rec.timer is not None:
            rec.timer.cancel()
            rec.timer = None
        self._outstanding.pop(rec.seq, None)

    def _on_timeout(self, rec: _Pending) -> None:
        # The fired timer's event holds this record, so keeping the
        # handle would make a cycle through the message's handler.
        rec.timer = None
        if rec.acked:
            return
        if rec.attempt >= self.max_retries:
            self.fstats.exhausted[rec.msg_type] = (
                self.fstats.exhausted.get(rec.msg_type, 0) + 1
            )
            self._outstanding.pop(rec.seq, None)
            return
        rec.attempt += 1
        self._send(rec)

    def _count_drop(self, msg_type: str, src: Node, dst: Node) -> None:
        self.fstats.drops[msg_type] = self.fstats.drops.get(msg_type, 0) + 1
        if self._trace.enabled:
            self._trace.instant(
                "fault.drop",
                track="faults",
                args={
                    "type": msg_type,
                    "src": str(src),
                    "dst": str(dst),
                    "chunk": self.chunk,
                    "sim_time": self.sim.now,
                },
            )

    def _trace_msg(self, msg_type: str, src: Node, dst: Node, hops: int) -> None:
        """One ``msg.<TYPE>`` instant per delivered Table II message."""
        self._trace.instant(
            f"msg.{msg_type}",
            track="protocol",
            args={
                "src": str(src),
                "dst": str(dst),
                "hops": hops,
                "chunk": self.chunk,
                "sim_time": self.sim.now,
            },
        )

    # ------------------------------------------------------------------
    # Termination support
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """No in-flight retransmission claims remain."""
        return not self._outstanding
