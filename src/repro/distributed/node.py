"""Per-node state machine of the distributed algorithm (Algorithm 2).

Each network node runs this machine once per chunk.  It plays two roles at
once:

* **client** — raises its bid ``α_j`` every tick; sends TIGHT when the bid
  covers the contention cost to a candidate it learned through CC; then
  raises the relay bid ``γ`` and sends SPAN; freezes onto the first open
  server it can afford (producer, NADMIN/BADMIN announcers, or a FREEZE
  instruction).
* **candidate facility** — collects TIGHT/SPAN requests, tracks the
  resource payments ``β`` of its tight clients (payments keep growing with
  the global bid clock, so no per-tick messages are needed), and promotes
  itself to ADMIN once it has ≥ M SPAN supporters *and* the payments cover
  its Fairness Degree Cost ``f_i``.  On promotion it NADMINs its tight
  set, broadcasts BADMIN, and proactively requests the chunk from the
  producer.

Deviations from the paper's pseudocode, chosen for determinism and clean
accounting (see DESIGN.md §4):

* INACTIVE (storage-full) nodes ignore TIGHT/SPAN instead of forwarding
  FREEZE pointers; termination is still guaranteed because the producer is
  always an affordable fallback server.
* A node that receives NADMIN forwards FREEZE(admin) to the clients tight
  with it — this is the backup-pointer mechanism (``B[·]`` of Algorithm 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Hashable, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.distributed.messages import (
    BAdminMessage,
    CcMessage,
    FreezeMessage,
    NAdminMessage,
    NpiMessage,
    SpanMessage,
    TightMessage,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.protocol import ChunkSession

Node = Hashable

ACTIVE = "ACTIVE"
FROZEN = "FROZEN"
ADMIN = "ADMIN"


@dataclass
class _TightRecord:
    """Candidate-side view of one tight client."""

    contention: float
    payment: float
    spanned: bool = False


class ProtocolNode:
    """State machine for one node and one chunk."""

    def __init__(self, node_id: Node, session: "ChunkSession") -> None:
        self.id = node_id
        self.session = session
        # --- client-side state ---
        self.state = ACTIVE
        self.alpha = 0.0
        self.target: Optional[Node] = None
        self.producer_cost = math.inf
        self.candidates: Dict[Node, float] = {}  # origin -> Con_ij (k-hop)
        self.open_servers: Dict[Node, float] = {}  # known admins -> cost
        self.tight_sent: Set[Node] = set()
        # The first-inserted cheapest open server, kept as servers are
        # learned (the bid clock's freeze check reads it every tick).
        self._open_best: Optional[Node] = None
        self._open_cost = math.inf
        # Candidates not yet TIGHTed, as a heap of (cost, insertion index,
        # origin); a lowered cost pushes a new entry and leaves the old
        # one stale.  ``_candidate_index`` is each origin's position in
        # ``candidates``, which is the order TIGHTs due together go out.
        self._tight_queue: List[Tuple[float, int, Node]] = []
        self._candidate_index: Dict[Node, int] = {}
        self.gamma: Dict[Node, float] = {}
        self.span_sent: Set[Node] = set()
        # --- candidate-side state ---
        self.tights: Dict[Node, _TightRecord] = {}
        self.is_admin = False
        #: False for storage-full nodes (INACTIVE role).  Resolved once
        #: per session: storage changes only when the session commits,
        #: after its protocol run.
        self.can_cache = session.can_cache(node_id)

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    @property
    def fairness_cost(self) -> float:
        return self.session.fairness_cost(self.id)

    @property
    def done(self) -> bool:
        """True once this node no longer bids (frozen or admin)."""
        return self.state != ACTIVE

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def on_npi(self, msg: NpiMessage) -> None:
        """One NPI delivery (FULL fault mode's per-leg path)."""
        self.learn_producer(msg.cost_from_producer)

    def learn_producer(self, cost: float) -> None:
        """Learn the new chunk and the contention cost to the producer.

        Unlike the centralized dual ascent (where ``c_ii = 0`` makes every
        node tight with itself), ADMIN promotion here counts only SPAN
        *requests received* — Algorithm 2's "a node that has received
        enough SPAN requests will make itself an ADMIN" — so there is no
        self-support.  This is what makes the hop limit ``k`` bite: a
        candidate must gather ``M`` distinct supporters from within ``k``
        hops (Fig. 3).
        """
        self.producer_cost = cost

    def on_cc(self, msg: CcMessage) -> None:
        """One CC delivery (FULL fault mode's per-leg path)."""
        self.learn_candidate(msg.origin, msg.accumulated_cost)

    def learn_candidate(self, origin: Node, cost: float) -> None:
        """Record a candidate and the measured contention cost to it."""
        if origin == self.id:
            return
        previous = self.candidates.get(origin)
        if previous is None:
            index = self._candidate_index[origin] = len(self.candidates)
        elif cost < previous:
            index = self._candidate_index[origin]
        else:
            return
        self.candidates[origin] = cost
        heappush(self._tight_queue, (cost, index, origin))

    def on_tight(self, msg: TightMessage) -> None:
        """A client's bid covered the cost of reaching us."""
        if self.is_admin:
            self.session.send_freeze(self.id, msg.sender, server=self.id)
            return
        if not self.can_cache:
            return  # INACTIVE for the facility role
        record = self.tights.get(msg.sender)
        if record is None:
            self.tights[msg.sender] = _TightRecord(
                contention=msg.contention,
                payment=max(0.0, msg.bid - msg.contention),
            )

    def on_span(self, msg: SpanMessage) -> None:
        """A client asks us to fetch the chunk on its behalf."""
        if self.is_admin:
            self.session.send_freeze(self.id, msg.sender, server=self.id)
            return
        if not self.can_cache:
            return
        record = self.tights.get(msg.sender)
        if record is None:
            record = _TightRecord(
                contention=msg.contention, payment=msg.resource_bid
            )
            self.tights[msg.sender] = record
        record.spanned = True
        record.payment = max(record.payment, msg.resource_bid)
        self._maybe_become_admin()

    def on_freeze(self, msg: FreezeMessage) -> None:
        """Instructed to connect to ``msg.server`` and stop bidding."""
        if self.state == ACTIVE:
            self._freeze(msg.server)

    def on_nadmin(self, msg: NAdminMessage) -> None:
        """A candidate we were tight with opened; connect and relay."""
        admin = msg.sender
        cost = self.candidates.get(admin, self.producer_cost)
        # An overwrite can raise the cost of the cheapest server.
        self.open_servers[admin] = cost
        self._find_open_best()
        if self.state == ACTIVE:
            self._freeze(admin)
        # Backup pointers (Algorithm 1 lines 40-41): clients tight with us
        # can reach the chunk through us → tell them where it lives.
        for client in list(self.tights):
            if client != self.id:
                self.session.send_freeze(self.id, client, server=admin)

    def on_badmin(self, msg: BAdminMessage) -> None:
        """One BADMIN delivery (FULL fault mode's per-leg path)."""
        self.learn_admin(msg.sender, msg.cost_from_admin)

    def learn_admin(self, admin: Node, cost: float) -> None:
        """Network-wide admin announcement with estimated cost."""
        servers = self.open_servers
        previous = servers.get(admin)
        if previous is None:
            servers[admin] = cost
            # Inserted last, so it takes the lead only strictly cheaper.
            if cost < self._open_cost:
                self._open_best = admin
                self._open_cost = cost
        elif cost < previous:
            servers[admin] = cost
            self._find_open_best()
        if self.state == ACTIVE and self.alpha >= cost:
            self._freeze(admin)

    def _find_open_best(self) -> None:
        """Rescan ``open_servers`` for the first-inserted cheapest one."""
        best: Optional[Node] = None
        best_cost = math.inf
        for server, cost in self.open_servers.items():
            if cost < best_cost:
                best = server
                best_cost = cost
        self._open_best = best
        self._open_cost = best_cost

    # ------------------------------------------------------------------
    # Bid clock
    # ------------------------------------------------------------------
    def client_tick(self, step: float) -> None:
        """One bidding round of the client role (Algorithm 2's while loop)."""
        if self.state != ACTIVE:
            return
        self.alpha += step
        alpha = self.alpha

        # Freeze to the cheapest affordable open server (producer always
        # counts as open — it inherently has the data, and wins ties).
        # When the cheapest open server is affordable it is also the
        # cheapest affordable one, first-inserted among equals.
        best_server: Optional[Node] = None
        best_cost = math.inf
        if alpha >= self.producer_cost:
            best_server = self.session.producer
            best_cost = self.producer_cost
        if self._open_cost <= alpha and self._open_cost < best_cost:
            best_server = self._open_best
        if best_server is not None:
            self._freeze(best_server)
            return

        # TIGHT any newly affordable candidates, in insertion order, then
        # grow relay bids.
        queue = self._tight_queue
        if queue and queue[0][0] <= alpha:
            due = []
            while queue and queue[0][0] <= alpha:
                cost, index, origin = heappop(queue)
                if origin not in self.tight_sent and (
                    self.candidates[origin] == cost
                ):
                    due.append((index, origin, cost))
            due.sort()
            for _, origin, cost in due:
                self.tight_sent.add(origin)
                self.gamma[origin] = (
                    alpha if self.session.gamma_starts_at_alpha else 0.0
                )
                self.session.send_tight(
                    self.id, origin, contention=cost, bid=alpha
                )
        # SPAN policy: "best" concentrates relay requests on the client's
        # cheapest tight candidate (the "popular candidates volunteer"
        # behavior of the abstract); "all" spans every tight candidate.
        span_all = self.session.span_policy == "all"
        best_origin = None
        if not span_all and self.gamma:
            best_origin = min(
                (o for o in self.gamma),
                key=lambda o: (self.candidates[o], self.session.order_index(o)),
            )
        for origin in list(self.gamma):
            if origin in self.span_sent:
                continue
            self.gamma[origin] += step
            if not span_all and origin != best_origin:
                continue
            if self.gamma[origin] >= self.candidates[origin]:
                self.span_sent.add(origin)
                self.session.send_span(
                    self.id,
                    origin,
                    contention=self.candidates[origin],
                    resource_bid=max(
                        0.0, self.alpha - self.candidates[origin]
                    ),
                )

    def candidate_tick(self, step: float) -> None:
        """Grow tight clients' payments in lockstep with the bid clock."""
        if self.is_admin or not self.can_cache:
            return
        # β_j stops growing when client j freezes ("Stop increasing α, β,
        # γ"); until then it tracks the shared bid clock.
        for client, record in self.tights.items():
            if not self.session.is_done(client):
                record.payment += step
        self._maybe_become_admin()

    def progress_possible(self) -> bool:
        """Can this node still change protocol state by ticking alone?

        The fault-mode stall detector (``ChunkSession._tick``) stops the
        bid clock when the simulator has drained and no online node can
        make headway without a message it will never receive.  Progress
        means one of:

        * the client can still freeze — it knows a finite escape cost
          (producer or an announced open server), which a growing ``α``
          is guaranteed to cover;
        * the client still owes a TIGHT or SPAN send — candidate costs
          are finite, so the bid clock will eventually trigger it (the
          sent-sets grow monotonically, so this cannot recur forever);
        * the candidate role can still promote — with ≥ M live SPAN
          supporters its payments grow every tick until they cover
          ``f_i`` (or supporters freeze and the condition lapses).

        A node with none of these is inert: ticking it only inflates
        ``α`` with no observable effect.
        """
        if self.state == ACTIVE:
            if self.producer_cost < math.inf:
                return True
            if self._open_cost < math.inf:
                return True
            if len(self.tight_sent) < len(self.candidates):
                return True
            if self.session.span_policy == "all":
                if any(origin not in self.span_sent for origin in self.gamma):
                    return True
            elif self.gamma:
                best = min(
                    (o for o in self.gamma),
                    key=lambda o: (
                        self.candidates[o], self.session.order_index(o)
                    ),
                )
                if best not in self.span_sent:
                    return True
        if self.can_cache and not self.is_admin:
            live_spans = sum(
                1
                for client, record in self.tights.items()
                if record.spanned and not self.session.is_done(client)
            )
            if live_spans >= self.session.span_threshold:
                return True
        return False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _freeze(self, server: Node) -> None:
        self.state = FROZEN if server != self.id else ADMIN
        self.target = server
        self.session.notify_done(self.id)

    def promotion_valid(self) -> bool:
        """ADMIN condition: ≥ M live SPAN supporters and ``f_i`` paid."""
        if self.is_admin or not self.can_cache:
            return False
        live_spans = sum(
            1
            for client, record in self.tights.items()
            if record.spanned and not self.session.is_done(client)
        )
        if live_spans < self.session.span_threshold:
            return False
        total_payment = sum(r.payment for r in self.tights.values())
        return total_payment + 1e-12 >= self.fairness_cost

    def _maybe_become_admin(self) -> None:
        if self.promotion_valid():
            self.session.request_promotion(self.id)

    def promote(self) -> None:
        """Become ADMIN: announce, freeze supporters, fetch the chunk."""
        self.is_admin = True
        self.state = ADMIN
        self.target = self.id
        self.session.notify_done(self.id)
        self.session.register_admin(self.id)
        for client in list(self.tights):
            if client != self.id:
                self.session.send_nadmin(self.id, client)
        self.session.broadcast_badmin(self.id)
        # "Proactively request Data chunk from Producer" happens via
        # register_admin: the session wires the dissemination tree.
