"""Node-level unit tests for Algorithm 2's state machine.

These drive :class:`~repro.distributed.node.ProtocolNode` directly by
injecting messages through a real (but tiny) chunk session, pinning down
the handler semantics independent of whole-protocol outcomes.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributed import DistributedConfig
from repro.distributed.messages import (
    BAdminMessage,
    CcMessage,
    FreezeMessage,
    MessageStats,
    NAdminMessage,
    NpiMessage,
    SpanMessage,
    TightMessage,
)
from repro.distributed.node import ACTIVE, ADMIN, FROZEN, ProtocolNode
from repro.distributed.protocol import ChunkSession
from repro.workloads import grid_problem


@pytest.fixture
def session():
    problem = grid_problem(3, num_chunks=1)
    state = problem.new_state()
    return ChunkSession(state, 0, DistributedConfig(), MessageStats())


@pytest.fixture
def node(session):
    """Node 0 (a grid corner), fresh and ACTIVE."""
    return session.nodes[0]


class TestNpi:
    def test_learns_producer_cost(self, node):
        node.on_npi(NpiMessage(sender=4, chunk=0, cost_from_producer=12.0))
        assert node.producer_cost == 12.0

    def test_no_self_support(self, node):
        node.on_npi(NpiMessage(sender=4, chunk=0, cost_from_producer=12.0))
        assert node.id not in node.tights


class TestCc:
    def test_records_candidate(self, node):
        node.on_cc(CcMessage(sender=1, chunk=0, origin=1, accumulated_cost=5.0))
        assert node.candidates[1] == 5.0

    def test_keeps_cheapest(self, node):
        node.on_cc(CcMessage(sender=1, chunk=0, origin=1, accumulated_cost=5.0))
        node.on_cc(CcMessage(sender=1, chunk=0, origin=1, accumulated_cost=9.0))
        assert node.candidates[1] == 5.0
        node.on_cc(CcMessage(sender=1, chunk=0, origin=1, accumulated_cost=3.0))
        assert node.candidates[1] == 3.0

    def test_ignores_own_flood(self, node):
        node.on_cc(CcMessage(sender=0, chunk=0, origin=0, accumulated_cost=1.0))
        assert 0 not in node.candidates


class TestTightSpan:
    def test_tight_registers_client(self, node):
        node.on_tight(TightMessage(sender=1, chunk=0, target=0,
                                   contention=5.0, bid=7.0))
        assert 1 in node.tights
        assert node.tights[1].payment == pytest.approx(2.0)

    def test_span_marks_supporter(self, node):
        node.on_span(SpanMessage(sender=1, chunk=0, target=0,
                                 contention=5.0, resource_bid=4.0))
        assert node.tights[1].spanned
        assert node.tights[1].payment == pytest.approx(4.0)

    def test_admin_replies_freeze(self, session):
        admin = session.nodes[1]
        admin.is_admin = True
        admin.on_tight(TightMessage(sender=0, chunk=0, target=1,
                                    contention=5.0, bid=7.0))
        session.sim.run()
        # node 0 received FREEZE(server=1)
        assert session.nodes[0].state == FROZEN
        assert session.nodes[0].target == 1

    def test_full_node_ignores_requests(self):
        # A session resolves cacheability when it starts, so the storage
        # is filled before the session exists, as commit_chunk would.
        state = grid_problem(3, num_chunks=1).new_state()
        for chunk_id in range(5):  # capacity 5
            state.storage.add(1, 100 + chunk_id)
        session = ChunkSession(state, 0, DistributedConfig(), MessageStats())
        target = session.nodes[1]
        target.on_tight(TightMessage(sender=0, chunk=0, target=1,
                                     contention=5.0, bid=9.0))
        assert 0 not in target.tights


class TestFreezeAndAdminNotices:
    def test_freeze_stops_bidding(self, node):
        node.on_freeze(FreezeMessage(sender=1, chunk=0, server=1))
        assert node.state == FROZEN
        assert node.target == 1
        alpha = node.alpha
        node.client_tick(1.0)
        assert node.alpha == alpha  # no further bidding

    def test_freeze_idempotent_when_done(self, node):
        node.on_freeze(FreezeMessage(sender=1, chunk=0, server=1))
        node.on_freeze(FreezeMessage(sender=2, chunk=0, server=2))
        assert node.target == 1  # first freeze wins

    def test_nadmin_freezes_and_forwards(self, session):
        node = session.nodes[1]
        node.candidates[4] = 6.0
        node.on_tight(TightMessage(sender=2, chunk=0, target=1,
                                   contention=4.0, bid=5.0))
        node.on_nadmin(NAdminMessage(sender=4, chunk=0))
        assert node.state == FROZEN and node.target == 4
        session.sim.run()
        # the tight client 2 was forwarded to the admin (backup pointer)
        assert session.nodes[2].state == FROZEN
        assert session.nodes[2].target == 4

    def test_badmin_freezes_affordable_active(self, node):
        node.alpha = 10.0
        node.on_badmin(BAdminMessage(sender=5, chunk=0, cost_from_admin=8.0))
        assert node.state == FROZEN and node.target == 5

    def test_badmin_remembers_unaffordable_server(self, node):
        node.alpha = 2.0
        node.on_badmin(BAdminMessage(sender=5, chunk=0, cost_from_admin=8.0))
        assert node.state == ACTIVE
        assert node.open_servers[5] == 8.0


class TestClientTick:
    def test_bid_grows(self, node):
        node.producer_cost = math.inf
        node.client_tick(1.0)
        assert node.alpha == 1.0

    def test_freezes_to_producer_when_affordable(self, node):
        node.producer_cost = 2.0
        node.client_tick(1.0)
        node.client_tick(1.0)
        assert node.state == FROZEN
        assert node.target == node.session.producer

    def test_tight_sent_when_candidate_affordable(self, session):
        node = session.nodes[0]
        node.producer_cost = math.inf
        node.on_cc(CcMessage(sender=1, chunk=0, origin=1, accumulated_cost=2.0))
        node.client_tick(1.0)
        node.client_tick(1.0)
        session.sim.run()
        assert 1 in node.tight_sent
        assert 0 in session.nodes[1].tights

    def test_span_follows_tight(self, session):
        node = session.nodes[0]
        node.producer_cost = math.inf
        node.on_cc(CcMessage(sender=1, chunk=0, origin=1, accumulated_cost=2.0))
        for _ in range(4):
            node.client_tick(1.0)
        session.sim.run()
        assert 1 in node.span_sent
        assert session.nodes[1].tights[0].spanned


class TestPromotion:
    def test_promotion_requires_threshold(self, session):
        candidate = session.nodes[1]
        candidate.on_span(SpanMessage(sender=0, chunk=0, target=1,
                                      contention=3.0, resource_bid=5.0))
        assert not candidate.promotion_valid()  # threshold is 3

    def test_promotion_with_enough_support(self, session):
        candidate = session.nodes[1]
        for sender in (0, 2, 3):
            candidate.on_span(SpanMessage(sender=sender, chunk=0, target=1,
                                          contention=3.0, resource_bid=5.0))
        assert candidate.promotion_valid()

    def test_frozen_supporters_dont_count(self, session):
        candidate = session.nodes[1]
        for sender in (0, 2, 3):
            candidate.on_span(SpanMessage(sender=sender, chunk=0, target=1,
                                          contention=3.0, resource_bid=5.0))
        session.notify_done(0)
        session.notify_done(2)
        assert not candidate.promotion_valid()

    def test_promote_announces(self, session):
        candidate = session.nodes[1]
        for sender in (0, 2, 3):
            candidate.on_span(SpanMessage(sender=sender, chunk=0, target=1,
                                          contention=3.0, resource_bid=5.0))
        candidate.promote()
        assert candidate.state == ADMIN
        assert candidate.is_admin
        assert 1 in session.admins
        session.sim.run()
        # supporters got NADMIN and froze onto the admin
        for sender in (0, 2, 3):
            assert session.nodes[sender].target == 1

    def test_payment_must_cover_fairness(self, session):
        # preload node 1 so its fairness cost is high
        for chunk_id in range(4):
            session.state.storage.add(1, 100 + chunk_id)
        session.state.costs.invalidate()
        candidate = session.nodes[1]
        for sender in (0, 2, 3):
            candidate.on_span(SpanMessage(sender=sender, chunk=0, target=1,
                                          contention=3.0, resource_bid=0.5))
        # f = 4/(5-4) = 4 > 1.5 total payment
        assert not candidate.promotion_valid()


class _ScanClient:
    """The client role's bookkeeping as two scans per tick: the cheapest
    affordable open server over ``open_servers`` and the affordable
    candidates over ``candidates``, in insertion order.  The reference
    for the running minimum and TIGHT heap of :class:`ProtocolNode`."""

    def __init__(self, node_id, producer):
        self.id = node_id
        self.producer = producer
        self.state = ACTIVE
        self.alpha = 0.0
        self.target = None
        self.producer_cost = math.inf
        self.candidates = {}
        self.open_servers = {}
        self.tight_sent = set()
        self.sent = []

    def _freeze(self, server):
        self.state = FROZEN if server != self.id else ADMIN
        self.target = server

    def on_npi(self, cost):
        self.producer_cost = cost

    def on_cc(self, origin, cost):
        if origin == self.id:
            return
        previous = self.candidates.get(origin)
        if previous is None or cost < previous:
            self.candidates[origin] = cost

    def on_nadmin(self, admin):
        cost = self.candidates.get(admin, self.producer_cost)
        self.open_servers[admin] = cost
        if self.state == ACTIVE:
            self._freeze(admin)

    def on_badmin(self, admin, cost):
        self.open_servers[admin] = min(
            self.open_servers.get(admin, math.inf), cost
        )
        if self.state == ACTIVE and self.alpha >= cost:
            self._freeze(admin)

    def client_tick(self, step):
        if self.state != ACTIVE:
            return
        self.alpha += step
        best_server = None
        best_cost = math.inf
        if self.alpha >= self.producer_cost:
            best_server = self.producer
            best_cost = self.producer_cost
        for server, cost in self.open_servers.items():
            if self.alpha >= cost and cost < best_cost:
                best_server = server
                best_cost = cost
        if best_server is not None:
            self._freeze(best_server)
            return
        for origin, cost in self.candidates.items():
            if origin in self.tight_sent or self.alpha < cost:
                continue
            self.tight_sent.add(origin)
            self.sent.append((origin, cost, self.alpha))


_PEERS = [0, 1, 2, 3]  # node 0 is the client under test
# Few integer costs and whole-number steps make ties common: between
# candidates, between open servers, and with the producer.  Steps of 2
# and 3 make several candidates of different costs due in one tick.
_COST = st.integers(min_value=0, max_value=6).map(float)
_BIDDING = st.lists(
    st.one_of(
        st.tuples(
            st.just("cc"), st.sampled_from(_PEERS), _COST, st.booleans()
        ),
        st.tuples(st.just("tick"), st.sampled_from([1.0, 2.0, 3.0])),
        st.tuples(
            st.just("badmin"), st.sampled_from(_PEERS[1:]), _COST,
            st.booleans(),
        ),
        st.tuples(
            st.just("npi"), st.integers(min_value=0, max_value=12).map(float),
            st.booleans(),
        ),
    ),
    max_size=30,
)
# An active client freezes on any NADMIN, so one NADMIN at most splits
# the run; the floods after it still update the frozen client's state.
_NADMIN = st.sampled_from([
    [], [("nadmin", 1)], [("nadmin", 2)], [("nadmin", 3)],
    # NADMIN from the current cheapest open server; its cost becomes
    # the CC or the producer cost, which may be higher.
    [("nadmin-best",)],
])
_OPS = st.tuples(_BIDDING, _NADMIN, _BIDDING).map(
    lambda parts: parts[0] + parts[1] + parts[2]
)


def _first_cheapest(servers):
    """The first-inserted cheapest entry of ``servers``, by a fresh scan."""
    best, best_cost = None, math.inf
    for server, cost in servers.items():
        if cost < best_cost:
            best, best_cost = server, cost
    return best, best_cost


class TestClientBookkeeping:
    """The running cheapest open server and the TIGHT heap decide exactly
    what the per-tick scans over ``open_servers`` and ``candidates``
    decide, whatever order the floods, NADMINs and ticks come in."""

    #: One problem for every example: the stubbed sends leave it as is.
    STATE = grid_problem(3, num_chunks=1).new_state()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(ops=_OPS)
    # The producer ties an open server that became affordable with it.
    @example(ops=[("npi", 2.0, False), ("badmin", 1, 2.0, False),
                  ("tick", 2.0)])
    # Two TIGHTs due in one tick, the later candidate cheaper.
    @example(ops=[("cc", 1, 3.0, False), ("cc", 2, 1.0, False),
                  ("tick", 3.0)])
    # A CC lowers a cost after the ticks started; both entries come due.
    @example(ops=[("cc", 1, 5.0, False), ("tick", 1.0), ("cc", 1, 2.0, True),
                  ("cc", 2, 1.0, False), ("tick", 3.0)])
    # A NADMIN raises the cheapest open server's cost above the next.
    @example(ops=[("cc", 2, 5.0, False), ("badmin", 2, 3.0, False),
                  ("badmin", 3, 4.0, True), ("nadmin-best",)])
    def test_matches_the_scans(self, ops):
        session = ChunkSession(
            self.STATE, 0, DistributedConfig(), MessageStats()
        )
        sent = []
        session.send_tight = (
            lambda src, dst, contention, bid: sent.append((dst, contention, bid))
        )
        session.send_span = lambda *args, **kwargs: None
        session.send_freeze = lambda *args, **kwargs: None
        node = session.nodes[0]
        ref = _ScanClient(0, session.producer)
        for op in ops:
            kind = op[0]
            if kind == "npi":
                _, cost, as_message = op
                if as_message:
                    node.on_npi(NpiMessage(sender=4, chunk=0,
                                           cost_from_producer=cost))
                else:
                    node.learn_producer(cost)
                ref.on_npi(cost)
            elif kind == "cc":
                _, origin, cost, as_message = op
                if as_message:
                    node.on_cc(CcMessage(sender=origin, chunk=0, origin=origin,
                                         accumulated_cost=cost))
                else:
                    node.learn_candidate(origin, cost)
                ref.on_cc(origin, cost)
            elif kind == "badmin":
                _, admin, cost, as_message = op
                if as_message:
                    node.on_badmin(BAdminMessage(sender=admin, chunk=0,
                                                 cost_from_admin=cost))
                else:
                    node.learn_admin(admin, cost)
                ref.on_badmin(admin, cost)
            elif kind in ("nadmin", "nadmin-best"):
                if kind == "nadmin":
                    admin = op[1]
                elif ref.open_servers:
                    admin = min(ref.open_servers, key=ref.open_servers.get)
                else:
                    continue
                node.on_nadmin(NAdminMessage(sender=admin, chunk=0))
                ref.on_nadmin(admin)
            else:
                node.client_tick(op[1])
                ref.client_tick(op[1])
            assert (node.target, node.state) == (ref.target, ref.state)
            assert sent == ref.sent
            assert node.tight_sent == ref.tight_sent
            assert node.open_servers == ref.open_servers
            assert node.candidates == ref.candidates
            # The running minimum stays the scan's answer even where no
            # tick reads it (a NADMIN freezes an active client at once).
            assert (node._open_best, node._open_cost) == _first_cheapest(
                ref.open_servers
            )
