"""Node-level unit tests for Algorithm 2's state machine.

These drive :class:`~repro.distributed.node.ProtocolNode` directly by
injecting messages through a real (but tiny) chunk session, pinning down
the handler semantics independent of whole-protocol outcomes.
"""

import math

import pytest

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
