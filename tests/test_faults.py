"""Tests for the fault-injection layer (``repro.distributed.faults``).

Covers when the fault plane engages, the no-op golden contract (with
all fault knobs at their defaults the protocol reproduces a
pre-fault-plane snapshot byte for byte), determinism under faults, churn
semantics, and the 100%-loss / retry-budget termination path.  This module doubles as
the CI fault-injection smoke job.
"""

import json
import math
from pathlib import Path

import pytest

from repro.distributed import (
    ChurnEvent,
    DistributedConfig,
    FaultStats,
    solve_distributed,
)
from repro.distributed.faults import normalize_churn
from repro.distributed.messages import MessageStats
from repro.distributed.protocol import ChunkSession
from repro.errors import SimulationError
from repro.workloads import grid_problem, random_problem

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_noop_dist.json"


def _snapshot(problem, config=None):
    outcome = solve_distributed(problem, config)
    return {
        "caches": [
            sorted(map(str, chunk.caches)) for chunk in outcome.placement.chunks
        ],
        "messages": outcome.stats.messages,
        "transmissions": outcome.stats.transmissions,
        "ticks": outcome.ticks_per_chunk,
        "sim_events": outcome.sim_events,
    }


def _canon(snapshot) -> str:
    return json.dumps(snapshot, sort_keys=True)


class TestNoOpContract:
    """With every fault knob at its default, placements and MessageStats
    must be byte-identical to the snapshot taken before the fault plane
    existed (ISSUE 8 acceptance criterion)."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    def test_grid_byte_identical(self, golden):
        assert _canon(_snapshot(grid_problem(6))) == _canon(golden["grid6"])

    def test_random_byte_identical(self, golden):
        problem, _ = random_problem(40, seed=7)
        assert _canon(_snapshot(problem)) == _canon(golden["random40_seed7"])

    def test_random_multichunk_byte_identical(self, golden):
        problem, _ = random_problem(25, seed=11, num_chunks=3)
        assert _canon(_snapshot(problem)) == _canon(golden["random25_seed11"])

    def test_passthrough_reports_no_faults(self):
        outcome = solve_distributed(grid_problem(4))
        assert outcome.faults is None


class TestModeResolution:
    def _plane(self, **kwargs):
        from repro.distributed import FaultPlane, MessageStats, Simulator
        from repro.obs import get_tracer

        defaults = dict(
            sim=Simulator(), stats=MessageStats(), trace=get_tracer(),
            chunk=0, hop_latency=0.001,
        )
        defaults.update(kwargs)
        return FaultPlane(**defaults)

    def test_default_is_passthrough(self):
        plane = self._plane()
        assert not plane.faults_active
        assert plane._rng is None  # consumes no randomness

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jitter": 0.01},
            {"retx_timeout": 0.5},
            {"churn": ((1.0, "n", "leave"),)},
            {"loss_rate": 0.3},
        ],
    )
    def test_any_full_knob_engages_full_mode(self, kwargs):
        assert self._plane(**kwargs).faults_active

    def test_seed_alone_engages_nothing(self):
        assert not self._plane(seed=7).faults_active

    def test_total_loss_alone_is_accepted(self):
        assert self._plane(loss_rate=1.0).faults_active

    def test_full_mode_allows_total_loss(self):
        assert self._plane(loss_rate=1.0, retx_timeout=0.5).faults_active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_rate": -0.1},
            {"jitter": -1.0},
            {"retx_timeout": -1.0},
            {"retx_timeout": 0.5, "max_retries": -1},
            {"loss_rate": 1.5},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            self._plane(**kwargs)

    @pytest.mark.parametrize("name", ["loss_rate", "jitter", "retx_timeout"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_knobs_rejected(self, name, value):
        # NaN fails every comparison, so it slips past the range checks:
        # unchecked, loss nan runs as if loss were off.
        with pytest.raises(SimulationError, match=f"{name} must be finite"):
            self._plane(**{name: value})


class TestFloodDelivery:
    """Without fault knobs a flood is one simulator entry per hop ring;
    with any knob every leg is its own event (plus its retx timer)."""

    @staticmethod
    def _flood_npi(**kwargs):
        problem = grid_problem(4, num_chunks=1)
        session = ChunkSession(
            problem.new_state(), 0, DistributedConfig(**kwargs), MessageStats()
        )
        entries, pending = len(session.sim._queue), session.sim.pending
        session._flood_npi()
        rings = len(set(session._hops_from(problem.producer).values()) - {0})
        return (
            session,
            len(session.sim._queue) - entries,
            session.sim.pending - pending,
            rings,
        )

    @pytest.mark.parametrize("kwargs", [{}])
    def test_reliable_floods_schedule_one_entry_per_ring(self, kwargs):
        session, entries, pending, rings = self._flood_npi(**kwargs)
        assert entries == rings
        assert pending == len(session.nodes)

    @pytest.mark.parametrize(
        "kwargs, per_leg",
        [
            ({"jitter": 0.01}, 1),
            ({"churn_schedule": ((50.0, 5, "leave"),)}, 1),
            ({"retx_timeout": 0.5}, 2),  # delivery + retransmission timer
            ({"loss_rate": 0.3}, 1),
        ],
    )
    def test_full_mode_schedules_one_event_per_leg(self, kwargs, per_leg):
        session, entries, pending, _ = self._flood_npi(**kwargs)
        assert session.faults.faults_active
        # A dropped leg schedules no delivery.
        drops = session.faults.fstats.total_drops()
        assert entries == per_leg * len(session.nodes) - drops
        assert pending == entries


class TestChurn:
    def test_tuple_normalization(self):
        events = normalize_churn([(1.0, 5, "leave"), ChurnEvent(2.0, 5, "join")])
        assert [e.kind for e in events] == ["leave", "join"]

    @pytest.mark.parametrize(
        "entry",
        [
            (1.0, 5, "reboot"), (-1.0, 5, "leave"), (1.0, 5), "leave",
            (math.nan, 5, "leave"), (math.inf, 5, "join"),
        ],
    )
    def test_invalid_entries_rejected(self, entry):
        with pytest.raises(SimulationError):
            normalize_churn([entry])

    def test_producer_may_never_churn(self):
        problem = grid_problem(4)
        config = DistributedConfig(
            churn_schedule=((1.0, problem.producer, "leave"),)
        )
        with pytest.raises(SimulationError, match="producer"):
            solve_distributed(problem, config)

    def test_unknown_node_rejected(self):
        config = DistributedConfig(churn_schedule=((1.0, "nope", "leave"),))
        with pytest.raises(SimulationError, match="unknown node"):
            solve_distributed(grid_problem(4), config)

    def test_permanent_leaver_falls_back_to_producer(self):
        problem = grid_problem(4, num_chunks=1)
        leaver = 7
        config = DistributedConfig(churn_schedule=((2.0, leaver, "leave"),))
        outcome = solve_distributed(problem, config)
        outcome.placement.validate()
        report = outcome.faults
        assert report is not None
        assert report.stats.leaves == 1
        assert not report.converged
        assert leaver in report.unserved[0]
        # The unserved node is still committed — against the producer.
        assignment = outcome.placement.chunks[0].assignment
        assert assignment[leaver] == problem.producer

    def test_leave_and_rejoin_converges(self):
        problem = grid_problem(4, num_chunks=1)
        config = DistributedConfig(
            churn_schedule=((2.0, 7, "leave"), (6.0, 7, "join"))
        )
        outcome = solve_distributed(problem, config)
        report = outcome.faults
        assert report.stats.leaves == 1
        assert report.stats.joins == 1
        assert report.converged


class TestDeterminism:
    """Same seed + same (loss, jitter, churn, retx) config ⇒ byte-identical
    MessageStats and placement JSON."""

    CONFIG = DistributedConfig(
        loss_rate=0.2,
        jitter=0.01,
        retx_timeout=0.5,
        max_retries=3,
        churn_schedule=((2.0, 7, "leave"), (6.0, 7, "join")),
        fault_seed=13,
    )

    def test_repeat_runs_are_byte_identical(self):
        problem = grid_problem(5, num_chunks=2)
        first = _snapshot(problem, self.CONFIG)
        second = _snapshot(problem, self.CONFIG)
        assert _canon(first) == _canon(second)

    def test_fault_stats_are_deterministic(self):
        problem = grid_problem(5, num_chunks=2)
        a = solve_distributed(problem, self.CONFIG).faults.stats
        b = solve_distributed(problem, self.CONFIG).faults.stats
        assert a == b

    def test_different_seed_changes_the_run(self):
        problem = grid_problem(5, num_chunks=2)
        base = solve_distributed(problem, self.CONFIG).faults.stats
        other_config = DistributedConfig(
            loss_rate=self.CONFIG.loss_rate,
            jitter=self.CONFIG.jitter,
            retx_timeout=self.CONFIG.retx_timeout,
            max_retries=self.CONFIG.max_retries,
            churn_schedule=self.CONFIG.churn_schedule,
            fault_seed=14,
        )
        other = solve_distributed(problem, other_config).faults.stats
        assert base != other


class TestTotalLoss:
    """100% loss must terminate through the retry budget with a partial
    placement report — never hang (ISSUE 8 edge case)."""

    def test_terminates_with_partial_placement(self):
        problem = grid_problem(4, num_chunks=2)
        config = DistributedConfig(
            loss_rate=1.0, retx_timeout=0.5, max_retries=2
        )
        outcome = solve_distributed(problem, config)
        outcome.placement.validate()
        report = outcome.faults
        assert not report.converged
        # Nothing was ever delivered: every non-producer node of every
        # chunk is unserved and assigned to the producer.
        nodes = problem.graph.num_nodes - 1
        assert report.total_unserved == nodes * 2
        assert outcome.stats.total_messages() == 0
        for chunk in outcome.placement.chunks:
            assert not chunk.caches
            assert all(
                server == problem.producer
                for server in chunk.assignment.values()
            )
        # Retry budgets were actually exercised and exhausted.
        assert report.stats.total_exhausted() > 0
        assert report.stats.total_drops() > 0


    def test_total_loss_alone_falls_back_to_producer(self):
        """Without retransmission a drop is final, so at 100% loss each
        session ends after its first tick with nobody served."""
        problem = grid_problem(6)
        outcome = solve_distributed(
            problem, DistributedConfig(loss_rate=1.0)
        )
        outcome.placement.validate()
        report = outcome.faults
        nodes = problem.graph.num_nodes - 1
        assert report.total_unserved == nodes * problem.num_chunks
        assert outcome.stats.total_messages() == 0
        assert outcome.ticks_per_chunk == [1] * problem.num_chunks
        for chunk in outcome.placement.chunks:
            assert not chunk.caches
            assert all(
                server == problem.producer
                for server in chunk.assignment.values()
            )


class TestRetransmission:
    def test_retx_only_matches_fault_free_run(self):
        """With zero loss, no jitter and no churn, the ack/retransmission
        machinery must not change the placement or the Table II census —
        every message arrives on the first attempt and duplicates never
        happen."""
        problem = grid_problem(5, num_chunks=2)
        base = _snapshot(problem)
        retx = solve_distributed(
            problem, DistributedConfig(retx_timeout=0.5)
        )
        assert [
            sorted(map(str, c.caches)) for c in retx.placement.chunks
        ] == base["caches"]
        assert retx.stats.messages == base["messages"]
        stats = retx.faults.stats
        assert stats.total_retx() == 0
        assert stats.total_duplicates() == 0
        assert stats.acks == retx.stats.total_messages()

    def test_loss_with_retx_converges_and_retransmits(self):
        """The CI smoke configuration: 20% loss, one churn episode, acked
        retransmission — must converge on a small grid."""
        problem = grid_problem(5, num_chunks=2)
        config = DistributedConfig(
            loss_rate=0.2,
            retx_timeout=0.5,
            max_retries=3,
            churn_schedule=((3.0, 7, "leave"), (8.0, 7, "join")),
            fault_seed=2017,
        )
        outcome = solve_distributed(problem, config)
        outcome.placement.validate()
        report = outcome.faults
        assert report.converged
        assert report.stats.total_drops() > 0
        assert report.stats.total_retx() > 0
        assert report.stats.acks > 0

    def test_lost_acks_cause_suppressed_duplicates(self):
        problem = grid_problem(5, num_chunks=2)
        config = DistributedConfig(
            loss_rate=0.3, retx_timeout=0.5, max_retries=3, fault_seed=1
        )
        outcome = solve_distributed(problem, config)
        stats = outcome.faults.stats
        # A lost ack forces a retransmission of an already-delivered
        # message; the receiver's seen-set suppresses it.
        assert stats.ack_drops > 0
        assert stats.total_duplicates() > 0


class TestFaultStats:
    def test_merge_accumulates(self):
        a = FaultStats(drops={"TIGHT": 2}, acks=1, leaves=1)
        b = FaultStats(drops={"TIGHT": 3, "SPAN": 1}, acks=4, joins=2)
        a.merge(b)
        assert a.drops == {"TIGHT": 5, "SPAN": 1}
        assert a.acks == 5
        assert a.leaves == 1
        assert a.joins == 2

    def test_loss_only_drops_flood_legs(self):
        outcome = solve_distributed(
            grid_problem(5), DistributedConfig(loss_rate=0.3, fault_seed=3)
        )
        outcome.placement.validate()
        report = outcome.faults
        assert report is not None
        # Loss alone acts on every delivery, flood legs included.
        assert {"NPI", "CC", "BADMIN"} <= set(report.stats.drops)
        # No retransmission: every drop is final.
        assert report.stats.total_retx() == 0
