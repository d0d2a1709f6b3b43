"""Unit tests for the distributed algorithm (Algorithm 2)."""

import math
from functools import partial

import pytest

from repro.distributed import (
    ALL_TYPES,
    DistributedConfig,
    MessageStats,
    solve_distributed,
)
from repro.distributed.messages import BADMIN, CC, NPI
from repro.errors import SimulationError
from repro.metrics import evaluate_contention
from repro.workloads import grid_problem


class TestMessageStats:
    def test_record(self):
        stats = MessageStats()
        stats.record("NPI", 3)
        assert stats.messages["NPI"] == 1
        assert stats.transmissions["NPI"] == 3

    def test_zero_hops_count_one_transmission(self):
        stats = MessageStats()
        stats.record("CC", 0)
        assert stats.transmissions["CC"] == 1

    def test_totals(self):
        stats = MessageStats()
        stats.record("TIGHT", 1)
        stats.record("SPAN", 2)
        assert stats.total_messages() == 2
        assert stats.total_transmissions() == 3

    def test_merge(self):
        a, b = MessageStats(), MessageStats()
        a.record("NPI", 1)
        b.record("NPI", 2)
        a.merge(b)
        assert a.messages["NPI"] == 2
        assert a.transmissions["NPI"] == 3

    def test_all_types_present(self):
        stats = MessageStats()
        assert set(stats.messages) == set(ALL_TYPES)


class TestDistributedAlgorithm:
    def test_feasible_placement(self, small_problem):
        outcome = solve_distributed(small_problem)
        outcome.placement.validate()
        assert outcome.placement.algorithm == "distributed"

    def test_deterministic(self, small_problem):
        a = solve_distributed(small_problem)
        b = solve_distributed(small_problem)
        assert [c.caches for c in a.placement.chunks] == [
            c.caches for c in b.placement.chunks
        ]
        assert a.stats.messages == b.stats.messages

    def test_every_chunk_recorded(self, small_problem):
        outcome = solve_distributed(small_problem)
        assert len(outcome.placement.chunks) == small_problem.num_chunks
        assert len(outcome.ticks_per_chunk) == small_problem.num_chunks

    def test_message_types_used(self, paper_problem):
        outcome = solve_distributed(paper_problem)
        stats = outcome.stats
        assert stats.messages["NPI"] > 0
        assert stats.messages["CC"] > 0
        assert stats.messages["TIGHT"] > 0
        assert stats.messages["SPAN"] > 0

    def test_npi_count_is_chunks_times_clients(self, paper_problem):
        outcome = solve_distributed(paper_problem)
        expected = paper_problem.num_chunks * len(paper_problem.clients)
        assert outcome.stats.messages["NPI"] == expected

    def test_hop_limit_must_be_positive(self, small_problem):
        with pytest.raises(SimulationError):
            solve_distributed(small_problem, DistributedConfig(hop_limit=0))

    @pytest.mark.parametrize("kwargs, message", [
        ({"step": 0.0}, "step must be finite and positive"),
        ({"step": math.nan}, "step must be finite and positive"),
        ({"tick_interval": -1.0}, "tick_interval must be finite and positive"),
        ({"tick_interval": math.inf},
         "tick_interval must be finite and positive"),
        ({"hop_latency": math.nan},
         "hop_latency must be finite and non-negative"),
        ({"hop_latency": -0.001},
         "hop_latency must be finite and non-negative"),
        ({"promotion_latency": math.inf},
         "promotion_latency must be finite and non-negative"),
    ])
    def test_bad_clock_rejected(self, small_problem, kwargs, message):
        # Unchecked, step=0 spins to max_ticks and hop_latency=nan
        # completes with NaN event times.
        with pytest.raises(SimulationError, match=message):
            solve_distributed(small_problem, DistributedConfig(**kwargs))

    def test_bad_span_policy_rejected(self, small_problem):
        with pytest.raises(SimulationError):
            solve_distributed(
                small_problem, DistributedConfig(span_policy="everything")
            )

    def test_k1_degrades_with_high_threshold(self):
        problem = grid_problem(6)
        config1 = DistributedConfig(hop_limit=1, span_threshold=4)
        config2 = DistributedConfig(hop_limit=2, span_threshold=4)
        cost1 = evaluate_contention(
            solve_distributed(problem, config1).placement
        ).access
        cost2 = evaluate_contention(
            solve_distributed(problem, config2).placement
        ).access
        caches1 = solve_distributed(problem, config1).placement.total_copies()
        caches2 = solve_distributed(problem, config2).placement.total_copies()
        assert caches1 < caches2  # k=1: "very few caching nodes"
        assert cost1 > cost2     # and high accessing cost (Fig. 3)

    def test_storage_feeds_forward(self, paper_problem):
        outcome = solve_distributed(paper_problem)
        sets = [c.caches for c in outcome.placement.chunks]
        # fairness: chunk sets are not all identical (unlike baselines)
        assert len(set(sets)) > 1

    def test_capacity_respected(self):
        problem = grid_problem(3, num_chunks=8, capacity=2)
        outcome = solve_distributed(problem)
        outcome.placement.validate()
        assert max(outcome.placement.loads().values()) <= 2

    def test_unserialized_promotions_overopen(self, paper_problem):
        serial = solve_distributed(
            paper_problem, DistributedConfig(serialize_promotions=True)
        )
        racy = solve_distributed(
            paper_problem, DistributedConfig(serialize_promotions=False)
        )
        assert racy.placement.total_copies() >= serial.placement.total_copies()

    def test_gamma_zero_start_underopens(self, paper_problem):
        aligned = solve_distributed(
            paper_problem, DistributedConfig(gamma_from_alpha=True)
        )
        literal = solve_distributed(
            paper_problem, DistributedConfig(gamma_from_alpha=False)
        )
        assert (
            literal.placement.total_copies()
            <= aligned.placement.total_copies()
        )

    def test_producer_only_fallback_terminates(self):
        # capacity 0 everywhere: no facility can ever open, every client
        # must freeze to the producer.
        problem = grid_problem(3, num_chunks=2, capacity=0)
        outcome = solve_distributed(problem)
        outcome.placement.validate()
        for chunk in outcome.placement.chunks:
            assert not chunk.caches


class TestLossInjection:
    def test_protocol_survives_loss(self):
        problem = grid_problem(4, num_chunks=3)
        outcome = solve_distributed(
            problem, DistributedConfig(loss_rate=0.3, fault_seed=1)
        )
        outcome.placement.validate()  # everyone still served

    def test_loss_is_deterministic(self):
        problem = grid_problem(4, num_chunks=2)
        config = DistributedConfig(loss_rate=0.2, fault_seed=7)
        a = solve_distributed(problem, config)
        b = solve_distributed(problem, config)
        assert [c.caches for c in a.placement.chunks] == [
            c.caches for c in b.placement.chunks
        ]

    def test_loss_degrades_not_breaks(self):
        problem = grid_problem(6)
        clean = solve_distributed(problem)
        lossy = solve_distributed(
            problem, DistributedConfig(loss_rate=0.5, fault_seed=3)
        )
        lossy.placement.validate()
        # fewer control messages get through, so fewer caches open
        assert (
            lossy.placement.total_copies() <= clean.placement.total_copies()
        )

    def test_invalid_loss_rate(self):
        problem = grid_problem(3, num_chunks=1)
        for rate in (-0.1, 1.5):
            with pytest.raises(SimulationError, match="loss_rate must be in"):
                solve_distributed(problem, DistributedConfig(loss_rate=rate))

    def test_extreme_loss_falls_back_to_producer(self):
        problem = grid_problem(4, num_chunks=2)
        outcome = solve_distributed(
            problem, DistributedConfig(loss_rate=0.99, fault_seed=5)
        )
        outcome.placement.validate()
        # almost no control traffic lands: placements are producer-heavy
        for chunk in outcome.placement.chunks:
            producer_served = sum(
                1 for s in chunk.assignment.values()
                if s == problem.producer
            )
            assert producer_served >= len(problem.clients) // 2


def _per_leg_flood(plane, msg_type, src, dsts, hops, values, apply):
    """Reference flood delivery: one census record and one simulator
    event per leg, each applying the flood to its one receiver."""
    for dst, h, value in zip(dsts, hops, values):
        plane.stats.record(msg_type, h)
        plane.sim.schedule(h * plane.hop_latency, partial(apply, [dst], [value]))


#: The per-receiver update behind each flood type; both delivery paths
#: (column entries and per-leg events) go through these.
_FLOOD_UPDATES = {
    "learn_producer": NPI,
    "learn_candidate": CC,
    "learn_admin": BADMIN,
}


def _outcome_record(problem, config):
    from repro.distributed.node import ProtocolNode
    from repro.obs import Recorder, use_recorder

    # Flood updates of different nodes commute on the outputs, so log
    # what each receiver learned, from whom and when, in the order the
    # updates run.  An update sees no sequence number, so the flood is
    # named by (type, sender): each node floods one CC and at most one
    # BADMIN per session.
    handled = []
    recorder = Recorder()
    with pytest.MonkeyPatch.context() as patch:
        for name, msg_type in _FLOOD_UPDATES.items():
            def logged(node, *args, _update=getattr(ProtocolNode, name),
                       _type=msg_type):
                sender = node.session.producer if _type == NPI else args[0]
                handled.append(
                    (node.id, _type, sender, args[-1], node.session.sim.now)
                )
                _update(node, *args)

            patch.setattr(ProtocolNode, name, logged)
        with use_recorder(recorder):
            outcome = solve_distributed(problem, config)
    return {
        "handled": handled,
        "caches": [sorted(map(str, c.caches)) for c in outcome.placement.chunks],
        "assignment": [
            list(c.assignment.items()) for c in outcome.placement.chunks
        ],
        "messages": outcome.stats.messages,
        "transmissions": outcome.stats.transmissions,
        "ticks": outcome.ticks_per_chunk,
        "sim_events": outcome.sim_events,
        "max_queue_depth": recorder.dump()["gauges"]["sim.max_queue_depth"],
    }


class TestHopRingDelivery:
    """Flood legs delivered per hop ring, as column entries, run exactly
    as per-leg events would, including when every ring lands at
    one time (hop_latency 0)."""

    @pytest.mark.parametrize("hop_latency", [0.001, 0.0, 0.3])
    @pytest.mark.parametrize("config_kwargs", [
        {}, {"span_threshold": 0}, {"serialize_promotions": False},
    ])
    def test_matches_per_leg_reference(self, monkeypatch, hop_latency,
                                       config_kwargs):
        from repro.distributed import FaultPlane
        from repro.workloads import random_problem

        problem, _ = random_problem(40, seed=3, num_chunks=3, capacity=2)
        config = DistributedConfig(hop_latency=hop_latency, **config_kwargs)
        batched = _outcome_record(problem, config)
        # The log is the oracle: it must see every flood type's updates.
        assert {entry[1] for entry in batched["handled"]} == {NPI, CC, BADMIN}
        assert len(batched["handled"]) == sum(
            batched["messages"][t] for t in (NPI, CC, BADMIN)
        )
        monkeypatch.setattr(FaultPlane, "flood", _per_leg_flood)
        assert _outcome_record(problem, config) == batched


class TestSessionLifetime:
    """A finished chunk session frees itself and its nodes by reference
    counting alone: each node points back at its session, so the session
    drops those links once its results are read.  Without that, every
    session of a run waits for the cyclic collector."""

    @pytest.mark.parametrize("config_kwargs", [
        {}, {"loss_rate": 0.3}, {"jitter": 0.01, "retx_timeout": 0.5},
    ])
    def test_sessions_and_nodes_die_without_gc(self, monkeypatch,
                                               config_kwargs):
        import gc
        import weakref

        from repro.distributed.node import ProtocolNode
        from repro.distributed.protocol import ChunkSession

        refs = []
        for cls in (ChunkSession, ProtocolNode):
            def init(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                refs.append(weakref.ref(self))

            monkeypatch.setattr(cls, "__init__", init)
        problem = grid_problem(4, num_chunks=3)
        gc.collect()
        gc.disable()
        try:
            outcome = solve_distributed(
                problem, DistributedConfig(**config_kwargs)
            )
            alive = [ref() for ref in refs if ref() is not None]
        finally:
            gc.enable()
        assert outcome.placement.chunks
        # 3 sessions, each with 15 nodes besides the producer.
        assert len(refs) == 3 * 16
        assert alive == []
