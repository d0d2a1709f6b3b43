"""Unit tests for the discrete-event simulator."""

import math

import pytest

from repro.distributed import Simulator
from repro.errors import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_at_same_time(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(1.0, lambda l=label: fired.append(l))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestControl:
    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_cancel_event(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        assert handle.cancelled
        sim.run()
        assert fired == []

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_runaway_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending == 1


class TestScheduleAtRounding:
    """Regression: chained float additions accumulate sub-nanosecond
    residue; scheduling "at now" computed through that chain must not
    raise (PR 6's batched engine had to mirror the rounding chain to
    dodge this)."""

    def test_tiny_negative_residue_clamped(self):
        sim = Simulator()
        # Drive `now` through a chain of additions that does not round
        # to the same float as the direct sum.
        times = [0.1 * i for i in range(1, 8)]
        for t in times:
            sim.schedule_at(t, lambda: None)
        sim.run()
        target = sim.now - 1e-13  # residue-sized "past" time
        fired = []
        sim.schedule_at(target, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [sim.now]

    def test_fires_immediately_at_current_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(sim.now, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_genuinely_past_times_still_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)


class TestCancelledEventCompaction:
    """Regression: cancelled events used to sit in the heap until popped,
    so mass-cancelled retransmission timers grew the queue unbounded and
    ``pending`` was O(n) per call."""

    def test_queue_compacts_when_mostly_cancelled(self):
        sim = Simulator()
        keeper = sim.schedule(100.0, lambda: None)
        handles = [sim.schedule(1.0 + i, lambda: None) for i in range(1000)]
        for handle in handles:
            handle.cancel()
        # Lazy compaction triggers once cancelled entries outnumber live
        # ones: the raw heap must have shrunk to just the live event.
        assert len(sim._queue) < 10
        assert sim.pending == 1
        assert not keeper.cancelled

    def test_pending_is_live_count(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending == 6

    def test_max_queue_depth_counts_live_only(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i, lambda: None) for i in range(50)]
        for handle in handles:
            handle.cancel()
        # Scheduling after the mass-cancel must not report a high-water
        # mark inflated by the cancelled corpses.
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.max_queue_depth == 50

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(True))
        sim.schedule(2.0, lambda: None)
        sim.run()
        handle.cancel()  # already fired: must not corrupt the live count
        assert fired == [True]
        assert not handle.cancelled
        assert sim.pending == 0


class TestNonFiniteDelays:
    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_schedule_rejects_non_finite_delay(self, delay):
        with pytest.raises(SimulationError, match="must be finite"):
            Simulator().schedule(delay, lambda: None)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -1.0])
    def test_schedule_batch_rejects_bad_delay(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _schedule_batch(sim, delay, [lambda: None, lambda: None])
        assert sim.pending == 0


def _schedule_batch(sim, delay, handlers):
    """Queue ``handlers`` for one time, one event each, the way Dist's CC
    kick-off queues one announcement per facility."""
    for handler in handlers:
        sim.schedule(delay, handler)


class TestScheduleBatch:
    """Handlers queued together for one time run like any same-time
    events: in the order given, each counted once, split by the guard."""

    def test_handlers_run_in_the_order_given(self):
        sim = Simulator()
        fired = []
        _schedule_batch(
            sim, 1.0,
            [lambda l=label: fired.append((l, sim.now)) for label in "cab"],
        )
        sim.run()
        assert fired == [("c", 1.0), ("a", 1.0), ("b", 1.0)]

    def test_same_time_events_keep_their_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("before"))
        _schedule_batch(
            sim, 1.0, [lambda: fired.append("b1"), lambda: fired.append("b2")]
        )
        sim.schedule(1.0, lambda: fired.append("after"))
        sim.run()
        assert fired == ["before", "b1", "b2", "after"]

    def test_events_scheduled_inside_a_batch_fire_after_it(self):
        # One that schedules with delay 0 (a flood at hop latency 0) lands
        # after all of its peers, as Dist's CC announcements rely on.
        sim = Simulator()
        fired = []

        def first():
            fired.append("b1")
            sim.schedule(0.0, lambda: fired.append("nested"))

        _schedule_batch(sim, 1.0, [first, lambda: fired.append("b2")])
        sim.run()
        assert fired == ["b1", "b2", "nested"]

    def test_each_handler_counts_as_one_event(self):
        from repro.obs import Recorder, use_recorder

        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        _schedule_batch(sim, 1.0, [lambda: None] * 4)
        assert sim.pending == 5
        assert sim.max_queue_depth == 5
        recorder = Recorder()
        with use_recorder(recorder):
            sim.run()
        assert sim.events_processed == 5
        assert sim.pending == 0
        assert recorder.dump()["counters"]["sim.events"] == 5
        assert recorder.dump()["gauges"]["sim.max_queue_depth"]["max"] == 5

    def test_live_depth_drops_per_handler(self):
        sim = Simulator()
        depths = []
        _schedule_batch(
            sim, 1.0, [lambda: depths.append(sim.pending) for _ in range(3)]
        )
        sim.run()
        assert depths == [2, 1, 0]

    def test_max_events_guard_counts_handlers(self):
        sim = Simulator()
        fired = []
        _schedule_batch(sim, 1.0, [lambda i=i: fired.append(i) for i in range(5)])
        sim.schedule(1.0, lambda: fired.append("later"))
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]
        # The rest of the batch is still queued, ahead of the later event.
        assert sim.pending == 3
        sim.run()
        assert fired == [0, 1, 2, 3, 4, "later"]
        assert sim.events_processed == 6

    def test_step_runs_one_handler(self):
        sim = Simulator()
        fired = []
        _schedule_batch(sim, 1.0, [lambda i=i: fired.append(i) for i in range(2)])
        assert sim.step() is True
        assert fired == [0]
        assert sim.pending == 1
        assert sim.step() is True
        assert sim.step() is False
        assert fired == [0, 1]

    def test_empty_batch_schedules_nothing(self):
        sim = Simulator()
        _schedule_batch(sim, 1.0, [])
        assert sim.pending == 0
        assert sim.step() is False


class TestScheduleColumn:
    """A column entry applies its items like one event per item scheduled
    in turn: same order, same counters, same guard."""

    @staticmethod
    def _logger(log, sim):
        def apply(receivers, values):
            log.extend((r, v, sim.now) for r, v in zip(receivers, values))
        return apply

    def test_items_apply_in_the_order_given(self):
        sim = Simulator()
        applied = []
        sim.schedule_column(1.0, self._logger(applied, sim), "cab", [3, 1, 2])
        sim.run()
        assert applied == [("c", 3, 1.0), ("a", 1, 1.0), ("b", 2, 1.0)]

    def test_same_time_events_keep_their_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("before"))
        sim.schedule_column(
            1.0, lambda rs, vs: fired.extend(rs), ["c1", "c2"], [0, 0]
        )
        sim.schedule(1.0, lambda: fired.append("after"))
        sim.run()
        assert fired == ["before", "c1", "c2", "after"]

    def test_each_item_counts_as_one_event(self):
        from repro.obs import Recorder, use_recorder

        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.schedule_column(1.0, lambda rs, vs: None, range(4), range(4))
        assert sim.pending == 5
        assert sim.max_queue_depth == 5
        recorder = Recorder()
        with use_recorder(recorder):
            sim.run()
        assert sim.events_processed == 5
        assert sim.pending == 0
        assert recorder.dump()["counters"]["sim.events"] == 5
        assert recorder.dump()["gauges"]["sim.max_queue_depth"]["max"] == 5

    def test_live_depth_drops_per_item(self):
        sim = Simulator()
        sim.schedule_column(1.0, lambda rs, vs: None, "abc", [1, 2, 3])
        sim.schedule(2.0, lambda: None)
        depths = [sim.pending]
        while sim.step():
            depths.append(sim.pending)
        assert depths == [4, 3, 2, 1, 0]

    def test_max_events_guard_splits_mid_column(self):
        sim = Simulator()
        applied = []
        sim.schedule_column(1.0, self._logger(applied, sim), range(5), "vwxyz")
        sim.schedule(1.0, lambda: applied.append("later"))
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert [r for r, _, _ in applied] == [0, 1, 2]
        # The rest of the column is still queued, ahead of the later event.
        assert sim.pending == 3
        sim.run()
        assert applied[3:] == [(3, "y", 1.0), (4, "z", 1.0), "later"]
        assert sim.events_processed == 6

    def test_step_applies_one_item(self):
        sim = Simulator()
        applied = []
        sim.schedule_column(1.0, self._logger(applied, sim), "ab", [1, 2])
        assert sim.step() is True
        assert applied == [("a", 1, 1.0)]
        assert sim.pending == 1
        assert sim.step() is True
        assert sim.step() is False
        assert applied == [("a", 1, 1.0), ("b", 2, 1.0)]

    def test_empty_column_schedules_nothing(self):
        sim = Simulator()
        sim.schedule_column(1.0, lambda rs, vs: None, [], [])
        assert sim.pending == 0
        assert sim.max_queue_depth == 0
        assert sim.step() is False

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -1.0])
    def test_rejects_bad_delay(self, delay):
        with pytest.raises(SimulationError):
            Simulator().schedule_column(delay, lambda rs, vs: None, [1], [1])

    def test_sanitizer_rejects_an_apply_that_schedules(self, monkeypatch):
        from repro.errors import InvariantError

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sim = Simulator()
        sim.schedule_column(
            1.0, lambda rs, vs: sim.schedule(0.0, lambda: None), [1], [1]
        )
        with pytest.raises(InvariantError, match="column apply"):
            sim.run()
