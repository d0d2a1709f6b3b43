"""Unit tests for the observability layer (repro.obs)."""

import json
import time

import pytest

from repro.obs import (
    NullRecorder,
    Recorder,
    get_recorder,
    set_recorder,
    use_recorder,
)
from repro.workloads import grid_problem


class TestCounters:
    def test_default_increment_is_one(self):
        rec = Recorder()
        rec.count("x")
        rec.count("x")
        assert rec.counter("x") == 2

    def test_custom_increment(self):
        rec = Recorder()
        rec.count("rounds", 7)
        rec.count("rounds", 3)
        assert rec.counter("rounds") == 10

    def test_missing_counter_is_zero(self):
        assert Recorder().counter("never") == 0


class TestTimers:
    def test_records_seconds_and_calls(self):
        rec = Recorder()
        with rec.timer("phase"):
            time.sleep(0.001)
        dump = rec.dump()
        assert dump["timers"]["phase"]["calls"] == 1
        assert dump["timers"]["phase"]["seconds"] > 0

    def test_nesting_builds_paths(self):
        rec = Recorder()
        with rec.timer("outer"):
            with rec.timer("inner"):
                pass
            with rec.timer("inner"):
                pass
        dump = rec.dump()
        assert set(dump["timers"]) == {"outer", "outer/inner"}
        assert dump["timers"]["outer/inner"]["calls"] == 2

    def test_same_name_nested_twice(self):
        rec = Recorder()
        with rec.timer("a"):
            with rec.timer("a"):
                pass
        assert set(rec.dump()["timers"]) == {"a", "a/a"}

    def test_stack_unwinds_on_exception(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            with rec.timer("outer"):
                raise ValueError("boom")
        assert rec.active_phase is None
        # A later timer must not inherit the failed phase as a parent.
        with rec.timer("later"):
            pass
        assert "later" in rec.dump()["timers"]

    def test_timer_seconds_accessor(self):
        rec = Recorder()
        with rec.timer("t"):
            pass
        assert rec.timer_seconds("t") >= 0.0
        assert rec.timer_seconds("absent") == 0.0

    def test_per_call_min_max_mean(self):
        rec = Recorder()
        with rec.timer("t"):
            time.sleep(0.002)
        with rec.timer("t"):
            pass
        stat = rec.dump()["timers"]["t"]
        assert stat["calls"] == 2
        assert 0.0 <= stat["min"] <= stat["max"]
        assert stat["max"] >= 0.002
        assert stat["mean"] == pytest.approx(stat["seconds"] / 2)
        # min/max bracket the mean and the render shows the worst case.
        assert stat["min"] <= stat["mean"] <= stat["max"]
        assert "max" in rec.render()


class TestGauges:
    def test_summary_statistics(self):
        rec = Recorder()
        for value in (3, 1, 2):
            rec.gauge("depth", value)
        stat = rec.dump()["gauges"]["depth"]
        assert stat == {"last": 2, "min": 1, "max": 3, "mean": 2.0, "count": 3}

    def test_repeated_calls_aggregate_not_overwrite(self):
        # A gauge sampled many times must keep the full count and the
        # extremes, not just the latest value.
        rec = Recorder()
        for value in range(10):
            rec.gauge("q", value)
        for value in range(9, -1, -1):
            rec.gauge("q", value)
        stat = rec.dump()["gauges"]["q"]
        assert stat["count"] == 20
        assert stat["min"] == 0
        assert stat["max"] == 9
        assert stat["last"] == 0
        assert stat["mean"] == pytest.approx(4.5)

    def test_single_sample(self):
        rec = Recorder()
        rec.gauge("one", 7.5)
        assert rec.dump()["gauges"]["one"] == {
            "last": 7.5, "min": 7.5, "max": 7.5, "mean": 7.5, "count": 1,
        }


class TestDump:
    def test_json_round_trip(self):
        rec = Recorder()
        rec.count("c", 5)
        rec.gauge("g", 1.5)
        with rec.timer("t"):
            pass
        assert json.loads(rec.to_json()) == rec.dump()

    def test_reset_clears_everything(self):
        rec = Recorder()
        rec.count("c")
        rec.gauge("g", 1)
        with rec.timer("t"):
            pass
        rec.reset()
        dump = rec.dump()
        assert dump["counters"] == {}
        assert dump["timers"] == {}
        assert dump["gauges"] == {}

    def test_dump_embeds_manifest(self):
        rec = Recorder()
        manifest = rec.dump()["manifest"]
        assert manifest["schema"] == "repro-manifest/1"
        assert set(manifest) >= {"python", "platform", "git_sha",
                                 "created_unix"}
        # The manifest is stable across dumps of the same recorder, so
        # dump() == json.loads(to_json()) holds (created_unix is pinned
        # at construction).
        assert rec.dump()["manifest"] == manifest

    def test_annotations_reach_manifest_and_survive_reset(self):
        rec = Recorder()
        rec.annotate(scenario="small", seed=2017)
        rec.count("c")
        rec.reset()
        manifest = rec.dump()["manifest"]
        assert manifest["scenario"] == "small"
        assert manifest["seed"] == 2017

    def test_render_mentions_all_sections(self):
        rec = Recorder()
        rec.count("my.counter")
        rec.gauge("my.gauge", 4)
        with rec.timer("my_phase"):
            pass
        text = rec.render()
        assert "my.counter" in text
        assert "my.gauge" in text
        assert "my_phase" in text

    def test_empty_render(self):
        assert Recorder().render() == "(recorder is empty)"


class TestNullRecorder:
    def test_records_nothing(self):
        rec = NullRecorder()
        rec.count("c", 100)
        rec.gauge("g", 1)
        with rec.timer("t"):
            pass
        dump = rec.dump()
        assert dump["counters"] == {}
        assert dump["timers"] == {}
        assert dump["gauges"] == {}

    def test_timer_is_shared_noop(self):
        rec = NullRecorder()
        assert rec.timer("a") is rec.timer("b")

    def test_overhead_is_small(self):
        # The no-op path must stay in the tens-of-ns regime; a generous
        # bound keeps this stable on slow CI machines.
        rec = NullRecorder()
        start = time.perf_counter()
        for _ in range(100_000):
            rec.count("x")
        assert time.perf_counter() - start < 0.5


class TestActiveRecorder:
    def test_default_is_null(self):
        assert isinstance(get_recorder(), NullRecorder)

    def test_use_recorder_swaps_and_restores(self):
        default = get_recorder()
        rec = Recorder()
        with use_recorder(rec) as active:
            assert active is rec
            assert get_recorder() is rec
        assert get_recorder() is default

    def test_restores_on_exception(self):
        default = get_recorder()
        with pytest.raises(RuntimeError):
            with use_recorder(Recorder()):
                raise RuntimeError
        assert get_recorder() is default

    def test_set_recorder_none_restores_default(self):
        rec = Recorder()
        set_recorder(rec)
        try:
            assert get_recorder() is rec
        finally:
            set_recorder(None)
        assert isinstance(get_recorder(), NullRecorder)


class TestInstrumentation:
    """The hot paths actually report through an active recorder."""

    @pytest.fixture
    def problem(self):
        return grid_problem(4, num_chunks=2)

    def test_approximation_phases_and_counters(self, problem):
        from repro.core import solve_approximation

        rec = Recorder()
        with use_recorder(rec):
            solve_approximation(problem)
        dump = rec.dump()
        for path in (
            "solve_approximation",
            "solve_approximation/cost_rebuild",
            "solve_approximation/dual_ascent",
            "solve_approximation/commit",
            "solve_approximation/commit/steiner",
        ):
            assert path in dump["timers"], path
        assert rec.counter("dual_ascent.runs") == problem.num_chunks
        assert rec.counter("dual_ascent.rounds") > 0
        assert rec.counter("costs.invalidations") > 0
        assert rec.counter("costs.row_builds") > 0
        # Every client freezes exactly once per chunk.
        freezes = (
            rec.counter("dual_ascent.freezes.direct")
            + rec.counter("dual_ascent.freezes.via_opening")
        )
        assert freezes == len(problem.clients) * problem.num_chunks

    def test_distributed_messages_and_gauges(self, problem):
        from repro.distributed import solve_distributed

        rec = Recorder()
        with use_recorder(rec):
            outcome = solve_distributed(problem)
        dump = rec.dump()
        assert rec.counter("dist.messages.total") == outcome.stats.total_messages()
        assert rec.counter("dist.messages.NPI") == outcome.stats.messages["NPI"]
        # The always-on Table II census (summed per chunk session) must
        # agree with the MessageStats totals exactly.
        assert rec.counter("protocol.msgs.total") == outcome.stats.total_messages()
        for msg_type, count in outcome.stats.messages.items():
            if count:
                assert rec.counter(f"protocol.msgs.{msg_type}") == count
        assert rec.counter("sim.events") == outcome.sim_events
        assert rec.counter("dist.chunk_sessions") == problem.num_chunks
        assert "dist.node_tight_queue" in dump["gauges"]
        assert "sim.max_queue_depth" in dump["gauges"]
        assert "solve_distributed" in dump["timers"]
        assert "solve_distributed/chunk_session/commit" in dump["timers"]

    def test_uninstrumented_run_leaves_default_recorder_empty(self, problem):
        from repro.core import solve_approximation

        solve_approximation(problem)
        dump = get_recorder().dump()
        assert dump["counters"] == {}
        assert dump["timers"] == {}
        assert dump["gauges"] == {}

