"""Unit tests for the request-plane serving engine (:mod:`repro.serve`).

The contract under test, in order of importance: *determinism* (same
seed → bit-identical request streams and byte-identical reports, for
every workload generator and every selection policy), then the workload
shapes, the selection semantics, failure injection, observability
hookup, and the CLI surface.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import fields

import pytest

from repro.baselines import solve_hopcount
from repro.core import solve_approximation
from repro.errors import ProblemError
from repro.obs import Recorder, Tracer, use_recorder, use_tracer
from repro.serve import (
    SELECTION_POLICIES,
    WORKLOADS,
    CheapestCost,
    FlashCrowdWorkload,
    HotspotWorkload,
    LeastLoaded,
    PowerOfTwoChoices,
    ServeConfig,
    ServeEngine,
    ServeReport,
    UniformWorkload,
    ZipfWorkload,
    make_selector,
    serve_placement,
)
from repro.serve.engine import request_stream
from repro.workloads import grid_problem


@pytest.fixture(scope="module")
def placement():
    return solve_approximation(grid_problem(4, num_chunks=3))


def take(workload, clients, num_chunks, n):
    return list(
        itertools.islice(workload.stream(clients, num_chunks), n)
    )


def replay(placement, workload, num_requests, batches, policy="cheapest",
           config=ServeConfig()):
    """One engine run on a caller-drawn stream of ``batches``."""
    engine = ServeEngine(
        placement, workload, num_requests, policy=policy, config=config
    )
    return engine.run(batches)


def reference(placement, workload, num_requests, batches, policy="cheapest",
              config=ServeConfig()):
    """The per-request event loop's report on the same ``batches``."""
    engine = ServeEngine(
        placement, workload, num_requests, policy=policy, config=config
    )
    return engine.run_reference(batches)


#: Replay entry point by path name: ``run`` and ``run_reference``.
REPLAYS = {"batched": replay, "per-request": reference}


def fresh(placement, workload, num_requests):
    """A fresh stream of ``num_requests`` requests, as serve_placement
    opens one."""
    return request_stream(placement.problem, workload, num_requests)


def drawn_at(placement, workload, num_requests, batch_size):
    """``num_requests`` of ``workload`` in batches of ``batch_size``."""
    problem = placement.problem
    return workload.stream_batches(
        problem.clients, problem.num_chunks, batch_size, limit=num_requests
    )


CLIENTS = list(range(12))


class TestWorkloadStreams:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_seed_same_stream(self, name):
        workload = WORKLOADS[name](seed=7)
        a = take(workload, CLIENTS, 4, 200)
        b = take(workload, CLIENTS, 4, 200)
        assert a == b

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_different_seed_different_stream(self, name):
        a = take(WORKLOADS[name](seed=1), CLIENTS, 4, 100)
        b = take(WORKLOADS[name](seed=2), CLIENTS, 4, 100)
        assert a != b

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_stream_shape(self, name):
        requests = take(WORKLOADS[name](seed=3), CLIENTS, 4, 150)
        assert [r.index for r in requests] == list(range(150))
        times = [r.time for r in requests]
        assert times == sorted(times)
        assert all(t > 0 for t in times)
        assert all(r.client in CLIENTS for r in requests)
        assert all(0 <= r.chunk < 4 for r in requests)

    def test_interleaved_streams_independent(self):
        # Two live streams from one workload object must not share
        # state: interleaving them changes nothing.
        workload = HotspotWorkload(seed=11)
        solo = take(workload, CLIENTS, 4, 50)
        s1 = workload.stream(CLIENTS, 4)
        s2 = workload.stream(CLIENTS, 4)
        interleaved = []
        for _ in range(50):
            interleaved.append(next(s1))
            next(s2)
        assert interleaved == solo

    def test_zipf_skews_toward_low_chunks(self):
        requests = take(ZipfWorkload(seed=5, exponent=1.2), CLIENTS, 5, 3000)
        counts = [0] * 5
        for r in requests:
            counts[r.chunk] += 1
        assert counts[0] == max(counts)
        assert counts[0] > counts[4] * 2

    def test_uniform_covers_chunks(self):
        requests = take(UniformWorkload(seed=5), CLIENTS, 5, 2000)
        assert {r.chunk for r in requests} == set(range(5))

    def test_hotspot_concentrates_clients(self):
        workload = HotspotWorkload(seed=9, hot_fraction=0.25, boost=8.0)
        requests = take(workload, CLIENTS, 2, 4000)
        counts = {c: 0 for c in CLIENTS}
        for r in requests:
            counts[r.client] += 1
        top3 = sum(sorted(counts.values())[-3:])
        # 3 of 12 clients at 8x demand hold 8*3/(8*3+9) ~ 73% of traffic.
        assert top3 > 0.5 * len(requests)

    def test_flash_crowd_burst_targets_chunk_zero(self):
        workload = FlashCrowdWorkload(
            seed=13, rate=5.0, burst_start=2.0, burst_duration=4.0,
            burst_factor=20.0,
        )
        requests = take(workload, CLIENTS, 5, 2000)
        in_burst = [r for r in requests if 2.0 <= r.time < 6.0]
        out_burst = [r for r in requests if not 2.0 <= r.time < 6.0]
        assert in_burst and out_burst
        assert all(r.chunk == 0 for r in in_burst)
        # 20x the arrival rate inside a window a fraction of the span.
        span = requests[-1].time
        burst_share = len(in_burst) / len(requests)
        assert burst_share > 4.0 / span  # far above the uniform share

    def test_validation(self):
        with pytest.raises(ProblemError):
            UniformWorkload(rate=-1.0)
        with pytest.raises(ProblemError):
            ZipfWorkload(exponent=-1.0)
        with pytest.raises(ProblemError):
            HotspotWorkload(hot_fraction=1.5)
        with pytest.raises(ProblemError):
            FlashCrowdWorkload(burst_factor=0.5)
        with pytest.raises(ProblemError):
            UniformWorkload().stream([], 3)
        with pytest.raises(ProblemError):
            UniformWorkload().stream(CLIENTS, 0)
        with pytest.raises(ProblemError):
            UniformWorkload().stream_batches([], 3)
        with pytest.raises(ProblemError):
            UniformWorkload().stream_batches(CLIENTS, 0)
        with pytest.raises(ProblemError):
            UniformWorkload().stream_batches(CLIENTS, 3, batch_size=0)

    @pytest.mark.parametrize("name, field", [
        (name, field)
        for name in sorted(WORKLOADS)
        for field in (
            "rate", "exponent", "boost", "burst_start", "burst_duration",
            "burst_factor", "period", "shift_period",
        )
        if hasattr(WORKLOADS[name], field)
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, name, field, value):
        with pytest.raises(ProblemError, match=f"{field} must be finite"):
            WORKLOADS[name](**{field: value})

    def test_zero_rate_streams_are_empty(self):
        workload = UniformWorkload(seed=3, rate=0.0)
        assert list(workload.stream(CLIENTS, 4)) == []
        assert list(workload.stream_batches(CLIENTS, 4)) == []

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_batches_match_per_request_stream(self, name, batch_size):
        # The batched engine's equivalence guarantee starts here: the
        # SoA columns must carry exactly the per-request stream values.
        workload = WORKLOADS[name](seed=17)
        requests = take(workload, CLIENTS, 4, 200)
        batches = workload.stream_batches(CLIENTS, 4, batch_size=batch_size)
        flat = []
        while len(flat) < 200:
            times, clients, chunks = next(batches)
            flat.extend(zip(times, clients, chunks))
        flat = flat[:200]
        assert flat == [(r.time, r.client, r.chunk) for r in requests]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_limited_batches_stop_at_the_limit(self, name):
        # 200 is not a multiple of 64: three full batches, then the 8
        # requests left, then the stream ends.
        workload = WORKLOADS[name](seed=17)
        requests = take(workload, CLIENTS, 4, 200)
        batches = list(
            workload.stream_batches(CLIENTS, 4, batch_size=64, limit=200)
        )
        assert [len(times) for times, _, _ in batches] == [64, 64, 64, 8]
        flat = [
            row for times, clients, chunks in batches
            for row in zip(times, clients, chunks)
        ]
        assert flat == [(r.time, r.client, r.chunk) for r in requests]

    def test_limit_validation(self):
        assert list(UniformWorkload().stream_batches(CLIENTS, 3, limit=0)) == []
        with pytest.raises(ProblemError):
            UniformWorkload().stream_batches(CLIENTS, 3, limit=-1)


class _StaticView:
    """A scripted ServeView for selection-policy unit tests."""

    def __init__(self, costs, depths, rng=None):
        import random

        self._costs = costs
        self._depths = depths
        self.rng = rng or random.Random(0)

    def cost(self, server, client):
        return self._costs[server]

    def queue_depth(self, server):
        return self._depths[server]


class TestSelection:
    def test_cheapest_picks_min_cost(self):
        selector = CheapestCost()
        selector.bind(_StaticView({"a": 3.0, "b": 1.0, "p": 2.0}, {}))
        assert selector.choose(0, 0, ["a", "b", "p"]) == "b"

    def test_cheapest_tie_prefers_earlier(self):
        selector = CheapestCost()
        selector.bind(_StaticView({"a": 1.0, "b": 1.0, "p": 1.0}, {}))
        assert selector.choose(0, 0, ["a", "b", "p"]) == "a"

    def test_least_loaded_ignores_cost(self):
        selector = LeastLoaded()
        selector.bind(
            _StaticView({"a": 0.5, "b": 9.0}, {"a": 4, "b": 0})
        )
        assert selector.choose(0, 0, ["a", "b"]) == "b"

    def test_least_loaded_breaks_ties_by_cost(self):
        selector = LeastLoaded()
        selector.bind(
            _StaticView({"a": 2.0, "b": 1.0}, {"a": 1, "b": 1})
        )
        assert selector.choose(0, 0, ["a", "b"]) == "b"

    def test_p2c_single_candidate(self):
        selector = PowerOfTwoChoices()
        selector.bind(_StaticView({"a": 1.0}, {"a": 9}))
        assert selector.choose(0, 0, ["a"]) == "a"

    def test_p2c_prefers_less_loaded_sample(self):
        import random

        selector = PowerOfTwoChoices()
        view = _StaticView(
            {"a": 1.0, "b": 1.0}, {"a": 5, "b": 0}, rng=random.Random(4)
        )
        selector.bind(view)
        # With two candidates, both are always sampled: "b" must win.
        for _ in range(10):
            assert selector.choose(0, 0, ["a", "b"]) == "b"

    def test_make_selector(self):
        assert isinstance(make_selector("cheapest"), CheapestCost)
        passthrough = LeastLoaded()
        assert make_selector(passthrough) is passthrough
        with pytest.raises(KeyError):
            make_selector("nope")

    def test_registry_names_match_classes(self):
        for name, cls in SELECTION_POLICIES.items():
            assert cls.name == name
        for name, cls in WORKLOADS.items():
            assert cls.name == name


class TestEngineDeterminism:
    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    @pytest.mark.parametrize("policy", sorted(SELECTION_POLICIES))
    def test_report_byte_identical(self, placement, workload_name, policy):
        workload = WORKLOADS[workload_name](seed=21)
        config = ServeConfig(failure_rate=0.3, seed=21)
        first = serve_placement(
            placement, workload, 250, policy=policy, config=config
        )
        second = serve_placement(
            placement, workload, 250, policy=policy, config=config
        )
        assert first.to_json() == second.to_json()

    def test_engine_seed_changes_failures(self, placement):
        workload = ZipfWorkload(seed=21)
        reports = [
            serve_placement(
                placement, workload, 300,
                config=ServeConfig(failure_rate=0.5, seed=seed),
            )
            for seed in (1, 2, 3, 4)
        ]
        assert len({r.failovers for r in reports}) > 1


class TestBatchedEquivalence:
    """The batched hot path is a pure optimisation: byte-identical
    ServeReport JSON to the per-request reference path, for every
    workload × policy combination, at two seeds (the ISSUE 6 acceptance
    harness)."""

    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    @pytest.mark.parametrize("policy", sorted(SELECTION_POLICIES))
    @pytest.mark.parametrize("seed", [7, 21])
    def test_batched_matches_per_request(
        self, placement, workload_name, policy, seed
    ):
        workload = WORKLOADS[workload_name](seed=seed)
        config = ServeConfig(failure_rate=0.3, seed=seed)
        expected = reference(
            placement, workload, 300, fresh(placement, workload, 300),
            policy=policy, config=config,
        )
        batched = replay(
            placement, workload, 300, drawn_at(placement, workload, 300, 64),
            policy=policy, config=config,
        )
        assert batched.to_json() == expected.to_json()

    def test_batch_size_does_not_change_report(self, placement):
        workload = ZipfWorkload(seed=5)
        reports = [
            replay(
                placement, workload, 300,
                drawn_at(placement, workload, 300, size),
                config=ServeConfig(seed=5),
            ).to_json()
            for size in (1, 3, 100, 8192)
        ]
        assert reports == [serve_placement(
            placement, workload, 300, config=ServeConfig(seed=5)
        ).to_json()] * 4

    @pytest.mark.parametrize("skip", [0, 100])
    def test_batched_draws_only_the_requests_it_reads(self, placement, skip):
        """Handed an endless stream that starts ``skip`` requests in, the
        replay reads no batch past the one holding its last request, and
        both engines serve the same window."""
        workload = ZipfWorkload(seed=5)
        problem = placement.problem
        drawn = {}

        def mid_stream(engine):
            drawn[engine] = 0
            to_skip = skip
            for times, clients, chunks in workload.stream_batches(
                problem.clients, problem.num_chunks, 64
            ):
                drawn[engine] += len(times)
                cut = min(to_skip, len(times))
                to_skip -= cut
                if cut < len(times):
                    yield times[cut:], clients[cut:], chunks[cut:]

        reports = {
            engine: run(
                placement, workload, 300, mid_stream(engine),
                config=ServeConfig(seed=5),
            ).to_json()
            for engine, run in REPLAYS.items()
        }
        assert drawn["batched"] == 64 * -(-(skip + 300) // 64)
        assert reports["batched"] == reports["per-request"]
        assert json.loads(reports["batched"])["completed"] == 300

    def test_batched_counters_match_per_request(self, placement):
        workload = ZipfWorkload(seed=9)
        dumps = {}
        for engine, run in REPLAYS.items():
            recorder = Recorder()
            with use_recorder(recorder):
                run(
                    placement, workload, 200,
                    fresh(placement, workload, 200),
                    config=ServeConfig(failure_rate=0.4, timeout=1.0, seed=9),
                )
            dumps[engine] = recorder.dump()["counters"]
        for name in ("serve.requests", "serve.failovers", "serve.timeouts"):
            assert dumps["batched"].get(name, 0) == \
                dumps["per-request"].get(name, 0)
        assert dumps["batched"]["serve.batch.requests"] == 200
        assert dumps["batched"]["serve.batch.batches"] >= 1
        assert dumps["batched"]["serve.batch.table_entries"] > 0
        assert "serve.batch.batches" not in dumps["per-request"]

    @pytest.mark.parametrize("position", ["start", "middle", "end"])
    @pytest.mark.parametrize("policy", ["cheapest", "least-loaded", "p2c"])
    def test_empty_batch_changes_nothing(self, placement, policy, position):
        """An empty batch is read, counted as a batch and serves nothing.

        The stream holds 50 requests in batches of 16 and the replay
        asks for 60, so even a trailing empty batch is read.
        """
        workload = ZipfWorkload(seed=4, rate=4.0)
        batches = list(drawn_at(placement, workload, 50, 16))
        at = {"start": 0, "middle": 2, "end": len(batches)}[position]
        padded = batches[:at] + [([], [], [])] + batches[at:]
        config = ServeConfig(failure_rate=0.3, seed=4)
        plain = replay(placement, workload, 60, batches, policy, config)
        recorder = Recorder()
        with use_recorder(recorder):
            report = replay(placement, workload, 60, padded, policy, config)
        expected = reference(placement, workload, 60, padded, policy, config)
        assert report.completed == 50
        assert report.to_json() == plain.to_json() == expected.to_json()
        counters = recorder.dump()["counters"]
        assert counters["serve.batch.batches"] == len(padded)

    def test_batched_trace_instants_match(self, placement):
        tracer = Tracer()
        with use_tracer(tracer):
            report = serve_placement(placement, ZipfWorkload(seed=2), 50)
        names = [event.name for event in tracer.events]
        assert names.count("serve.request") == report.completed
        assert "serve.batch" in names


class TestDegenerateReplays:
    """Zero-rate, zero-request, and single-node replays exit cleanly
    with the canonical zero-request report on both engine paths."""

    @pytest.mark.parametrize("engine", sorted(REPLAYS))
    def test_zero_rate_workload(self, placement, engine):
        workload = UniformWorkload(seed=2, rate=0.0)
        report = REPLAYS[engine](
            placement, workload, 500, fresh(placement, workload, 500)
        )
        assert report.requests == 500
        assert report.completed == 0
        assert report.makespan == 0.0
        assert report.throughput == 0.0
        assert report.latency_p99 == 0.0
        assert all(v == 0 for v in report.served_loads.values())

    @pytest.mark.parametrize("engine", sorted(REPLAYS))
    def test_single_node_topology(self, engine):
        # A 1x1 grid is just the producer: no clients, no requests.
        problem = grid_problem(1, num_chunks=2)
        single = solve_approximation(problem)
        workload = ZipfWorkload(seed=2)
        report = REPLAYS[engine](
            single, workload, 100, fresh(single, workload, 100)
        )
        assert report.completed == 0
        assert report.served_gini == 0.0
        assert report.served_jains == 1.0

    def test_zero_rate_reports_identical_across_engines(self, placement):
        workload = ZipfWorkload(seed=2, rate=0.0)
        reports = [
            run(placement, workload, 100,
                fresh(placement, workload, 100)).to_json()
            for run in REPLAYS.values()
        ]
        assert reports[0] == reports[1]

    def test_zero_duration_burst_behaves_like_zipf(self, placement):
        crowd = FlashCrowdWorkload(seed=4, burst_duration=0.0)
        plain = ZipfWorkload(seed=4)
        a = serve_placement(placement, crowd, 200)
        b = serve_placement(placement, plain, 200)
        assert a.completed == b.completed == 200
        assert a.latency_mean == b.latency_mean




class TestEngineSemantics:
    def test_all_requests_complete(self, placement):
        report = serve_placement(placement, UniformWorkload(seed=2), 400)
        assert report.completed == report.requests == 400
        assert report.makespan > 0
        assert report.throughput == pytest.approx(400 / report.makespan)
        assert sum(report.served_loads.values()) + report.producer_served == 400

    def test_latency_percentiles_ordered(self, placement):
        r = serve_placement(placement, ZipfWorkload(seed=2), 400)
        assert 0 <= r.latency_p50 <= r.latency_p95 <= r.latency_p99
        assert r.latency_p99 <= r.latency_max

    def test_all_dead_falls_back_to_producer(self, placement):
        report = serve_placement(
            placement, ZipfWorkload(seed=2), 200,
            config=ServeConfig(failure_rate=1.0),
        )
        assert report.producer_served == 200
        assert report.failovers > 0
        assert report.retried_requests > 0
        assert all(v == 0 for v in report.served_loads.values())

    def test_no_failures_no_failovers(self, placement):
        report = serve_placement(placement, ZipfWorkload(seed=2), 200)
        assert report.failovers == 0
        assert report.retried_requests == 0

    def test_retry_penalty_raises_latency(self, placement):
        workload = ZipfWorkload(seed=2)
        cheap = serve_placement(
            placement, workload, 200,
            config=ServeConfig(failure_rate=1.0, retry_penalty=0.0, seed=5),
        )
        dear = serve_placement(
            placement, workload, 200,
            config=ServeConfig(failure_rate=1.0, retry_penalty=2.0, seed=5),
        )
        assert dear.latency_mean > cheap.latency_mean

    def test_tight_timeout_counts_all(self, placement):
        report = serve_placement(
            placement, ZipfWorkload(seed=2), 150,
            config=ServeConfig(timeout=0.0),
        )
        # Every remotely-served request exceeds a zero timeout (and a
        # self-serve can too, when it queues behind another transfer at
        # its own node).
        assert report.timeouts >= report.completed - report.self_served
        assert report.timeouts <= report.completed

    def test_zero_requests(self, placement):
        report = serve_placement(placement, ZipfWorkload(seed=2), 0)
        assert report.completed == 0
        assert report.makespan == 0.0
        assert report.throughput == 0.0
        assert report.latency_p99 == 0.0

    def test_config_validation(self):
        with pytest.raises(ProblemError):
            ServeConfig(failure_rate=1.5)
        with pytest.raises(ProblemError):
            ServeConfig(timeout=-1.0)
        with pytest.raises(ProblemError):
            ServeConfig(retry_penalty=-0.1)

    def test_config_fields(self):
        # The replay path is not a knob: every policy has one.
        assert [f.name for f in fields(ServeConfig)] == [
            "failure_rate", "timeout", "retry_penalty", "dcf", "seed",
        ]

    def test_hopcount_concentrates_served_load(self, placement):
        problem = placement.problem
        hopc = solve_hopcount(problem)
        workload = ZipfWorkload(seed=2)
        fair = serve_placement(placement, workload, 500)
        lumpy = serve_placement(hopc, workload, 500)
        assert fair.served_gini < lumpy.served_gini


class TestObservability:
    def test_counters_recorded(self, placement):
        recorder = Recorder()
        with use_recorder(recorder):
            report = serve_placement(
                placement, ZipfWorkload(seed=2), 200,
                config=ServeConfig(failure_rate=0.5, timeout=1.0),
            )
        dump = recorder.dump()
        assert dump["counters"]["serve.requests"] == report.completed
        assert dump["counters"]["serve.failovers"] == report.failovers
        assert dump["counters"]["serve.timeouts"] == report.timeouts
        assert "serve.replay" in dump["timers"]

    def test_trace_events_emitted(self, placement):
        tracer = Tracer()
        with use_tracer(tracer):
            report = serve_placement(placement, ZipfWorkload(seed=2), 50)
        names = [event.name for event in tracer.events]
        assert "serve.session" in names
        assert names.count("serve.request") == report.completed

    def test_report_identical_with_and_without_obs(self, placement):
        # Zero-overhead contract: instrumentation must not perturb the
        # replay.
        bare = serve_placement(placement, ZipfWorkload(seed=2), 150)
        with use_recorder(Recorder()), use_tracer(Tracer()):
            instrumented = serve_placement(
                placement, ZipfWorkload(seed=2), 150
            )
        assert bare.to_json() == instrumented.to_json()


class TestServeReport:
    def test_round_trip(self, placement):
        report = serve_placement(placement, ZipfWorkload(seed=2), 100)
        clone = ServeReport.from_dict(report.to_dict())
        assert clone == report
        assert clone.to_json() == report.to_json()

    def test_json_is_valid_and_schema_tagged(self, placement):
        report = serve_placement(placement, ZipfWorkload(seed=2), 100)
        data = json.loads(report.to_json())
        assert data["schema"] == "repro-serve/1"
        assert data["requests"] == 100

    def test_render_mentions_key_stats(self, placement):
        text = serve_placement(
            placement, ZipfWorkload(seed=2), 100
        ).render()
        assert "served-load Gini" in text
        assert "throughput" in text


class TestServeCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--grid", "4"])
        assert args.command == "serve"
        assert args.workload == "zipf"
        assert args.policy == "cheapest"
        assert args.requests == 10_000
        assert args.failure_rate == 0.0
        assert args.trace is None

    def test_topology_required(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_grid_runs(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "--grid", "4", "--chunks", "2", "--requests", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "served-load Gini" in out

    def test_json_output_deterministic(self, capsys):
        from repro.cli import main

        argv = [
            "serve", "--grid", "4", "--chunks", "2", "--requests", "150",
            "--workload", "zipf", "--seed", "2017", "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["schema"] == "repro-serve/1"

    def test_unknown_workload_rejected(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "--grid", "4", "--workload", "bogus",
        ]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_policy_rejected(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "--grid", "4", "--policy", "bogus",
        ]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_list_mentions_serve_registries(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "workloads:" in out
        assert "zipf" in out
        assert "selection policies:" in out
        assert "p2c" in out

    def test_trace_written(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "serve-trace.json"
        assert main([
            "serve", "--grid", "4", "--chunks", "2", "--requests", "50",
            "--trace", str(path),
        ]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert any(e.get("name") == "serve.session" for e in events)
