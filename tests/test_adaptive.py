"""Tests for repro.adaptive — the closed-loop control plane.

The two load-bearing properties:

* **Quiescence** — under a stationary workload the controller never
  acts, and the final placement is the *bit-identical* one-shot
  Algorithm 1 output (the same ChunkPlacement objects, zero moves).
* **Never-worsen** — every accepted local move strictly improves the
  demand-weighted access cost net of its transfer cost, verified
  against a fresh (non-incremental) cost model under REPRO_SANITIZE.

Plus the determinism contract (byte-identical reports), the demand
export the signal layer builds on, the drift workload generators, and
the adapt surfaces of the CLI and the sweep runner.
"""

import itertools
import json
from collections import Counter

import pytest

from repro.adaptive import (
    ACTION_MOVES,
    ACTION_NONE,
    ACTION_RESOLVE,
    ADAPTIVE_POLICIES,
    ADAPTIVE_SCHEMA,
    AdaptiveConfig,
    AdaptiveController,
    AdaptiveReport,
    DemandEstimator,
    DemandSnapshot,
    chunk_drift,
    run_adaptive,
)
from repro.core.approximation import solve_approximation
from repro.errors import ProblemError
from repro.serve.engine import ServeEngine
from repro.serve.workloads import (
    WORKLOADS,
    DiurnalWorkload,
    ShiftWorkload,
    ZipfWorkload,
)
from repro.workloads import grid_problem


def small_problem():
    """The paper's 4x4 grid, sized so adaptive runs take ~0.1 s."""
    return grid_problem(4, num_chunks=4, capacity=2)


def shift_workload(seed=2017, epoch_requests=1200, rate=4.0):
    """One popularity reshuffle per control epoch."""
    return ShiftWorkload(
        seed=seed, rate=rate, exponent=1.2,
        shift_period=epoch_requests / rate,
    )


# ---------------------------------------------------------------------------
# Signals: estimator and drift


class TestDemandEstimator:
    def test_first_epoch_is_the_share(self):
        est = DemandEstimator(alpha=0.5)
        est.update({("a", 0): 3, ("b", 1): 1})
        snap = est.snapshot()
        assert snap.share("a", 0) == 0.75
        assert snap.share("b", 1) == 0.25
        assert est.epochs_observed == 1

    def test_ewma_math_is_exact(self):
        est = DemandEstimator(alpha=0.5)
        est.update({("a", 0): 1})
        est.update({("b", 1): 1})
        snap = est.snapshot()
        assert snap.share("a", 0) == 0.5  # 0.5*1.0 + 0.5*0.0
        assert snap.share("b", 1) == 0.5
        assert est.epochs_observed == 2

    def test_zero_request_epoch_is_a_no_op(self):
        est = DemandEstimator()
        est.update({("a", 0): 4})
        before = est.snapshot().pairs()
        est.update({})
        assert est.snapshot().pairs() == before
        assert est.epochs_observed == 1

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ProblemError):
            DemandEstimator(alpha=alpha)

    def test_negative_counts_rejected(self):
        with pytest.raises(ProblemError):
            DemandEstimator().update({("a", 0): -1})


class TestDemandSnapshot:
    def test_marginals_and_weights(self):
        snap = DemandSnapshot({("a", 0): 0.5, ("b", 0): 0.25, ("a", 1): 0.25})
        assert snap.chunk_share(0) == 0.75
        assert snap.chunk_clients(1) == [("a", 0.25)]
        assert snap.weights(100.0) == {
            ("a", 0): 50.0, ("b", 0): 25.0, ("a", 1): 25.0,
        }
        with pytest.raises(ProblemError):
            snap.weights(-1.0)

    def test_unobserved_pairs_are_zero(self):
        assert DemandSnapshot({}).share("x", 3) == 0.0


class TestChunkDrift:
    def test_identical_snapshots_have_zero_drift(self):
        snap = DemandSnapshot({("a", 0): 0.6, ("b", 1): 0.4})
        assert chunk_drift(snap, snap, 2) == {0: 0.0, 1: 0.0}

    def test_l1_per_chunk(self):
        cur = DemandSnapshot({("a", 0): 0.8, ("a", 1): 0.2})
        ref = DemandSnapshot({("a", 0): 0.2, ("a", 1): 0.8})
        drift = chunk_drift(cur, ref, 2)
        assert drift[0] == pytest.approx(0.6)
        assert drift[1] == pytest.approx(0.6)

    def test_unknown_chunk_rejected(self):
        cur = DemandSnapshot({("a", 5): 1.0})
        with pytest.raises(ProblemError, match="unknown chunk"):
            chunk_drift(cur, DemandSnapshot({}), 2)


# ---------------------------------------------------------------------------
# Policies


class TestPolicies:
    def test_registry_is_the_full_ablation(self):
        assert sorted(ADAPTIVE_POLICIES) == [
            "hybrid", "moves-only", "resolve-only", "static",
        ]

    def test_static_never_acts(self):
        policy = ADAPTIVE_POLICIES["static"]
        assert policy.classify(99.0, 0.1, 0.3) == ACTION_NONE

    def test_hybrid_thresholds(self):
        policy = ADAPTIVE_POLICIES["hybrid"]
        assert policy.classify(0.05, 0.1, 0.3) == ACTION_NONE
        assert policy.classify(0.2, 0.1, 0.3) == ACTION_MOVES
        assert policy.classify(0.3, 0.1, 0.3) == ACTION_RESOLVE

    def test_single_mechanism_policies(self):
        # moves-only handles even heavy drift with moves; resolve-only
        # ignores moderate drift entirely.
        assert (
            ADAPTIVE_POLICIES["moves-only"].classify(0.9, 0.1, 0.3)
            == ACTION_MOVES
        )
        assert (
            ADAPTIVE_POLICIES["resolve-only"].classify(0.2, 0.1, 0.3)
            == ACTION_NONE
        )
        assert (
            ADAPTIVE_POLICIES["resolve-only"].classify(0.4, 0.1, 0.3)
            == ACTION_RESOLVE
        )


# ---------------------------------------------------------------------------
# Quiescence: stationary demand => the controller never touches anything


class TestQuiescence:
    def test_stationary_workload_is_quiescent(self):
        problem = small_problem()
        controller = AdaptiveController(
            problem,
            ZipfWorkload(seed=2017, rate=4.0, exponent=1.2),
            AdaptiveConfig(epochs=4, epoch_requests=1200),
        )
        report = controller.run()
        assert report.total_moves == 0
        assert report.total_resolves == 0
        assert report.total_adaptation_cost == 0.0
        # With zero actions the two arms price identically every epoch.
        assert report.savings == 0.0
        for record in report.epoch_records:
            assert record.drift_max < 0.1
            assert record.dirty_chunks == 0

    def test_final_placement_is_the_one_shot_output(self):
        """Not just equal — the identical ChunkPlacement objects."""
        problem = small_problem()
        controller = AdaptiveController(
            problem,
            ZipfWorkload(seed=2017, rate=4.0, exponent=1.2),
            AdaptiveConfig(epochs=4, epoch_requests=1200),
        )
        controller.run()
        baseline = solve_approximation(problem)
        for final, boot, oneshot in zip(
            controller.final_placement.chunks,
            controller.baseline_placement.chunks,
            baseline.chunks,
        ):
            assert final is boot
            assert set(final.caches) == set(oneshot.caches)


# ---------------------------------------------------------------------------
# Adaptation under drift


class TestAdaptationUnderDrift:
    def test_adaptive_beats_static_under_shift(self):
        problem = small_problem()
        report = run_adaptive(
            problem,
            shift_workload(),
            AdaptiveConfig(epochs=6, epoch_requests=1200),
        )
        assert report.total_moves > 0
        # All-in: the adaptive side already paid its transfers.
        assert report.savings > 0

    def test_static_policy_is_an_exact_control_arm(self):
        problem = small_problem()
        report = run_adaptive(
            problem,
            shift_workload(),
            AdaptiveConfig(epochs=4, epoch_requests=1200, policy="static"),
        )
        assert report.total_moves == 0
        assert report.total_resolves == 0
        assert report.savings == 0.0

    @pytest.mark.parametrize("seed", [1, 7, 2017])
    def test_accepted_moves_never_worsen(self, seed, monkeypatch):
        """Property: every accepted move clears min_gain, cross-checked
        against a fresh cost model by the REPRO_SANITIZE contract."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        problem = small_problem()
        report = run_adaptive(
            problem,
            shift_workload(seed=seed),
            AdaptiveConfig(epochs=5, epoch_requests=1200),
        )
        for move in report.move_records:
            assert move.gain > 0
            assert move.transfer_cost >= 0
            assert move.kind in ("cache", "evict")

    def test_last_serve_report_is_exposed(self):
        problem = small_problem()
        controller = AdaptiveController(
            problem,
            shift_workload(),
            AdaptiveConfig(epochs=3, epoch_requests=600),
        )
        report = controller.run()
        assert controller.last_serve_report is not None
        assert (
            controller.last_serve_report.completed
            == report.epoch_records[-1].requests
        )


# ---------------------------------------------------------------------------
# Churn: placement damage, not demand drift


class TestChurn:
    def _busiest_cache(self, problem):
        placement = solve_approximation(problem)
        storage = placement.final_storage()
        return max(
            problem.clients,
            key=lambda n: (len(storage.chunks_at(n)), str(n)),
        )

    def test_churn_hits_both_arms_and_adaptive_repairs(self):
        problem = small_problem()
        victim = self._busiest_cache(problem)
        report = run_adaptive(
            problem,
            ZipfWorkload(seed=2017, rate=4.0, exponent=1.2),
            AdaptiveConfig(
                epochs=6, epoch_requests=1200, policy="moves-only",
                churn_schedule=((2, victim),),
            ),
        )
        churned = [r for r in report.epoch_records if r.churned_nodes]
        assert len(churned) == 1
        assert churned[0].epoch == 2
        assert churned[0].churned_nodes == (str(victim),)
        # The wiped placement is forced into the control step: the
        # adaptive side re-replicates and wins all-in.
        assert report.total_moves > 0
        assert report.savings > 0

    def test_static_policy_cannot_repair(self):
        problem = small_problem()
        victim = self._busiest_cache(problem)
        report = run_adaptive(
            problem,
            ZipfWorkload(seed=2017, rate=4.0, exponent=1.2),
            AdaptiveConfig(
                epochs=4, epoch_requests=1200, policy="static",
                churn_schedule=((2, victim),),
            ),
        )
        # Both arms lose the same replicas and nobody acts: a wash.
        assert report.total_moves == 0
        assert report.savings == 0.0

    def test_churn_validation(self):
        problem = small_problem()
        workload = ZipfWorkload(seed=1)
        with pytest.raises(ProblemError, match="not in the graph"):
            AdaptiveController(
                problem, workload,
                AdaptiveConfig(churn_schedule=((0, "nope"),)),
            )
        with pytest.raises(ProblemError, match="producer"):
            AdaptiveController(
                problem, workload,
                AdaptiveConfig(churn_schedule=((0, problem.producer),)),
            )


# ---------------------------------------------------------------------------
# Report: byte determinism and round-trip


class TestReportDeterminism:
    def _run_once(self):
        return run_adaptive(
            small_problem(),
            shift_workload(),
            AdaptiveConfig(epochs=4, epoch_requests=800),
        )

    def test_repeat_runs_serialize_identically(self):
        assert self._run_once().to_json() == self._run_once().to_json()

    def test_dict_round_trip_is_lossless(self):
        report = self._run_once()
        clone = AdaptiveReport.from_dict(json.loads(report.to_json()))
        assert clone.to_json() == report.to_json()
        assert clone.savings == report.savings

    def test_schema_and_render(self):
        report = self._run_once()
        doc = report.to_dict()
        assert doc["schema"] == ADAPTIVE_SCHEMA
        assert len(doc["epoch_records"]) == 4
        text = report.render()
        assert "savings" in text
        assert report.workload in text


# ---------------------------------------------------------------------------
# Config validation


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"epoch_requests": -1},
            {"warmup_epochs": 0},
            {"warmup_epochs": 9, "epochs": 3},
            {"policy": "nope"},
            {"ewma_alpha": 0.0},
            {"dirty_threshold": 0.5, "resolve_threshold": 0.3},
            {"dirty_threshold": -0.1},
            {"max_moves_per_epoch": -1},
            {"max_cache_candidates": 0},
            {"min_gain": -1.0},
            {"replacement": "nope"},
            {"churn_schedule": ((-1, "a"),)},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ProblemError):
            config = AdaptiveConfig(**kwargs)
            # ewma_alpha is validated by the estimator at run time.
            if "ewma_alpha" in kwargs:
                AdaptiveController(
                    small_problem(), ZipfWorkload(seed=1), config
                ).run()

    def test_battery_problems_rejected(self):
        problem = grid_problem(
            4, num_chunks=4, capacity=2, battery_capacity=10.0
        )
        with pytest.raises(ProblemError, match="battery"):
            AdaptiveController(problem, ZipfWorkload(seed=1))


# ---------------------------------------------------------------------------
# Demand export: the signal the whole loop builds on


class TestDemandExport:
    """An epoch's demand is the ``(client, chunk)`` pairs of the requests
    it serves — requests ``[k*R, (k+1)*R)`` of the run's one stream —
    counted by the controller in stream order."""

    @staticmethod
    def _epoch_counts(workload, epoch_requests, monkeypatch):
        counted = []
        real = AdaptiveController._serve_epoch

        def serve_epoch(self, chunks, stream, carry):
            report, counts = real(self, chunks, stream, carry)
            counted.append((report, counts))
            return report, counts

        monkeypatch.setattr(AdaptiveController, "_serve_epoch", serve_epoch)
        AdaptiveController(
            small_problem(), workload,
            AdaptiveConfig(epochs=3, epoch_requests=epoch_requests),
        ).run()
        return counted

    @pytest.mark.parametrize("epoch_requests", [600, 9000])
    def test_epoch_counts_are_the_window_pairs(
        self, epoch_requests, monkeypatch
    ):
        problem = small_problem()
        workload = ZipfWorkload(seed=7, rate=4.0)
        counted = self._epoch_counts(workload, epoch_requests, monkeypatch)
        assert len(counted) == 3
        stream = workload.stream(problem.clients, problem.num_chunks)
        for report, counts in counted:
            pairs = [
                (r.client, r.chunk)
                for r in itertools.islice(stream, epoch_requests)
            ]
            # Same counts, keys in first-occurrence order.
            assert list(counts.items()) == list(Counter(pairs).items())
            assert report.completed == epoch_requests

    def test_stream_that_ends_counts_nothing_more(self, monkeypatch):
        workload = ZipfWorkload(seed=7, rate=0.0)
        counted = self._epoch_counts(workload, 600, monkeypatch)
        assert [dict(counts) for _, counts in counted] == [{}, {}, {}]
        assert [report.completed for report, _ in counted] == [0, 0, 0]


class TestCarriedStream:
    """Epoch ``k`` replays requests ``[k*R, (k+1)*R)`` of one stream,
    checked against :meth:`Workload.stream`, the independent per-request
    generator.  The epoch sizes sit below, across and on a multiple of
    the 8192-request batch."""

    @pytest.mark.parametrize("epoch_requests", [1000, 9000, 8192])
    def test_epoch_k_replays_its_slice_of_the_stream(
        self, epoch_requests, monkeypatch
    ):
        problem = small_problem()
        workload = ZipfWorkload(seed=11, rate=4.0)
        handed = []
        real_run = ServeEngine.run

        def run(self, batches):
            seen = []
            handed.append(seen)

            def record():
                for batch in batches:
                    seen.extend(zip(*batch))
                    yield batch
            return real_run(self, record())

        monkeypatch.setattr(ServeEngine, "run", run)
        epochs = 3
        AdaptiveController(
            problem, workload,
            AdaptiveConfig(epochs=epochs, epoch_requests=epoch_requests),
        ).run()
        assert len(handed) == epochs
        stream = workload.stream(problem.clients, problem.num_chunks)
        for seen in handed:
            expected = itertools.islice(stream, epoch_requests)
            assert seen == [(r.time, r.client, r.chunk) for r in expected]


# ---------------------------------------------------------------------------
# Drift workload generators


class TestDriftWorkloads:
    def test_registered(self):
        assert WORKLOADS["shift"] is ShiftWorkload
        assert WORKLOADS["diurnal"] is DiurnalWorkload

    def test_shift_stream_is_deterministic(self):
        clients = ["a", "b", "c"]
        w = ShiftWorkload(seed=5, rate=2.0, shift_period=30.0)
        stream = w.stream(clients, 4)
        first = [next(stream) for _ in range(50)]
        again = w.stream(clients, 4)
        assert first == [next(again) for _ in range(50)]

    def test_shift_batches_match_stream(self):
        clients = ["a", "b", "c"]
        w = ShiftWorkload(seed=5, rate=2.0, shift_period=30.0)
        stream = w.stream(clients, 4)
        flat = [next(stream) for _ in range(64)]
        batches = w.stream_batches(clients, 4, batch_size=16)
        unrolled = []
        while len(unrolled) < 64:
            times, cl, ch = next(batches)
            unrolled.extend(zip(times, cl, ch))
        for request, (time, client, chunk) in zip(flat, unrolled):
            assert (request.time, request.client, request.chunk) == (
                time, client, chunk,
            )

    def test_shift_actually_reshuffles_popularity(self):
        """The top chunk of early epochs differs from later ones for
        some epoch pair (a seeded permutation refresh per period)."""
        clients = ["a", "b", "c", "d"]
        w = ShiftWorkload(seed=3, rate=10.0, exponent=1.4, shift_period=50.0)
        per_epoch = {}
        for request in w.stream(clients, 5):
            if request.time >= 250.0:
                break
            epoch = int(request.time // 50.0)
            per_epoch.setdefault(epoch, {})
            per_epoch[epoch][request.chunk] = (
                per_epoch[epoch].get(request.chunk, 0) + 1
            )
        tops = {
            epoch: max(counts, key=counts.get)
            for epoch, counts in per_epoch.items()
        }
        assert len(set(tops.values())) > 1

    def test_diurnal_rate_swings(self):
        """Mid-"day" arrivals outnumber mid-"night" ones."""
        clients = ["a", "b"]
        w = DiurnalWorkload(
            seed=9, rate=5.0, period=100.0, amplitude=0.8
        )
        day = night = 0
        for request in w.stream(clients, 3):
            if request.time >= 400.0:
                break
            phase = request.time % 100.0
            if 10.0 <= phase < 40.0:
                day += 1
            elif 60.0 <= phase < 90.0:
                night += 1
        assert day > night

    def test_generator_validation(self):
        with pytest.raises(ProblemError):
            ShiftWorkload(seed=1, shift_period=0.0)
        with pytest.raises(ProblemError):
            DiurnalWorkload(seed=1, period=-1.0)
        with pytest.raises(ProblemError):
            DiurnalWorkload(seed=1, amplitude=1.0)


# ---------------------------------------------------------------------------
# CLI and sweep surfaces


class TestAdaptCLI:
    def test_adapt_json(self, capsys):
        from repro.cli import main

        status = main([
            "adapt", "--grid", "4", "--chunks", "4", "--capacity", "2",
            "--epochs", "4", "--epoch-requests", "600", "--rate", "4.0",
            "--json",
        ])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == ADAPTIVE_SCHEMA
        assert doc["epochs"] == 4

    def test_adapt_writes_output(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "adapt.json"
        status = main([
            "adapt", "--grid", "4", "--chunks", "4", "--capacity", "2",
            "--epochs", "3", "--epoch-requests", "400", "--rate", "4.0",
            "-o", str(out),
        ])
        assert status == 0
        assert "savings" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["schema"] == ADAPTIVE_SCHEMA

    def test_adapt_rejects_bad_names(self, capsys):
        from repro.cli import main

        assert main([
            "adapt", "--grid", "4", "--adaptive-policy", "bogus",
        ]) == 2
        assert main(["adapt", "--grid", "4", "--workload", "bogus"]) == 2
        assert main([
            "adapt", "--grid", "4", "--churn", "nonsense",
        ]) == 2

    def test_serve_adaptive_flag(self, capsys):
        from repro.cli import main

        status = main([
            "serve", "--grid", "4", "--chunks", "4", "--capacity", "2",
            "--workload", "shift", "--requests", "1200",
            "--adaptive", "--epochs", "3", "--json",
        ])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == ADAPTIVE_SCHEMA
        assert doc["epoch_requests"] == 400

    def test_list_mentions_adaptive_policies(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "adaptive policies:" in out
        assert "hybrid" in out
        assert "shift" in out and "diurnal" in out


class TestSweepAdaptiveAxis:
    def test_adaptive_cells_carry_the_report(self):
        from repro.sweep import SweepGrid, run_sweep

        grid = SweepGrid(
            topologies=("grid:4",),
            workloads=("shift",),
            policies=("cheapest",),
            seeds=(1,),
            requests=400,
            adaptive=("off", "hybrid"),
            epochs=2,
        )
        doc = run_sweep(grid, workers=1)
        assert len(doc["cells"]) == 2
        off, hybrid = doc["cells"]
        assert off["cell"]["adaptive"] == "off"
        assert "adaptive" not in off
        assert hybrid["cell"]["adaptive"] == "hybrid"
        assert hybrid["adaptive"]["schema"] == ADAPTIVE_SCHEMA
        rows = doc["aggregates"]
        assert sorted(r["adaptive"] for r in rows) == ["hybrid", "off"]

    def test_adaptive_axis_requires_appx(self):
        from repro.sweep import SweepGrid

        with pytest.raises(ProblemError, match="[Aa]daptive"):
            SweepGrid(algorithm="Greedy", adaptive=("hybrid",))
        with pytest.raises(ProblemError, match="adaptive"):
            SweepGrid(adaptive=("bogus",))

    def test_adaptive_axis_worker_determinism(self):
        from repro.sweep import SweepGrid, run_sweep

        grid = SweepGrid(
            topologies=("grid:4",),
            workloads=("shift",),
            policies=("cheapest",),
            seeds=(1,),
            requests=400,
            adaptive=("hybrid",),
            epochs=2,
        )
        extra = {"created_unix": 0}
        doc1 = run_sweep(grid, workers=1, manifest_extra=extra)
        doc2 = run_sweep(grid, workers=2, manifest_extra=extra)
        assert json.dumps(doc1, sort_keys=True) == json.dumps(
            doc2, sort_keys=True
        )
