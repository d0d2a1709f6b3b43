"""Tests of the benchmark harness itself (``pytest bench/``).

They run toy-size workloads through the same runner, tracer and compare
code the benchmark uses; none of them measures performance.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run  # first: it puts the checkout's src/ on sys.path

import compare
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = workloads.solve_workload(nodes=20, pool=2)


def test_repeats_of_an_input_give_identical_digests():
    result = run.run_workload(TINY, seed=3, seconds=0.0)
    assert result["correct"] and result["failed"] == 0
    # warm-up + at least three timed operations over a pool of two: input
    # 0 ran at least three times and input 1 at least once.
    assert result["attempted"] >= 4
    assert len(result["digests"]) == 2
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_changed_output_counts_as_failed():
    counter = itertools.count()

    def drifting(inputs, outcome):
        return workloads.Outcome(artifact=str(next(counter)))

    result = run.run_workload(replace(TINY, check=drifting), seed=3,
                              seconds=0.0)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_golden_mismatch_and_raising_op_count_as_failed():
    golden = {"pool": ["0" * 64], "probe": "0" * 64}
    result = run.run_workload(TINY, seed=workloads.GOLDEN_SEED, seconds=0.0,
                              golden=golden, probe=TINY)
    # Input 0 misses its golden on every run, the probe misses too.
    assert result["failed"] >= 3

    def broken(inputs):
        raise RuntimeError("injected")

    result = run.run_workload(replace(TINY, op=broken), seed=3, seconds=0.0)
    assert result["failed"] == result["attempted"]


def test_probes_match_their_goldens():
    golden = run.load_golden()
    assert set(golden) == set(workloads.WORKLOADS)
    for name, probe in workloads.PROBES.items():
        checker = run.Checker(name)
        digest = run.run_probe(probe, golden[name]["probe"], checker)
        assert checker.failed == 0, name
        assert digest == golden[name]["probe"]


def test_self_time_arithmetic():
    trace = layers.LayerTrace()
    trace.enter("op", 0.0)
    trace.enter("solve", 1.0)
    trace.enter("dual", 2.0)
    assert trace.exit(5.0) == 3.0
    trace.add_call("choose", 0.5)
    assert trace.exit(7.0) == pytest.approx(6.0 - 3.0 - 0.5)
    trace.enter("report", 8.0)
    trace.exit(9.0)
    assert trace.exit(10.0) == pytest.approx(10.0 - 6.0 - 1.0)
    assert sum(trace.self_s.values()) == pytest.approx(10.0)
    assert trace.calls == {"op": 1, "solve": 1, "dual": 1, "choose": 1,
                           "report": 1}


def test_span_records_parent_and_self_time():
    trace = layers.LayerTrace()
    with trace.span("outer"):
        with trace.span("inner"):
            pass
    inner, outer = trace.tracer.events
    assert (inner.name, inner.args["parent"]) == ("inner", "outer")
    assert outer.args["parent"] == ""
    assert outer.args["self_us"] <= outer.dur


def test_traced_run_restores_every_wrapper():
    from repro.core import approximation
    from repro.core.dual_ascent import dual_ascent
    from repro.serve.engine import ServeEngine

    original_run = vars(ServeEngine)["run"]
    probe = workloads.PROBES["serve-hotspot-ll"]
    result, tracer = layers.traced_run(probe, seed=5, golden={})
    assert result["correct"], result
    assert tracer.dropped == 0
    assert approximation.dual_ascent is dual_ascent
    assert vars(ServeEngine)["run"] is original_run
    metrics = {name: stat["value"] for name, stat in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["serve.selection.calls"] > 0
    assert metrics["bench.layer_coverage_pct"] > 50


def test_wrappers_restored_after_an_exception():
    import repro.core.commit
    from repro.graphs.steiner import steiner_tree

    with pytest.raises(RuntimeError):
        with layers.installed(layers.LayerTrace()):
            assert repro.core.commit.steiner_tree is not steiner_tree
            raise RuntimeError("boom")
    assert repro.core.commit.steiner_tree is steiner_tree


SPEC = {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.1}


def stat(value, spread=0.0):
    return {"value": value, "q1": value * (1 - spread / 2),
            "q3": value * (1 + spread / 2)}


@pytest.mark.parametrize(
    "base, new, expected",
    [
        (stat(1.0), stat(1.0), "exact"),
        (stat(1.0, 0.02), stat(1.05, 0.02), "same"),
        (stat(1.0, 0.02), stat(1.2, 0.02), "worse"),
        (stat(1.0, 0.02), stat(0.8, 0.02), "better"),
        (stat(1.0, 0.3), stat(1.2, 0.02), "unresolved"),
    ],
)
def test_compare_verdicts(base, new, expected):
    assert compare.verdict(SPEC, base, new) == expected


def test_compare_unresolved_reads_better_when_every_sample_wins():
    assert compare.verdict(SPEC, stat(1.0, 0.3), stat(0.7, 0.3),
                           [0.9, 1.0, 1.1], [0.6, 0.7, 0.8]) == "better"
    higher = dict(SPEC, better="higher")
    assert compare.verdict(higher, stat(1.0, 0.02), stat(0.8, 0.02)) \
        == "worse"


def test_compare_exits_nonzero_on_regression(tmp_path):
    def document(value):
        return {"workloads": {"w": {"metrics": {"op_s": stat(value, 0.01)}}}}

    base, slow = tmp_path / "base.json", tmp_path / "slow.json"
    base.write_text(json.dumps(document(1.0)))
    slow.write_text(json.dumps(document(2.0)))
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(slow)]) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-rgg200",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
