"""Tests for the determinism/RNG-flow/parallel-safety lint families,
the ``determinism.toml`` contracts, machine-readable lint output, and
the REPRO_SANITIZE serve-equivalence cross-check.

Every new rule gets a failing + passing fixture pair under
``tests/analysis_fixtures/`` (linted with only its family enabled so
sibling hygiene rules stay out of the assertion), plus synthetic-AST
unit tests for the dataflow corners the fixtures can't isolate.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.analysis import (
    DeterminismSpec,
    LayeringSpec,
    load_determinism_spec,
    run_lint,
)
from repro.analysis.determinism import check_determinism
from repro.analysis.imports import SourceModule
from repro.analysis.linter import (
    DET_FAMILIES,
    FAMILIES,
    find_determinism_path,
    lint_modules,
)
from repro.analysis.parallel import check_parallel
from repro.analysis.report import render_json, render_sarif
from repro.analysis.rngflow import check_rngflow
from repro.analysis.spec import _parse_toml_subset
from repro.cli import main as cli_main
from repro.errors import InvariantError, ProblemError

FIXTURES = Path(__file__).parent / "analysis_fixtures"
DET_SPEC_PATH = Path(__file__).parent.parent / "docs" / "determinism.toml"

#: Contracts used for single-file fixtures: the whole ``fixtures``
#: pseudo-package is deterministic and fork-safe, nothing allowlisted.
FIXTURE_DET = DeterminismSpec(
    modules={"fixtures": ("deterministic", "fork-safe")},
    blessed_seed_calls=("derive_seed",),
)

#: Layering spec the det families don't consult but the API requires.
FIXTURE_LAYERS = LayeringSpec(layers={"fixtures": 0})


def parse_fixture(filename: str) -> SourceModule:
    path = FIXTURES / filename
    text = path.read_text(encoding="utf-8")
    return SourceModule(
        name=f"fixtures.{path.stem}",
        path=str(path),
        tree=ast.parse(text, filename=str(path)),
        lines=tuple(text.splitlines()),
    )


def synthetic_module(source: str, name: str = "fixtures.synth") -> SourceModule:
    return SourceModule(
        name=name,
        path=f"<{name}>",
        tree=ast.parse(source),
        lines=tuple(source.splitlines()),
    )


def lint_det_fixture(filename: str, families=DET_FAMILIES):
    return lint_modules(
        [parse_fixture(filename)],
        FIXTURE_LAYERS,
        families=families,
        det_spec=FIXTURE_DET,
    )


def rules_of(report) -> set:
    return {violation.rule for violation in report.violations}


class TestRulePairs:
    @pytest.mark.parametrize(
        "rule, stem",
        [
            ("unordered-iteration", "det_unordered_iteration"),
            ("hash-ordering", "det_hash_ordering"),
            ("float-accumulation", "det_float_accumulation"),
            ("env-branching", "det_env_branching"),
            ("wallclock-determinism", "det_wallclock"),
            ("rng-module-state", "rng_module_state"),
            ("rng-seed-derivation", "rng_seed_derivation"),
            ("rng-worker-share", "rng_worker_share"),
            ("parallel-global-write", "par_global_write"),
            ("parallel-unordered-merge", "par_unordered_merge"),
            ("parallel-unsafe-capture", "par_unsafe_capture"),
        ],
    )
    def test_rule_pair(self, rule, stem):
        ok = lint_det_fixture(f"{stem}_ok.py")
        assert rule not in rules_of(ok), ok.render()
        bad = lint_det_fixture(f"{stem}_bad.py")
        assert rule in rules_of(bad), bad.render()

    def test_unordered_iteration_catches_every_idiom(self):
        # for-loop over a display, comprehension over set(), list() of a
        # tracked variable, and str.join of a set comprehension.
        report = lint_det_fixture("det_unordered_iteration_bad.py")
        flagged = [
            v for v in report.violations if v.rule == "unordered-iteration"
        ]
        assert len(flagged) >= 4, report.render()

    def test_module_state_catches_every_idiom(self):
        # module-scope ctor, two global draws, a from-import draw, and a
        # ``global`` rebind: five distinct flags.
        report = lint_det_fixture("rng_module_state_bad.py")
        flagged = [
            v for v in report.violations if v.rule == "rng-module-state"
        ]
        assert len(flagged) >= 5, report.render()

    def test_exempt_module_skips_det_families(self):
        exempt = DeterminismSpec(modules={"fixtures": ("exempt",)})
        report = lint_modules(
            [parse_fixture("det_unordered_iteration_bad.py")],
            FIXTURE_LAYERS,
            families=DET_FAMILIES,
            det_spec=exempt,
        )
        assert report.ok, report.render()

    def test_wallclock_allowlist(self):
        allowed = DeterminismSpec(
            modules={"fixtures": ("deterministic",)},
            wallclock_allow=("fixtures",),
        )
        report = lint_modules(
            [parse_fixture("det_wallclock_bad.py")],
            FIXTURE_LAYERS,
            families=("determinism",),
            det_spec=allowed,
        )
        assert "wallclock-determinism" not in rules_of(report)

    def test_env_allowlist(self):
        allowed = DeterminismSpec(
            modules={"fixtures": ("deterministic",)},
            env_allow=("fixtures",),
        )
        report = lint_modules(
            [parse_fixture("det_env_branching_bad.py")],
            FIXTURE_LAYERS,
            families=("determinism",),
            det_spec=allowed,
        )
        assert "env-branching" not in rules_of(report)

    def test_missing_det_spec_skips_with_note(self):
        report = lint_modules(
            [parse_fixture("det_unordered_iteration_bad.py")],
            FIXTURE_LAYERS,
            families=DET_FAMILIES,
            det_spec=None,
        )
        assert report.ok
        assert any("skipped families" in note for note in report.notes)

    def test_unknown_family_rejected(self):
        with pytest.raises(ProblemError):
            lint_modules(
                [parse_fixture("det_unordered_iteration_bad.py")],
                FIXTURE_LAYERS,
                families=("determinsm",),
            )


class TestDeterminismSynthetic:
    def check(self, source: str, det: DeterminismSpec = FIXTURE_DET):
        return check_determinism([synthetic_module(source)], det)

    def test_sorted_wrapping_is_clean(self):
        assert not self.check(
            "items = {1, 2}\n"
            "out = [i for i in sorted(items)]\n"
            "low = min(i for i in items)\n"
        )

    def test_key_hash_flagged(self):
        rows = self.check("out = sorted([1, 2], key=hash)\n")
        assert any(v.rule == "hash-ordering" for v in rows)

    def test_set_comprehension_targets_are_fine(self):
        # Building a set from unordered input is fine; order dies there.
        assert not self.check("chosen = {x for x in {1, 2, 3}}\n")

    def test_aliased_time_import_flagged(self):
        rows = self.check(
            "import time as t\n\ndef f():\n    return t.monotonic()\n"
        )
        assert any(v.rule == "wallclock-determinism" for v in rows)

    def test_time_time_left_to_hygiene(self):
        # time.time() belongs to the hygiene wallclock rule.
        assert not self.check(
            "import time\n\ndef f():\n    return time.time()\n"
        )


class TestRngflowSynthetic:
    def check(self, source: str):
        return check_rngflow([synthetic_module(source)], FIXTURE_DET)

    def test_from_import_ctor_tracked(self):
        rows = self.check(
            "from random import Random\nRNG = Random(1)\n"
        )
        assert any(v.rule == "rng-module-state" for v in rows)

    def test_function_local_ctor_clean(self):
        assert not self.check(
            "import random\n\ndef f(seed):\n"
            "    return random.Random(seed).random()\n"
        )

    def test_blessed_helper_allowed_nested(self):
        assert not self.check(
            "import random\n\ndef f(base):\n"
            "    return random.Random(derive_seed(base, 3))\n"
        )

    def test_non_blessed_nested_call_flagged(self):
        rows = self.check(
            "import random\nimport os\n\ndef f():\n"
            "    return random.Random(int.from_bytes(os.urandom(8), 'big'))\n"
        )
        assert any(v.rule == "rng-seed-derivation" for v in rows)

    def test_rng_in_process_args_flagged(self):
        rows = self.check(
            "import multiprocessing\nimport random\n\n"
            "def f(seed):\n"
            "    rng = random.Random(seed)\n"
            "    p = multiprocessing.Process(target=g, args=(rng,))\n"
            "    p.start()\n"
        )
        assert any(v.rule == "rng-worker-share" for v in rows)


class TestParallelSynthetic:
    def check(self, source: str, det: DeterminismSpec = FIXTURE_DET):
        return check_parallel([synthetic_module(source)], det)

    def test_reachable_callee_write_flagged(self):
        rows = self.check(
            "import multiprocessing\n"
            "MEMO = {}\n\n"
            "def run(xs):\n"
            "    with multiprocessing.Pool() as pool:\n"
            "        return pool.map(worker, xs)\n\n"
            "def worker(x):\n"
            "    return helper(x)\n\n"
            "def helper(x):\n"
            "    MEMO[x] = x\n"
            "    return x\n"
        )
        assert any(v.rule == "parallel-global-write" for v in rows)
        assert any("helper" in v.message for v in rows)

    def test_non_worker_write_not_flagged(self):
        # Only functions reachable from a dispatch site are workers.
        assert not self.check(
            "import multiprocessing\n"
            "MEMO = {}\n\n"
            "def run(xs):\n"
            "    with multiprocessing.Pool() as pool:\n"
            "        return pool.map(worker, xs)\n\n"
            "def worker(x):\n"
            "    return x\n\n"
            "def parent_only(x):\n"
            "    MEMO[x] = x\n"
        )

    def test_local_shadow_not_flagged(self):
        assert not self.check(
            "import multiprocessing\n"
            "MEMO = {}\n\n"
            "def run(xs):\n"
            "    with multiprocessing.Pool() as pool:\n"
            "        return pool.map(worker, xs)\n\n"
            "def worker(x):\n"
            "    MEMO = {}\n"
            "    MEMO[x] = x\n"
            "    return MEMO\n"
        )

    def test_as_completed_flagged(self):
        rows = self.check(
            "from concurrent.futures import as_completed\n\n"
            "def gather(futures):\n"
            "    return [f.result() for f in as_completed(futures)]\n"
        )
        assert any(v.rule == "parallel-unordered-merge" for v in rows)

    def test_exempt_module_skipped(self):
        exempt = DeterminismSpec(modules={"fixtures": ("exempt",)})
        assert not self.check(
            "import multiprocessing\n"
            "MEMO = {}\n\n"
            "def run(xs):\n"
            "    with multiprocessing.Pool() as pool:\n"
            "        return pool.map(worker, xs)\n\n"
            "def worker(x):\n"
            "    MEMO[x] = x\n",
            det=exempt,
        )


class TestDeterminismSpecFile:
    def test_subset_parser_matches_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        text = DET_SPEC_PATH.read_text(encoding="utf-8")
        assert _parse_toml_subset(text) == tomllib.loads(text)

    def test_real_contracts(self):
        det = load_determinism_spec(DET_SPEC_PATH)
        assert det.is_deterministic("repro.core.dual_ascent")
        assert det.is_fork_safe("repro.sweep")
        assert det.is_exempt("repro.cli")
        assert det.is_exempt("repro.obs.recorder")
        assert not det.is_deterministic("repro.obs.recorder")
        assert det.allows_wallclock("repro.core.approximation")
        assert not det.allows_wallclock("repro.core.dual_ascent")
        assert det.allows_env("repro.analysis.contracts")
        assert not det.allows_env("repro.serve.engine")

    def test_longest_prefix_wins(self):
        det = DeterminismSpec(
            modules={
                "pkg": ("deterministic",),
                "pkg.io": ("exempt",),
            }
        )
        assert det.is_deterministic("pkg.core")
        assert det.is_exempt("pkg.io.files")
        assert not det.is_deterministic("pkg.io.files")
        assert det.contracts_of("other") == ()

    def test_bad_schema_rejected(self, tmp_path):
        bad = tmp_path / "determinism.toml"
        bad.write_text('schema = "other/9"\n\n[modules]\nx = ["exempt"]\n')
        with pytest.raises(ProblemError):
            load_determinism_spec(bad)

    def test_unknown_contract_rejected(self, tmp_path):
        bad = tmp_path / "determinism.toml"
        bad.write_text(
            'schema = "repro-determinism/1"\n\n'
            '[modules]\nx = ["hermetic"]\n'
        )
        with pytest.raises(ProblemError):
            load_determinism_spec(bad)

    def test_find_determinism_path_walks_up(self):
        found = find_determinism_path(
            DET_SPEC_PATH.parent.parent / "src" / "repro"
        )
        assert found == DET_SPEC_PATH


class TestSourceTree:
    def test_repro_source_is_det_clean(self):
        report = run_lint(families=DET_FAMILIES)
        assert report.ok, report.render()
        # The one justified suppression (the sweep memo) is counted, not
        # silently dropped.
        assert report.suppressed == 1

    def test_all_families_clean(self):
        report = run_lint(families=FAMILIES)
        assert report.ok, report.render()


class TestMachineReadableOutput:
    VIOLS = ()

    def sample_report(self):
        report = lint_det_fixture("det_hash_ordering_bad.py")
        assert not report.ok
        return report

    def test_json_is_byte_stable_and_parseable(self):
        report = self.sample_report()
        first = report.render("json")
        second = report.render("json")
        assert first == second
        doc = json.loads(first)
        assert doc["schema"] == "repro-lint/1"
        assert doc["ok"] is False
        assert doc["files_checked"] == 1
        rows = doc["violations"]
        assert rows == sorted(
            rows,
            key=lambda r: (r["rule"], r["path"], r["line"], r["message"]),
        )
        assert {"rule", "path", "line", "message"} == set(rows[0])

    def test_sarif_shape(self):
        report = self.sample_report()
        doc = json.loads(report.render("sarif"))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        result = run["results"][0]
        assert result["ruleId"] == "hash-ordering"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] >= 1

    def test_render_helpers_stable_empty(self):
        assert render_json([], 3) == render_json([], 3)
        assert json.loads(render_sarif([], 3))["runs"][0]["results"] == []

    def test_unknown_format_rejected(self):
        with pytest.raises(ProblemError):
            self.sample_report().render("yaml")


def _write_demo_package(tmp_path: Path):
    pkg = tmp_path / "demo"
    pkg.mkdir()
    (pkg / "broken.py").write_text(
        "def order(values):\n    return list(set(values))\n"
    )
    spec = tmp_path / "layering.toml"
    spec.write_text('schema = "repro-layering/1"\n\n[layers]\ndemo = 0\n')
    det = tmp_path / "determinism.toml"
    det.write_text(
        'schema = "repro-determinism/1"\n\n'
        '[modules]\ndemo = ["deterministic"]\n'
    )
    return pkg, spec, det


class TestCli:
    def test_det_families_clean_on_source(self, capsys):
        status = cli_main(
            ["lint", "--types", "determinism,rngflow,parallel"]
        )
        assert status == 0
        assert "repro lint: clean" in capsys.readouterr().out

    def test_unknown_type_rejected(self, capsys):
        assert cli_main(["lint", "--types", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown lint type 'nonsense'" in err

    def test_json_format_byte_identity(self, tmp_path, capsys):
        pkg, spec, det = _write_demo_package(tmp_path)
        out_path = tmp_path / "lint-report.json"
        args = [
            "lint", "--package", str(pkg), "--spec", str(spec),
            "--det-spec", str(det), "--format", "json",
            "--output", str(out_path),
        ]
        status = cli_main(args)
        first = capsys.readouterr().out
        assert status == 2
        doc = json.loads(first)
        assert doc["ok"] is False
        assert doc["violations"][0]["rule"] == "unordered-iteration"
        # The --output artifact holds exactly the stdout bytes.
        assert out_path.read_text(encoding="utf-8") == first
        # Re-running produces byte-identical output.
        assert cli_main(args) == 2
        assert capsys.readouterr().out == first

    def test_sarif_format_byte_identity(self, tmp_path, capsys):
        pkg, spec, det = _write_demo_package(tmp_path)
        args = [
            "lint", "--package", str(pkg), "--spec", str(spec),
            "--det-spec", str(det), "--format", "sarif",
        ]
        assert cli_main(args) == 2
        first = capsys.readouterr().out
        assert json.loads(first)["version"] == "2.1.0"
        assert cli_main(args) == 2
        assert capsys.readouterr().out == first

    def test_missing_det_spec_notes_and_passes(self, tmp_path, capsys):
        pkg, spec, _det = _write_demo_package(tmp_path)
        # No --det-spec and none findable above tmp: families skipped,
        # the unordered-iteration bug invisible, exit 0 with a note.
        status = cli_main(
            ["lint", "--package", str(pkg), "--spec", str(spec)]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "skipped families" in out


class TestServeEquivalence:
    def test_equal_reports_pass(self):
        from repro.analysis import contracts

        contracts.check_serve_equivalence(
            batched_json='{"a": 1}',
            reference_json='{"a": 1}',
            context="unit",
        )

    def test_divergence_raises_with_line(self):
        from repro.analysis import contracts

        with pytest.raises(InvariantError) as err:
            contracts.check_serve_equivalence(
                batched_json='{\n  "a": 1\n}',
                reference_json='{\n  "a": 2\n}',
                context="unit",
            )
        assert "serve-equivalence" in str(err.value)
        assert "line 2" in str(err.value)

    def test_shadow_replay_fires_on_small_batched_runs(self, monkeypatch):
        from repro.analysis import contracts
        from repro.core import solve_approximation
        from repro.serve.engine import serve_placement
        from repro.serve.workloads import WORKLOADS
        from repro.workloads import grid_problem

        monkeypatch.setenv(contracts.ENV_VAR, "1")
        placement = solve_approximation(grid_problem(4, num_chunks=3))
        workload = WORKLOADS["zipf"](seed=7)
        calls = []
        real = contracts.check_serve_equivalence

        def spy(**kwargs):
            calls.append(kwargs["context"])
            real(**kwargs)

        with mock.patch.object(
            contracts, "check_serve_equivalence", spy
        ):
            serve_placement(placement, workload, 300)
        assert calls, "sanitizer cross-check did not fire"

    def test_shadow_replay_skipped_above_cap(self):
        from repro.analysis import contracts
        from repro.core import solve_approximation
        from repro.serve.engine import serve_placement
        from repro.serve.workloads import WORKLOADS
        from repro.workloads import grid_problem

        placement = solve_approximation(grid_problem(4, num_chunks=3))
        workload = WORKLOADS["zipf"](seed=7)
        calls = []

        with mock.patch.object(
            contracts, "SERVE_EQUIVALENCE_MAX_REQUESTS", 10
        ), mock.patch.object(
            contracts,
            "check_serve_equivalence",
            lambda **kw: calls.append(kw),
        ):
            serve_placement(placement, workload, 300)
        assert not calls


class TestStreamEquivalence:
    def test_equal_streams_pass(self):
        from repro.analysis import contracts

        rows = [(0.5, "a", 1), (1.25, "b", 0)]
        contracts.check_stream_equivalence(
            batched=rows, reference=list(rows), context="unit"
        )

    def test_divergence_raises_with_index(self):
        from repro.analysis import contracts

        with pytest.raises(InvariantError) as err:
            contracts.check_stream_equivalence(
                batched=[(0.5, "a", 1), (1.25, "b", 0)],
                reference=[(0.5, "a", 1), (1.25, "b", 2)],
                context="unit",
            )
        assert "stream-equivalence" in str(err.value)
        assert "request 1" in str(err.value)

    def test_length_mismatch_raises(self):
        from repro.analysis import contracts

        with pytest.raises(InvariantError, match="stream-equivalence"):
            contracts.check_stream_equivalence(
                batched=[(0.5, "a", 1)], reference=[], context="unit"
            )

    @pytest.mark.parametrize("name", ["flash", "shift", "diurnal"])
    def test_request_stream_checked_when_small(self, name, monkeypatch):
        from repro.analysis import contracts
        from repro.serve.engine import request_stream
        from repro.serve.workloads import WORKLOADS
        from repro.workloads import grid_problem

        monkeypatch.setenv(contracts.ENV_VAR, "1")
        problem = grid_problem(4, num_chunks=3)
        workload = WORKLOADS[name](seed=7)
        calls = []
        real = contracts.check_stream_equivalence

        def spy(**kwargs):
            calls.append(len(kwargs["batched"]))
            real(**kwargs)

        with mock.patch.object(contracts, "check_stream_equivalence", spy):
            batches = list(request_stream(problem, workload, 300))
        assert calls == [300]
        assert sum(len(times) for times, _, _ in batches) == 300

    def test_request_stream_unchecked_above_cap(self):
        from repro.analysis import contracts
        from repro.serve.engine import request_stream
        from repro.serve.workloads import WORKLOADS
        from repro.workloads import grid_problem

        problem = grid_problem(4, num_chunks=3)
        calls = []
        with mock.patch.object(
            contracts, "SERVE_EQUIVALENCE_MAX_REQUESTS", 10
        ), mock.patch.object(
            contracts,
            "check_stream_equivalence",
            lambda **kw: calls.append(kw),
        ):
            list(request_stream(problem, WORKLOADS["zipf"](seed=7), 300))
        assert not calls

    def test_decoding_fault_is_caught(self, monkeypatch):
        from repro.analysis import contracts
        from repro.serve.engine import request_stream
        from repro.serve.workloads import ZipfWorkload
        from repro.workloads import grid_problem

        def shifted(self, draws, times, state):
            return np.searchsorted(
                np.array(state["chunk_cdf"]), draws * 0.5
            )

        monkeypatch.setenv(contracts.ENV_VAR, "1")
        problem = grid_problem(4, num_chunks=5)
        with mock.patch.object(ZipfWorkload, "_pick_chunks", shifted):
            with pytest.raises(InvariantError, match="stream-equivalence"):
                request_stream(problem, ZipfWorkload(seed=7), 300)
