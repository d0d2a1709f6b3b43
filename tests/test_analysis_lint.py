"""Tests for :mod:`repro.analysis`: lint rules, suppression, spec, CLI.

Each rule is exercised against a passing and a failing fixture under
``tests/analysis_fixtures/`` — hygiene rules as single-file snippets,
architecture rules as tiny package trees — and the real source tree is
asserted lint-clean against ``docs/layering.toml``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis import LayeringSpec, lint_package, load_spec, run_lint
from repro.analysis.imports import SourceModule
from repro.analysis.linter import find_spec_path, lint_modules
from repro.analysis.spec import _parse_toml_subset
from repro.cli import main as cli_main
from repro.errors import ProblemError

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SPEC_PATH = Path(__file__).parent.parent / "docs" / "layering.toml"

#: Spec used for single-file hygiene fixtures: every scoped rule covers
#: the whole ``fixtures`` pseudo-package.
HYGIENE_SPEC = LayeringSpec(
    layers={"fixtures": 0},
    unseeded_random_scope=("fixtures",),
    float_equality_scope=("fixtures",),
)


def lint_fixture(filename: str, spec: LayeringSpec = HYGIENE_SPEC):
    path = FIXTURES / filename
    text = path.read_text(encoding="utf-8")
    module = SourceModule(
        name=f"fixtures.{path.stem}",
        path=str(path),
        tree=ast.parse(text, filename=str(path)),
        lines=tuple(text.splitlines()),
    )
    return lint_modules([module], spec)


def rules_of(report) -> set:
    return {violation.rule for violation in report.violations}


class TestHygieneRules:
    @pytest.mark.parametrize(
        "rule, stem",
        [
            ("mutable-default", "mutable_default"),
            ("bare-except", "bare_except"),
            ("wallclock", "wallclock"),
            ("float-equality", "float_equality"),
            ("unseeded-random", "unseeded_random"),
        ],
    )
    def test_rule_pair(self, rule, stem):
        ok = lint_fixture(f"{stem}_ok.py")
        assert rule not in rules_of(ok), ok.render()
        bad = lint_fixture(f"{stem}_bad.py")
        assert rule in rules_of(bad), bad.render()

    def test_unseeded_random_catches_every_idiom(self):
        # seed=None default, Random(), shuffle-from-import, numpy.random,
        # and a module-global random.choice(): five distinct flags.
        report = lint_fixture("unseeded_random_bad.py")
        assert len(report.violations) >= 5

    def test_unseeded_random_flags_name_imported_constructors(self):
        # ``Random()`` after ``from random import Random`` and ``R()``
        # after ``... import Random as R`` fall back to OS entropy just
        # like ``random.Random()``; the seeded ``Random(7)`` passes.
        lines = FIXTURES.joinpath("unseeded_random_bad.py").read_text(
            encoding="utf-8"
        ).splitlines()
        flagged = {
            lines[v.line - 1].strip()
            for v in lint_fixture("unseeded_random_bad.py").violations
        }
        assert {"by_name = Random()", "by_alias = R()"} <= flagged

    def test_wallclock_exempt_scope(self):
        spec = LayeringSpec(
            layers={"fixtures": 0}, wallclock_exempt=("fixtures",)
        )
        report = lint_fixture("wallclock_bad.py", spec)
        assert "wallclock" not in rules_of(report)

    def test_scoped_rules_ignore_out_of_scope_modules(self):
        spec = LayeringSpec(layers={"fixtures": 0})
        report = lint_fixture("unseeded_random_bad.py", spec)
        assert "unseeded-random" not in rules_of(report)

    def test_noqa_suppresses_on_the_flagged_line(self):
        report = lint_fixture("noqa_suppressed.py")
        assert report.ok, report.render()
        assert report.suppressed == 1


class TestArchitectureRules:
    def lint_tree(self, package: str, spec: LayeringSpec):
        return lint_package(FIXTURES / package, spec)

    def layering_spec(self, pkg: str) -> LayeringSpec:
        return LayeringSpec(
            layers={pkg: 0, f"{pkg}.lowmod": 0, f"{pkg}.highmod": 1}
        )

    def test_layering_pair(self):
        ok = self.lint_tree(
            "arch_layering_ok", self.layering_spec("arch_layering_ok")
        )
        assert ok.ok, ok.render()
        bad = self.lint_tree(
            "arch_layering_bad", self.layering_spec("arch_layering_bad")
        )
        assert rules_of(bad) == {"layering"}, bad.render()

    def test_cycle_pair(self):
        ok = self.lint_tree(
            "arch_cycle_ok", LayeringSpec(layers={"arch_cycle_ok": 0})
        )
        assert ok.ok, ok.render()
        bad = self.lint_tree(
            "arch_cycle_bad", LayeringSpec(layers={"arch_cycle_bad": 0})
        )
        assert rules_of(bad) == {"cycle"}, bad.render()
        (violation,) = bad.violations
        assert "arch_cycle_bad.a" in violation.message
        assert "arch_cycle_bad.b" in violation.message

    def forbidden_spec(self, pkg: str) -> LayeringSpec:
        return LayeringSpec(
            layers={pkg: 0},
            forbidden={f"{pkg}.client": (f"{pkg}.secret",)},
        )

    def test_forbidden_pair(self):
        ok = self.lint_tree(
            "arch_forbidden_ok", self.forbidden_spec("arch_forbidden_ok")
        )
        assert ok.ok, ok.render()
        bad = self.lint_tree(
            "arch_forbidden_bad", self.forbidden_spec("arch_forbidden_bad")
        )
        assert rules_of(bad) == {"forbidden-import"}, bad.render()

    def stdlib_spec(self, pkg: str) -> LayeringSpec:
        # ``helper`` only exists in the ok tree: the ok fixture shows the
        # stdlib-only closure (importing another stdlib-only module is
        # fine), the bad one that anything else first-party still flags.
        return LayeringSpec(
            layers={pkg: 0},
            stdlib_only=(f"{pkg}.pure", f"{pkg}.helper"),
        )

    def test_stdlib_only_pair(self):
        ok = self.lint_tree(
            "arch_stdlib_ok", self.stdlib_spec("arch_stdlib_ok")
        )
        assert ok.ok, ok.render()
        bad = self.lint_tree(
            "arch_stdlib_bad", self.stdlib_spec("arch_stdlib_bad")
        )
        assert rules_of(bad) == {"stdlib-only"}, bad.render()
        flagged = {v.message.split()[-1] for v in bad.violations}
        assert "numpy" in flagged
        assert any("arch_stdlib_bad.other" in f for f in flagged)

    def test_unassigned_module_pair(self):
        ok = self.lint_tree(
            "arch_unassigned_ok",
            LayeringSpec(layers={"arch_unassigned_ok.known": 0}),
        )
        assert ok.ok, ok.render()
        bad = self.lint_tree(
            "arch_unassigned_bad",
            LayeringSpec(layers={"arch_unassigned_bad.known": 0}),
        )
        assert rules_of(bad) == {"unassigned-module"}, bad.render()
        (violation,) = bad.violations
        assert violation.path.endswith("stray.py")

    def test_lazy_imports_are_exempt_from_layering(self, tmp_path):
        pkg = tmp_path / "lazydemo"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "high.py").write_text("VALUE = 1\n")
        (pkg / "low.py").write_text(
            "def use():\n    from lazydemo import high\n"
            "    return high.VALUE\n"
        )
        spec = LayeringSpec(
            layers={"lazydemo": 0, "lazydemo.low": 0, "lazydemo.high": 1}
        )
        report = lint_package(pkg, spec)
        assert report.ok, report.render()


class TestLayeringSpec:
    def test_subset_parser_matches_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        text = SPEC_PATH.read_text(encoding="utf-8")
        assert _parse_toml_subset(text) == tomllib.loads(text)

    def test_real_spec_layers(self):
        spec = load_spec(SPEC_PATH)
        assert spec.layer_of("repro.errors") == 0
        assert spec.layer_of("repro.core.dual_ascent") < spec.layer_of(
            "repro.cli"
        )
        assert spec.layer_of("not.a.repro.module") is None
        assert "repro.obs.recorder" in spec.stdlib_only

    def test_bad_schema_rejected(self, tmp_path):
        bad = tmp_path / "layering.toml"
        bad.write_text('schema = "other/9"\n\n[layers]\nx = 0\n')
        with pytest.raises(ProblemError):
            load_spec(bad)

    def test_find_spec_path_walks_up(self):
        found = find_spec_path(SPEC_PATH.parent.parent / "src" / "repro")
        assert found == SPEC_PATH


class TestSourceTree:
    def test_repro_source_is_lint_clean(self):
        report = run_lint()
        assert report.ok, report.render()
        assert report.files_checked > 50


class TestCli:
    def test_lint_clean_exits_zero(self, capsys):
        assert cli_main(["lint"]) == 0
        assert "repro lint: clean" in capsys.readouterr().out

    def test_lint_reports_seeded_violation(self, tmp_path, capsys):
        pkg = tmp_path / "demo"
        pkg.mkdir()
        (pkg / "broken.py").write_text(
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return 0\n"
        )
        spec = tmp_path / "layering.toml"
        spec.write_text(
            'schema = "repro-layering/1"\n\n[layers]\ndemo = 0\n'
        )
        status = cli_main(
            ["lint", "--package", str(pkg), "--spec", str(spec)]
        )
        out = capsys.readouterr().out
        assert status == 2
        assert "bare-except" in out
        assert "broken.py" in out
        assert "1 violation(s)" in out

    def test_lint_types_skips_gracefully_without_mypy(
        self, capsys, monkeypatch
    ):
        from repro.analysis import typecheck

        monkeypatch.setattr(typecheck, "mypy_available", lambda: False)
        assert cli_main(["lint", "--types"]) == 0
        assert "mypy is not installed" in capsys.readouterr().out
