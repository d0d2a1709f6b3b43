"""Code-hygiene rules tuned to this repository.

Five AST rules (ids in brackets; scopes come from ``docs/layering.toml``):

* ``unseeded-random`` — inside the deterministic layers (core/, graphs/,
  distributed/, online/, workloads/, baselines/): calls through the
  module-level :mod:`random` RNG (``random.choice(...)``), a
  ``random.Random()`` or name-imported ``Random()`` constructed without
  a seed, any touch of ``numpy.random``, or a ``seed`` parameter
  defaulting to ``None``.  The event simulator's reproducibility
  guarantee rests on this rule.
* ``mutable-default`` — list/dict/set displays, comprehensions, or
  ``list()``/``dict()``/``set()``/``bytearray()`` calls as parameter
  defaults, anywhere in the package.
* ``float-equality`` — ``==`` / ``!=`` against a float literal in
  cost/dual-ascent code, where quantized bids make exact comparison a
  latent bug; compare with an explicit tolerance instead.
* ``bare-except`` — ``except:`` without an exception type, anywhere.
* ``wallclock`` — ``time.time()`` outside ``obs/``; wall-clock reads
  belong behind the :class:`~repro.obs.recorder.Recorder` timers.
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Set

from repro.analysis.astutil import (
    ModuleAliases, collect_module_aliases, function_like,
)
from repro.analysis.imports import SourceModule
from repro.analysis.report import Violation
from repro.analysis.spec import LayeringSpec

_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})
_SEEDED_RANDOM_ATTRS = frozenset({"Random", "SystemRandom"})


def check_hygiene(
    modules: Sequence[SourceModule], spec: LayeringSpec
) -> List[Violation]:
    """Run every hygiene rule over the module set."""
    violations: List[Violation] = []
    for module in modules:
        aliases = collect_module_aliases(module.tree)
        violations.extend(_check_mutable_defaults(module))
        violations.extend(_check_bare_except(module))
        if not spec.in_scope(module.name, spec.wallclock_exempt):
            violations.extend(_check_wallclock(module, aliases))
        if spec.in_scope(module.name, spec.float_equality_scope):
            violations.extend(_check_float_equality(module))
        if spec.in_scope(module.name, spec.unseeded_random_scope):
            violations.extend(_check_unseeded_random(module, aliases))
    return violations


def _bound_to(aliases: ModuleAliases, module: str, member: str) -> Set[str]:
    """Local names ``from module import member [as name]`` binds."""
    return {
        bound
        for bound, name in aliases.members[module].items()
        if name == member
    }


def _check_mutable_defaults(module: SourceModule) -> List[Violation]:
    violations: List[Violation] = []
    for node in ast.walk(module.tree):
        if not function_like(node):
            continue
        args = node.args  # type: ignore[attr-defined]
        defaults = list(args.defaults) + [
            default for default in args.kw_defaults if default is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                name = getattr(node, "name", "<lambda>")
                violations.append(
                    Violation(
                        "mutable-default",
                        module.path,
                        default.lineno,
                        f"function {name!r} uses a mutable default "
                        f"argument ({ast.unparse(default)}); default to "
                        "None and create the value inside the body",
                    )
                )
    return violations


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


def _check_bare_except(module: SourceModule) -> List[Violation]:
    return [
        Violation(
            "bare-except",
            module.path,
            node.lineno,
            "bare 'except:' swallows KeyboardInterrupt and SystemExit; "
            "catch a ReproError subclass (or Exception) instead",
        )
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ExceptHandler) and node.type is None
    ]


def _check_wallclock(
    module: SourceModule, aliases: ModuleAliases
) -> List[Violation]:
    violations: List[Violation] = []
    time_modules = aliases.module_names("time")
    time_function = _bound_to(aliases, "time", "time")
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        flagged = False
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id in time_modules
        ):
            flagged = True
        elif isinstance(func, ast.Name) and func.id in time_function:
            flagged = True
        if flagged:
            violations.append(
                Violation(
                    "wallclock",
                    module.path,
                    node.lineno,
                    "time.time() outside obs/: route wall-clock measurement "
                    "through the Recorder timers so perf claims stay "
                    "machine-checkable",
                )
            )
    return violations


def _check_float_equality(module: SourceModule) -> List[Violation]:
    violations: List[Violation] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left] + list(node.comparators)
        if any(
            isinstance(operand, ast.Constant)
            and isinstance(operand.value, float)
            for operand in operands
        ):
            violations.append(
                Violation(
                    "float-equality",
                    module.path,
                    node.lineno,
                    "exact ==/!= against a float literal in cost/dual-ascent "
                    "code; quantized bids demand an explicit tolerance "
                    "(abs(a - b) <= eps)",
                )
            )
    return violations


def _check_unseeded_random(
    module: SourceModule, aliases: ModuleAliases
) -> List[Violation]:
    violations: List[Violation] = []
    random_modules = aliases.module_names("random")
    random_functions = {
        bound
        for bound, name in aliases.members["random"].items()
        if name not in _SEEDED_RANDOM_ATTRS
    }
    # ``from random import Random [as R]`` binds the constructors by name.
    random_constructors = set(aliases.members["random"]) - random_functions
    numpy_modules = aliases.module_names("numpy")
    # ``import numpy.random`` binds ``numpy`` itself.
    numpy_random = (
        aliases.module_names("numpy.random")
        | _bound_to(aliases, "numpy", "random")
        | set(aliases.members["numpy.random"])
    )

    def flag(node: ast.AST, message: str) -> None:
        violations.append(
            Violation("unseeded-random", module.path, node.lineno, message)
        )

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in random_modules
            ):
                if func.attr in _SEEDED_RANDOM_ATTRS:
                    if not node.args and not node.keywords:
                        flag(
                            node,
                            "random.Random() constructed without a seed "
                            "falls back to OS entropy; pass an explicit "
                            "seed",
                        )
                else:
                    flag(
                        node,
                        f"random.{func.attr}() uses the process-global RNG; "
                        "use a seeded random.Random instance",
                    )
            elif isinstance(func, ast.Name) and func.id in random_constructors:
                if not node.args and not node.keywords:
                    flag(
                        node,
                        f"{func.id}() constructed without a seed falls "
                        "back to OS entropy; pass an explicit seed",
                    )
            elif isinstance(func, ast.Name) and func.id in random_functions:
                flag(
                    node,
                    f"{func.id}() was imported from the random module and "
                    "uses the process-global RNG; use a seeded "
                    "random.Random instance",
                )
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in numpy_modules
        ):
            flag(
                node,
                "numpy.random use in a deterministic layer; pass an "
                "explicit numpy Generator (np.random.default_rng(seed)) "
                "from the caller",
            )
        if isinstance(node, ast.Name) and node.id in numpy_random:
            if isinstance(node.ctx, ast.Load):
                flag(
                    node,
                    "numpy.random use in a deterministic layer; pass an "
                    "explicit numpy Generator from the caller",
                )
        if function_like(node) and not isinstance(node, ast.Lambda):
            violations.extend(_check_seed_defaults(module, node))
    return violations


def _check_seed_defaults(
    module: SourceModule, node: ast.AST
) -> List[Violation]:
    args = node.args  # type: ignore[attr-defined]
    name = getattr(node, "name", "<lambda>")
    positional = list(args.posonlyargs) + list(args.args)
    pairs = list(
        zip(positional[len(positional) - len(args.defaults):], args.defaults)
    )
    pairs.extend(
        (arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return [
        Violation(
            "unseeded-random",
            module.path,
            default.lineno,
            f"function {name!r}: parameter 'seed' defaults to None — an "
            "unseeded fallback; default to a fixed integer so every code "
            "path stays reproducible",
        )
        for arg, default in pairs
        if arg.arg == "seed"
        and isinstance(default, ast.Constant)
        and default.value is None
    ]
