"""Shared AST helpers for the analysis passes.

The hygiene, determinism, RNG-flow, and parallel-safety passes all need
the same two primitives:

* :class:`ModuleAliases` — which local names a file binds to the
  modules the rules care about (``random``, ``time``, ``datetime``,
  ``os``, ``math``, ``multiprocessing``, ``concurrent.futures``,
  ``numpy``, ``numpy.random``), resolved from both ``import x [as y]``
  and ``from x import y [as z]`` forms.
* :func:`dotted_call_name` — the dotted name of a call target when it is
  statically resolvable (``pool.map`` → ``"pool.map"``,
  ``multiprocessing.Pool`` → ``"multiprocessing.Pool"``), or ``None``
  for dynamic targets.

Everything here is pure stdlib so the analysis package keeps its
bottom-of-the-layering (stdlib + :mod:`repro.errors`) contract.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

#: Modules the passes track aliases for.
_TRACKED_MODULES = (
    "random",
    "time",
    "datetime",
    "os",
    "math",
    "multiprocessing",
    "concurrent.futures",
    "numpy",
    "numpy.random",
)


class ModuleAliases:
    """Names one source file binds to the tracked modules.

    ``modules[m]`` is the set of local names bound to module ``m``
    (``import time as t`` → ``{"t"}``); ``members[m]`` maps local names
    to the member imported from ``m`` (``from time import perf_counter
    as pc`` → ``{"pc": "perf_counter"}``).
    """

    def __init__(self) -> None:
        self.modules: Dict[str, Set[str]] = {
            name: set() for name in _TRACKED_MODULES
        }
        self.members: Dict[str, Dict[str, str]] = {
            name: {} for name in _TRACKED_MODULES
        }

    def module_names(self, module: str) -> Set[str]:
        return self.modules.get(module, set())

    def member_name(self, module: str, bound: str) -> Optional[str]:
        """The imported member a local name refers to, if any."""
        return self.members.get(module, {}).get(bound)


def collect_module_aliases(tree: ast.Module) -> ModuleAliases:
    """Scan every import in ``tree`` (lazy ones included)."""
    aliases = ModuleAliases()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in aliases.modules:
                    # ``import concurrent.futures`` binds ``concurrent``;
                    # the dotted-attribute form is resolved at use sites.
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    aliases.modules[alias.name].add(bound)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module in aliases.members:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    aliases.members[node.module][
                        alias.asname or alias.name
                    ] = alias.name
    return aliases


def dotted_call_name(func: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def build_parent_map(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    """child → parent for every node in ``tree``."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def function_like(node: ast.AST) -> bool:
    return isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    )
