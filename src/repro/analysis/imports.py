"""Architecture linter: AST import walker + layering/cycle/stdlib checks.

Works on :class:`SourceModule` snapshots (one parsed file each) produced
by :mod:`repro.analysis.linter`.  Four rules:

* ``layering`` — a module-level import reaches a *higher* layer than the
  importer's (per ``docs/layering.toml``).  Function-scoped (lazy)
  imports are the sanctioned escape hatch and are not flagged.
* ``cycle`` — a strongly connected component of size > 1 (or a
  self-import) in the module-level import graph.
* ``stdlib-only`` — a module listed in ``[rules] stdlib_only`` imports
  anything outside the standard library (lazy imports included).  Other
  modules in the ``stdlib_only`` scope are allowed targets: the rule
  guards the *transitive* dependency-free property, which importing
  another dependency-free module preserves.
* ``forbidden-import`` — an import matches an explicit ban from
  ``[rules.forbidden]`` (lazy imports included).
* ``unassigned-module`` — a first-party module has no layer in the
  spec, which would silently exempt it from the layering pass.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.report import Violation
from repro.analysis.spec import LayeringSpec


@dataclass(frozen=True)
class SourceModule:
    """One parsed first-party source file."""

    name: str
    path: str
    tree: ast.Module
    lines: Tuple[str, ...]
    is_package: bool = False


@dataclass(frozen=True)
class ImportEdge:
    """One import statement: ``module`` imports ``target`` at ``line``."""

    module: str
    target: str
    line: int
    lazy: bool


def collect_imports(module: SourceModule) -> List[ImportEdge]:
    """All imports of ``module``; function-scoped ones are marked lazy."""
    edges: List[ImportEdge] = []

    def visit(node: ast.AST, lazy: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append(
                    ImportEdge(module.name, alias.name, node.lineno, lazy)
                )
            return
        if isinstance(node, ast.ImportFrom):
            base = _resolve_from(module.name, module.is_package, node)
            if base:
                edges.append(
                    ImportEdge(module.name, base, node.lineno, lazy)
                )
                # ``from pkg import sub`` may bind a submodule, not a
                # symbol; emit the deeper edge too so layering, cycle,
                # and forbidden checks see it.  Symbol names resolve to
                # their base module's layer via prefix matching, so the
                # extra edges are harmless when the name is not a module.
                for alias in node.names:
                    if alias.name != "*":
                        edges.append(
                            ImportEdge(
                                module.name,
                                f"{base}.{alias.name}",
                                node.lineno,
                                lazy,
                            )
                        )
            return
        nested_lazy = lazy or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ) or _is_type_checking_guard(node)
        for child in ast.iter_child_nodes(node):
            visit(child, nested_lazy)

    for top in module.tree.body:
        visit(top, False)
    return edges


def _is_type_checking_guard(node: ast.AST) -> bool:
    """True for ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` blocks
    — annotation-only imports, never executed at runtime."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _resolve_from(
    module_name: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute target of a ``from ... import`` (handles relative levels)."""
    if node.level == 0:
        return node.module
    parts = module_name.split(".")
    # Level 1 resolves against the containing package: the module itself
    # for a package __init__, its parent for a plain module.
    drop = node.level - 1 if is_package else node.level
    base = parts[: len(parts) - drop] if drop else parts
    if node.module:
        return ".".join(base + node.module.split("."))
    return ".".join(base) if base else None


def first_party_prefix(modules: Sequence[SourceModule]) -> str:
    """The shared root package name (``repro`` in this tree)."""
    if not modules:
        return ""
    return modules[0].name.split(".", 1)[0]


def check_architecture(
    modules: Sequence[SourceModule], spec: LayeringSpec
) -> List[Violation]:
    """Run every architecture rule over the module set."""
    violations: List[Violation] = []
    edges_by_module = {m.name: collect_imports(m) for m in modules}
    paths = {m.name: m.path for m in modules}
    root = first_party_prefix(modules)

    violations.extend(
        _check_layering(modules, edges_by_module, spec, root)
    )
    violations.extend(
        _check_forbidden(modules, edges_by_module, spec)
    )
    violations.extend(
        _check_stdlib_only(modules, edges_by_module, spec, root)
    )
    violations.extend(
        _check_cycles(set(paths), edges_by_module, paths)
    )
    return violations


def _check_layering(
    modules: Sequence[SourceModule],
    edges_by_module: Dict[str, List[ImportEdge]],
    spec: LayeringSpec,
    root: str,
) -> List[Violation]:
    violations: List[Violation] = []
    for module in modules:
        own_layer = spec.layer_of(module.name)
        if own_layer is None:
            violations.append(
                Violation(
                    "unassigned-module",
                    module.path,
                    1,
                    f"module {module.name} has no layer in the spec; add it "
                    "to [layers] in docs/layering.toml",
                )
            )
            continue
        for edge in edges_by_module[module.name]:
            if edge.lazy or not _is_first_party(edge.target, root):
                continue
            target_layer = spec.layer_of(edge.target)
            if target_layer is None:
                continue  # the target's own unassigned-module row covers it
            if target_layer > own_layer:
                violations.append(
                    Violation(
                        "layering",
                        module.path,
                        edge.line,
                        f"{module.name} (layer {own_layer}) imports "
                        f"{edge.target} (layer {target_layer}): upward "
                        "imports are banned; use a lazy function-level "
                        "import if the dependency is genuinely one-shot",
                    )
                )
    return violations


def _check_forbidden(
    modules: Sequence[SourceModule],
    edges_by_module: Dict[str, List[ImportEdge]],
    spec: LayeringSpec,
) -> List[Violation]:
    violations: List[Violation] = []
    for module in modules:
        for edge in edges_by_module[module.name]:
            for source, targets in spec.forbidden.items():
                if not spec.in_scope(module.name, [source]):
                    continue
                if spec.in_scope(edge.target, list(targets)):
                    violations.append(
                        Violation(
                            "forbidden-import",
                            module.path,
                            edge.line,
                            f"{module.name} imports {edge.target}: "
                            f"{source} -> {_match_of(edge.target, targets)} "
                            "is explicitly banned by docs/layering.toml",
                        )
                    )
    return violations


def _match_of(target: str, prefixes: Iterable[str]) -> str:
    for prefix in prefixes:
        if target == prefix or target.startswith(prefix + "."):
            return prefix
    return target


def _check_stdlib_only(
    modules: Sequence[SourceModule],
    edges_by_module: Dict[str, List[ImportEdge]],
    spec: LayeringSpec,
    root: str,
) -> List[Violation]:
    stdlib: Set[str] = set(getattr(sys, "stdlib_module_names", ()))
    violations: List[Violation] = []
    for module in modules:
        if not spec.in_scope(module.name, spec.stdlib_only):
            continue
        seen: Set[Tuple[int, str]] = set()
        for edge in edges_by_module[module.name]:
            top = edge.target.split(".", 1)[0]
            if _is_first_party(edge.target, root) and spec.in_scope(
                edge.target, spec.stdlib_only
            ):
                # Importing another stdlib-only module keeps the importer
                # transitively dependency-free.
                continue
            if stdlib and top in stdlib and not _is_first_party(edge.target, root):
                continue
            if not stdlib and not _is_first_party(edge.target, root):
                continue  # Python < 3.10: only first-party imports checkable
            if (edge.line, top) in seen:
                continue  # base + submodule edges of one from-import
            seen.add((edge.line, top))
            violations.append(
                Violation(
                    "stdlib-only",
                    module.path,
                    edge.line,
                    f"{module.name} must stay standard-library-only but "
                    f"imports {edge.target}",
                )
            )
    return violations


def _is_first_party(target: str, root: str) -> bool:
    return bool(root) and (target == root or target.startswith(root + "."))


def _check_cycles(
    module_names: Set[str],
    edges_by_module: Dict[str, List[ImportEdge]],
    paths: Dict[str, str],
) -> List[Violation]:
    """Tarjan SCCs over the module-level import graph (lazy edges excluded).

    Edges to an *ancestor package* are skipped: importing any submodule
    already executes every ancestor ``__init__``, so those edges are
    implicit and unavoidable, not design choices.  Self-edges from a
    package ``__init__`` importing its own submodules by name
    (``from repro.experiments import fig1``) are skipped for the same
    reason.
    """
    graph: Dict[str, List[str]] = {name: [] for name in module_names}
    for name, edges in edges_by_module.items():
        for edge in edges:
            if edge.lazy or edge.target not in module_names:
                continue
            if name == edge.target or name.startswith(edge.target + "."):
                continue  # self- or ancestor-package edge
            graph[name].append(edge.target)

    index_counter = [0]
    stack: List[str] = []
    on_stack: Set[str] = set()
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    sccs: List[List[str]] = []

    def strongconnect(node: str) -> None:
        # Iterative Tarjan: (node, iterator-position) frames.
        work = [(node, 0)]
        while work:
            current, child_index = work.pop()
            if child_index == 0:
                index[current] = index_counter[0]
                lowlink[current] = index_counter[0]
                index_counter[0] += 1
                stack.append(current)
                on_stack.add(current)
            recurse = False
            children = graph[current]
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index:
                    work.append((current, position + 1))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    lowlink[current] = min(lowlink[current], index[child])
            if recurse:
                continue
            if lowlink[current] == index[current]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                sccs.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])

    for name in sorted(graph):
        if name not in index:
            strongconnect(name)

    violations: List[Violation] = []
    for component in sccs:
        if len(component) < 2:
            continue
        members = sorted(component)
        anchor = members[0]
        violations.append(
            Violation(
                "cycle",
                paths[anchor],
                1,
                "import cycle: " + " <-> ".join(members),
            )
        )
    return violations
