"""AST-walker framework for the repo-invariant static-analysis pass.

The correctness of this system increasingly rests on invariants no test
can exhaustively check — bitwise replay determinism, lock discipline in
the threaded daemon code, the ``repro.errors`` taxonomy (DESIGN.md §7).
This package encodes those invariants as machine-checked rules, the
static-analysis analogue of the perf regression gate
(``benchmarks/run_perf --check``).

The framework is deliberately small:

* :class:`Module` — one parsed source file: absolute path, the
  *package-relative* path rules scope on (``core/svi.py``), the raw
  source, its physical lines, and the :mod:`ast` tree.
* :class:`Rule` — a named check over the whole module set.  Rules see
  every module at once because some invariants are cross-module
  (checkpoint-schema sync); per-module rules simply iterate.
* :class:`Finding` — one violation: where, what, and a *stable
  suppression key* that survives unrelated edits (no line numbers in the
  key), so the checked-in baseline (:mod:`repro.analysis.baseline`) does
  not churn.

Rules live in their own modules (:mod:`repro.analysis.determinism` and
siblings); the registry and CLI are in :mod:`repro.analysis.cli`.
"""

from __future__ import annotations

import ast
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``key`` identifies the violation *site* independently of line
    numbers (rule id + relative path + enclosing symbol + subject), so a
    baseline entry keeps suppressing it across unrelated edits and goes
    stale the moment the flagged code is actually fixed or removed.
    """

    rule: str
    path: str
    line: int
    message: str
    key: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "key": self.key,
        }


@dataclass(frozen=True)
class Module:
    """One parsed source file handed to every rule."""

    path: str  # absolute filesystem path (diagnostics)
    rel: str  # package-relative path with forward slashes (rule scoping)
    source: str
    lines: Tuple[str, ...]
    tree: ast.Module


class Rule:
    """One invariant, checked over the full module set.

    Subclasses set ``rule_id`` (stable, referenced by baselines and CLI
    ``--rules``), ``name`` (human slug), ``description`` (one line shown
    by ``--list-rules``), and implement :meth:`check`.
    """

    rule_id: str = "R0"
    name: str = "abstract"
    description: str = ""

    def check(self, modules: Sequence[Module]) -> List[Finding]:
        raise NotImplementedError


def _package_relative(path: str, root: Optional[str]) -> str:
    """The path rules scope on: relative to the enclosing ``repro``
    package when the file lives in one, else relative to the scan root.

    Walking up to the nearest ``repro`` package means fixtures laid out
    as ``<tmp>/core/bad.py`` and the real ``src/repro/core/svi.py`` both
    present as ``core/...`` to the rules.
    """
    directory = os.path.dirname(os.path.abspath(path))
    probe = directory
    while True:
        if os.path.basename(probe) == "repro" and os.path.isfile(
            os.path.join(probe, "__init__.py")
        ):
            rel = os.path.relpath(os.path.abspath(path), probe)
            return rel.replace(os.sep, "/")
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    base = os.path.abspath(root) if root else os.path.dirname(os.path.abspath(path))
    rel = os.path.relpath(os.path.abspath(path), base)
    return rel.replace(os.sep, "/")


def _iter_source_files(path: str) -> Iterable[str]:
    if os.path.isfile(path):
        yield path
        return
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def load_module(path: str, root: Optional[str] = None) -> Module:
    """Parse one file into a :class:`Module`; loud on unreadable input."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    return Module(
        path=os.path.abspath(path),
        rel=_package_relative(path, root),
        source=source,
        lines=tuple(source.splitlines()),
        tree=tree,
    )


def collect_modules(paths: Sequence[str]) -> List[Module]:
    """Load every ``.py`` file under ``paths`` (files or directories)."""
    modules: List[Module] = []
    seen: set = set()
    for path in paths:
        if not os.path.exists(path):
            raise AnalysisError(f"no such file or directory: {path}")
        root = path if os.path.isdir(path) else None
        for filename in _iter_source_files(path):
            absolute = os.path.abspath(filename)
            if absolute in seen:
                continue
            seen.add(absolute)
            modules.append(load_module(filename, root))
    return modules


def run_rules(
    modules: Sequence[Module],
    rules: Sequence[Rule],
    *,
    jobs: int = 1,
    graph: Optional[object] = None,
    timings: Optional[Dict[str, float]] = None,
) -> List[Finding]:
    """Run every rule over the module set; findings in (path, line) order.

    ``graph`` is the shared interprocedural :class:`ProjectGraph` (built
    once by the runner and handed to every rule exposing ``check_graph``
    — duck-typed here so this module needs no import of
    :mod:`repro.analysis.graph`, which imports us).  ``jobs > 1`` runs
    rules on a thread pool; rules are pure functions of the parsed
    module set, and the final sort makes output order independent of
    completion order.  ``timings``, when given, receives per-rule wall
    seconds keyed by rule id.
    """

    def _run_one(rule: Rule) -> List[Finding]:
        start = time.perf_counter()
        if graph is not None and hasattr(rule, "check_graph"):
            found = rule.check(modules, graph)  # type: ignore[call-arg]
        else:
            found = rule.check(modules)
        if timings is not None:
            timings[rule.rule_id] = time.perf_counter() - start
        return found

    if jobs > 1 and len(rules) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_rule = list(pool.map(_run_one, rules))
    else:
        per_rule = [_run_one(rule) for rule in rules]
    findings: List[Finding] = []
    for found in per_rule:
        findings.extend(found)
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.key))


# --------------------------------------------------------------- AST helpers
#
# Shared by the rule modules; tiny on purpose — each rule reads as a direct
# statement of its invariant, not as visitor plumbing.


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attribute(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def walk_no_nested_defs(node: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested defs/lambdas.

    Used where the *execution context* matters (lock-discipline): a
    closure defined inside a method runs who-knows-where, so its body
    must not be attributed to the method's lock state.
    """
    todo: List[ast.AST] = list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop(0)
        yield child
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        todo.extend(ast.iter_child_nodes(child))


def enclosing_symbols(tree: ast.Module) -> Dict[int, str]:
    """Map every AST node id to its enclosing ``Class.method`` symbol.

    Rules use this to build line-independent suppression keys; the
    module level maps to ``"<module>"``.
    """
    symbols: Dict[int, str] = {}

    def visit(node: ast.AST, symbol: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_symbol = symbol
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child_symbol = (
                    child.name if symbol == "<module>" else f"{symbol}.{child.name}"
                )
            symbols[id(child)] = child_symbol
            visit(child, child_symbol)

    symbols[id(tree)] = "<module>"
    visit(tree, "<module>")
    return symbols
