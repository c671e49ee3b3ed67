"""The shared project graph behind the interprocedural rules (R7, R8).

The first-generation rules (R1, R2, R4-R6) are per-module AST walks; the bug
classes this package grew to catch next — lock-order inversions, blocking
calls reached *through* helper methods while a lock is held, config
fields nobody reads — are properties of the whole program.  This module
builds, once per run, the three shared structures those rules consume:

* **symbol tables** — every class (with its lock attributes, methods and
  base-class names) and every module-level function, addressed by a
  *qualified name* ``"<rel>::<Class>.<method>"`` / ``"<rel>::<func>"``;
* an **approximate call graph** — edges resolved from call sites via
  ``self.``-dispatch (including inherited methods), module-level names,
  project imports, and — deliberately last — a *unique-method-name*
  match (``registry.put(...)`` resolves to ``PayloadRegistry.put`` only
  because exactly one project class defines ``put``);
* **lock-acquisition contexts** — for every function, which of its
  class's ``threading.Lock``/``RLock`` attributes it takes and what runs
  under them, plus which locks *guard state* (some attribute mutation
  happens under them — R2's notion), which R7 uses to tell a shared-state
  lock from a dedicated long-operation mutex.

Soundness limits (documented in DESIGN.md §7): resolution is
name-based, so calls through variables of unknown type resolve only when
the method name is project-unique (ambiguous names like ``close`` are
dropped, an *under*-approximation), while a unique name on the wrong
receiver resolves anyway (an *over*-approximation).  ``getattr``,
decorators that rebind, and ``super()`` chains outside the project are
invisible.  The rules are linters, not verifiers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import (
    Finding,
    Module,
    Rule,
    dotted_name,
    enclosing_symbols,
    self_attribute,
)
from repro.analysis.locks import LOCK_FACTORIES, MUTATOR_METHODS


@dataclass
class FunctionInfo:
    """One function or method, addressed by its qualified name."""

    qname: str  # "<rel>::<symbol>", e.g. "utils/transport.py::Channel.recv"
    rel: str  # module the function lives in
    symbol: str  # "Class.method", "func", or "func.nested"
    node: ast.AST  # the FunctionDef/AsyncFunctionDef
    class_name: Optional[str]  # owning class for methods, else None


@dataclass
class ClassInfo:
    """One class: its methods, bases, and lock-typed attributes."""

    name: str
    rel: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qname
    bases: Tuple[str, ...] = ()
    lock_attrs: FrozenSet[str] = frozenset()


@dataclass
class LockSite:
    """One ``with self.<lock>`` acquisition inside one function."""

    lock: str  # lock id: "<rel>::<Class>.<attr>"
    node: ast.With
    line: int


class ProjectGraph:
    """Symbol tables + call graph + lock contexts over one module set."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules: Tuple[Module, ...] = tuple(modules)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}  # keyed "<rel>::<Class>"
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: method name -> qnames of every project method with that name.
        self.method_index: Dict[str, List[str]] = {}
        #: rel -> {local name: ("module", rel) | ("symbol", rel, name)}
        self.imports: Dict[str, Dict[str, Tuple]] = {}
        #: rel -> project modules it imports (for --diff-base closure).
        self.import_edges: Dict[str, Set[str]] = {}
        self.calls: Dict[str, Set[str]] = {}
        #: qname -> [LockSite...] acquisitions lexically inside it.
        self.lock_sites: Dict[str, List[LockSite]] = {}
        #: lock ids under which some self-attribute mutation happens.
        self.state_locks: Set[str] = set()
        self._build()

    # ----------------------------------------------------------- building

    def _build(self) -> None:
        self._rels = {module.rel for module in self.modules}
        for module in self.modules:
            self._index_module(module)
        for module in self.modules:
            self._resolve_imports(module)
        for module in self.modules:
            self._resolve_calls(module)
        for module in self.modules:
            self._collect_lock_contexts(module)

    def _index_module(self, module: Module) -> None:
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # enclosing_symbols already includes the def's own name
                symbol = symbols[id(node)]
                qname = f"{module.rel}::{symbol}"
                parts = symbol.split(".")
                class_name = None
                if len(parts) >= 2:
                    owner = self.classes.get(f"{module.rel}::{parts[-2]}")
                    if owner is not None:
                        class_name = parts[-2]
                info = FunctionInfo(
                    qname=qname,
                    rel=module.rel,
                    symbol=symbol,
                    node=node,
                    class_name=class_name,
                )
                self.functions[qname] = info
                if class_name is not None:
                    owner = self.classes[f"{module.rel}::{class_name}"]
                    owner.methods.setdefault(node.name, qname)
                    self.method_index.setdefault(node.name, []).append(qname)
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    name=node.name,
                    rel=module.rel,
                    node=node,
                    bases=tuple(
                        name
                        for name in (dotted_name(base) for base in node.bases)
                        if name is not None
                    ),
                    lock_attrs=_lock_attributes(node),
                )
                self.classes[f"{module.rel}::{node.name}"] = info
                self.classes_by_name.setdefault(node.name, []).append(info)

    def _resolve_imports(self, module: Module) -> None:
        table: Dict[str, Tuple] = {}
        edges: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    rel = self._module_rel(alias.name)
                    if rel is not None:
                        table[alias.asname or alias.name.split(".")[0]] = (
                            "module",
                            rel,
                        )
                        edges.add(rel)
            elif isinstance(node, ast.ImportFrom) and node.module:
                rel = self._module_rel(node.module)
                if rel is None:
                    continue
                edges.add(rel)
                for alias in node.names:
                    table[alias.asname or alias.name] = (
                        "symbol",
                        rel,
                        alias.name,
                    )
        self.imports[module.rel] = table
        self.import_edges[module.rel] = edges

    def _module_rel(self, dotted: str) -> Optional[str]:
        """Map an import's dotted module path to a scanned module's rel."""
        tail = dotted
        for prefix in ("repro.",):
            if tail.startswith(prefix):
                tail = tail[len(prefix) :]
        if tail == "repro":
            tail = ""
        for candidate in (
            tail.replace(".", "/") + ".py",
            tail.replace(".", "/") + "/__init__.py",
            "__init__.py" if not tail else None,
        ):
            if candidate is not None and candidate in self._rels:
                return candidate
        return None

    # ------------------------------------------------------ call resolution

    #: method names too generic for the unique-name fallback — resolving
    #: ``x.get(...)`` to the single project class defining ``get`` is the
    #: over-approximation this graph accepts, but builtin-container names
    #: this common would drown the call graph in wrong edges.
    AMBIGUOUS_METHOD_NAMES = frozenset(
        {
            "append",
            "add",
            "items",
            "values",
            "copy",
            "pop",
            "read",
            "write",
            "update",
            "setdefault",
            "sort",
            "split",
            "strip",
            "format",
            "encode",
            "decode",
            "startswith",
            "endswith",
            # stdlib concurrency/IO verbs: ``thread.start()`` must not
            # resolve to the one project class that happens to define
            # ``start`` — these receivers are Threads/Events/locks/
            # sockets far more often than project objects.
            "start",
            "stop",
            "run",
            "close",
            "join",
            "wait",
            "set",
            "clear",
            "acquire",
            "release",
            "get",
            "put",
            "send",
            "connect",
            "shutdown",
            "terminate",
            "kill",
            "cancel",
        }
    )

    def _resolve_calls(self, module: Module) -> None:
        symbols = enclosing_symbols(module.tree)
        table = self.imports.get(module.rel, {})
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            symbol = symbols[id(node)]
            if symbol == "<module>":
                continue
            caller = f"{module.rel}::{symbol}"
            if caller not in self.functions:
                continue
            callee = self._resolve_callee(node.func, module.rel, table, symbol)
            if callee is None:
                continue
            self.calls.setdefault(caller, set()).add(callee)

    def _resolve_callee(
        self,
        func: ast.AST,
        rel: str,
        imports: Dict[str, Tuple],
        caller_symbol: str,
    ) -> Optional[str]:
        dotted = dotted_name(func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        # self.m(...) — the enclosing class or an inherited project method
        if parts[0] == "self" and len(parts) == 2:
            class_name = caller_symbol.split(".")[0]
            return self._resolve_method(rel, class_name, parts[1])
        if len(parts) == 1:
            name = parts[0]
            local = f"{rel}::{name}"
            if local in self.functions:
                return local
            target = imports.get(name)
            if target is not None and target[0] == "symbol":
                return self._resolve_symbol(target[1], target[2])
            # Name() of a same-module class: the constructor
            if f"{rel}::{name}" in self.classes:
                return self.classes[f"{rel}::{name}"].methods.get("__init__")
            return None
        # mod.f(...) via an imported module alias
        target = imports.get(parts[0])
        if target is not None and target[0] == "module" and len(parts) == 2:
            return self._resolve_symbol(target[1], parts[1])
        # obj.m(...) — unique project method name, last resort
        method = parts[-1]
        if method in self.AMBIGUOUS_METHOD_NAMES:
            return None
        candidates = self.method_index.get(method, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _resolve_method(
        self, rel: str, class_name: str, method: str, _depth: int = 0
    ) -> Optional[str]:
        """``Class.method`` in ``rel``, walking project base classes."""
        if _depth > 8:
            return None
        info = self.classes.get(f"{rel}::{class_name}")
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method]
        for base in info.bases:
            base_name = base.split(".")[-1]
            for base_info in self.classes_by_name.get(base_name, []):
                found = self._resolve_method(
                    base_info.rel, base_info.name, method, _depth + 1
                )
                if found is not None:
                    return found
        return None

    def _resolve_symbol(self, rel: str, name: str) -> Optional[str]:
        qname = f"{rel}::{name}"
        if qname in self.functions:
            return qname
        if qname in self.classes:
            return self.classes[qname].methods.get("__init__")
        return None

    # ------------------------------------------------------- lock contexts

    def _collect_lock_contexts(self, module: Module) -> None:
        for qname, info in self.functions.items():
            if info.rel != module.rel or info.class_name is None:
                continue
            owner = self.classes[f"{module.rel}::{info.class_name}"]
            if not owner.lock_attrs:
                continue
            sites: List[LockSite] = []
            for node in _walk_no_nested_defs_of(info.node):
                if not isinstance(node, ast.With):
                    continue
                for item in node.items:
                    attr = self_attribute(item.context_expr)
                    if attr in owner.lock_attrs:
                        lock_id = f"{module.rel}::{info.class_name}.{attr}"
                        sites.append(
                            LockSite(lock=lock_id, node=node, line=node.lineno)
                        )
                        if _mutates_self_attribute(node):
                            self.state_locks.add(lock_id)
            if sites:
                self.lock_sites[qname] = sites

    # ------------------------------------------------------------ closures

    def transitive(
        self, roots: Iterable[str], edges: Dict[str, Set[str]]
    ) -> Set[str]:
        """Everything reachable from ``roots`` along ``edges`` (roots
        included)."""
        seen: Set[str] = set()
        todo = list(roots)
        while todo:
            node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            todo.extend(edges.get(node, ()))
        return seen

    def callees_of(self, qname: str) -> Set[str]:
        return self.transitive([qname], self.calls)

    def module_closure(self, rels: Iterable[str]) -> Set[str]:
        """``--diff-base`` scope: the changed modules plus everything they
        import and everything that imports them, transitively."""
        reverse: Dict[str, Set[str]] = {}
        for importer, targets in self.import_edges.items():
            for target in targets:
                reverse.setdefault(target, set()).add(importer)
        roots = [rel for rel in rels if rel in self._rels]
        return self.transitive(roots, self.import_edges) | self.transitive(
            roots, reverse
        )


def _lock_attributes(cls: ast.ClassDef) -> FrozenSet[str]:
    """Attributes assigned from ``threading.Lock``/``RLock`` on ``self``."""
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        factory = node.value.func
        name = (
            factory.attr
            if isinstance(factory, ast.Attribute)
            else factory.id
            if isinstance(factory, ast.Name)
            else None
        )
        if name not in LOCK_FACTORIES:
            continue
        for target in node.targets:
            attr = self_attribute(target)
            if attr is not None:
                locks.add(attr)
    return frozenset(locks)


def _walk_no_nested_defs_of(node: ast.AST) -> Iterable[ast.AST]:
    """Descendants of ``node``'s body, skipping nested defs/lambdas (a
    closure's execution context is not the method's lock context)."""
    todo: List[ast.AST] = list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop(0)
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        todo.extend(ast.iter_child_nodes(child))


def _mutates_self_attribute(with_node: ast.With) -> bool:
    """Whether a ``with self.<lock>`` body mutates any ``self.X`` — the
    R2 notion that makes the lock a *state* lock (vs a pure serialization
    mutex, which R7's blocking check exempts)."""
    for node in _walk_no_nested_defs_of(with_node):
        targets: List[ast.AST] = []
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                list(node.targets) if isinstance(node, ast.Assign) else [node.target]
            )
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATOR_METHODS:
                if self_attribute(node.func.value) is not None:
                    return True
        for target in targets:
            elements = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for element in elements:
                if isinstance(element, ast.Subscript):
                    element = element.value
                if self_attribute(element) is not None:
                    return True
    return False


def build_graph(modules: Sequence[Module]) -> ProjectGraph:
    """Build the shared graph once; rules receive it from the runner."""
    return ProjectGraph(modules)


class GraphRule(Rule):
    """A rule that consumes the shared :class:`ProjectGraph`.

    The runner builds the graph once and passes it to every graph rule;
    calling :meth:`check` directly (tests, ad-hoc use) builds a private
    one, so graph rules stay drop-in :class:`~repro.analysis.base.Rule`
    instances.
    """

    def check(
        self,
        modules: Sequence[Module],
        graph: Optional[ProjectGraph] = None,
    ) -> List[Finding]:
        if graph is None:
            graph = build_graph(modules)
        return self.check_graph(modules, graph)

    def check_graph(
        self, modules: Sequence[Module], graph: ProjectGraph
    ) -> List[Finding]:
        raise NotImplementedError
