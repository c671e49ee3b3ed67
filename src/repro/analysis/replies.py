"""R10 — reply-shape conformance: clients handle every reply variant.

R3 checks the *request* direction: every op a client sends is dispatched
somewhere.  This rule checks the *reply* direction, which R3 cannot see:
some ops answer with more than the ``("ok", value)`` /
``("err", exc, tb)`` envelope.  ``map_on`` answers ``("stale", key)``
when the resident payload was dropped; ``chunk_assemble`` answers
``("missing", digests)`` when the manifest names chunks the request
neither carried nor the chunk cache holds (the first, manifest-only
request of every cold install); ``restore_key`` answers
``("stale", key)`` when the named checkpoint is gone.  The transport
surfaces those as :class:`StaleBroadcast` / :class:`ChunksMissing`, and
a call site that does not catch them turns a *recoverable* protocol
miss into a crashed lane.  Today one function sends ``chunk_assemble``
(``transport.ship_chunks``) and handles ``missing`` by carrying the
named chunks.

Statically:

* **server variant map** — inside ``handle``/``handle_request``, every
  ``return`` of a tuple literal whose head is a string other than
  ``"ok"``/``"err"`` is a reply *variant* of the op(s) guarding that
  branch (``if op == ...`` / ``op in (...)``);
* **client send sites** — as in R3: tuple literals passed to
  ``request``/``_request``/``send`` and tuple-literal lambda bodies,
  but now attributed to their enclosing function via the project graph;
* **coverage** — for each send site and each variant of its op, a
  handler must exist in the sender, its transitive callees or callers
  (the ``_dispatch`` retry loop catching for ``map_on``'s lambda), or a
  lexically enclosing function (nested checkpoint-shipping helpers).  A
  handler is an ``except StaleBroadcast/ChunksMissing`` clause for the
  variant's exception, or a string comparison against the variant name.

The callers-direction search deliberately over-approximates — *some*
caller handling the variant is taken as coverage for all — because the
repo funnels every remote call through one retry seam per subsystem;
DESIGN.md §7 lists this among the soundness trades.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import (
    Finding,
    Module,
    dotted_name,
    enclosing_symbols,
)
from repro.analysis.graph import (
    GraphRule,
    ProjectGraph,
    _walk_no_nested_defs_of,
)
from repro.analysis.wire import (
    CLIENT_SEND_FUNCTIONS,
    SERVER_DISPATCH_FUNCTIONS,
    _string_constants,
    _tuple_head,
)

#: reply heads that are part of the base envelope, not variants.
ENVELOPE_HEADS = {"ok", "err"}

#: variant head -> exception the transport raises for it.
VARIANT_EXCEPTIONS = {
    "stale": "StaleBroadcast",
    "missing": "ChunksMissing",
}


class ReplyShapeRule(GraphRule):
    rule_id = "R10"
    name = "reply-shape"
    description = (
        "every client call site of an op with non-ok reply variants "
        "(stale/missing/...) handles each variant, directly or in its "
        "call-graph component"
    )

    def check_graph(
        self, modules: Sequence[Module], graph: ProjectGraph
    ) -> List[Finding]:
        variants = _server_variants(modules)
        if not variants:
            return []
        findings: List[Finding] = []
        for op, sender, rel, line in _send_sites(modules, graph):
            for variant in sorted(variants.get(op, ())):
                if self._variant_handled(sender, variant, graph):
                    continue
                exc = VARIANT_EXCEPTIONS.get(variant)
                hint = (
                    f"catch {exc}" if exc else f'check for "{variant}"'
                )
                symbol = sender.split("::", 1)[-1]
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=rel,
                        line=line,
                        message=(
                            f"{symbol} sends op {op!r} but nothing on its "
                            f"call path handles the ({variant!r}, ...) "
                            f"reply — {hint} or the lane crashes on a "
                            "recoverable miss"
                        ),
                        key=f"R10:{op}:{variant}:{symbol}",
                    )
                )
        # one finding per (op, variant, sender): several literals in one
        # function are one coverage gap
        unique: Dict[str, Finding] = {}
        for finding in findings:
            unique.setdefault(finding.key, finding)
        return list(unique.values())

    def _variant_handled(
        self, sender: str, variant: str, graph: ProjectGraph
    ) -> bool:
        component = graph.callees_of(sender) | graph.callers_of(sender)
        component |= _lexical_ancestors(sender, graph)
        exception = VARIANT_EXCEPTIONS.get(variant)
        for qname in component:
            info = graph.functions.get(qname)
            if info is None:
                continue
            if _handles(info.node, variant, exception):
                return True
        return False


def _server_variants(
    modules: Sequence[Module],
) -> Dict[str, Set[str]]:
    """op -> reply-variant heads, from tuple-literal returns inside the
    dispatch functions, attributed to the enclosing op guard."""
    variants: Dict[str, Set[str]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in SERVER_DISPATCH_FUNCTIONS:
                continue
            _collect_variants(node.body, frozenset(), variants)
    return variants


def _collect_variants(
    stmts: Sequence[ast.stmt],
    ops: frozenset,
    out: Dict[str, Set[str]],
) -> None:
    for stmt in stmts:
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            for head, _line in _tuple_head(stmt.value):
                if head in ENVELOPE_HEADS:
                    continue
                for op in ops:
                    out.setdefault(op, set()).add(head)
        elif isinstance(stmt, ast.If):
            guarded = _guarded_ops(stmt.test)
            _collect_variants(stmt.body, guarded or ops, out)
            _collect_variants(stmt.orelse, ops, out)
        elif isinstance(stmt, ast.Try):
            _collect_variants(stmt.body, ops, out)
            for handler in stmt.handlers:
                _collect_variants(handler.body, ops, out)
            _collect_variants(stmt.orelse, ops, out)
            _collect_variants(stmt.finalbody, ops, out)
        elif isinstance(stmt, (ast.For, ast.While, ast.With)):
            _collect_variants(stmt.body, ops, out)
            if hasattr(stmt, "orelse"):
                _collect_variants(stmt.orelse, ops, out)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # nested defs run in their own dispatch context


def _guarded_ops(test: ast.AST) -> Optional[frozenset]:
    """The op literals an ``if`` guard pins down, if it is an op guard."""
    if not isinstance(test, ast.Compare):
        return None
    left = test.left
    if not (isinstance(left, ast.Name) and left.id == "op"):
        return None
    ops: Set[str] = set()
    for operator, comparator in zip(test.ops, test.comparators):
        if isinstance(operator, (ast.Eq, ast.In)):
            ops.update(op for op, _line in _string_constants(comparator))
    return frozenset(ops) or None


def _send_sites(
    modules: Sequence[Module], graph: ProjectGraph
) -> List[Tuple[str, str, str, int]]:
    """``(op, sender qname, rel, line)`` per client request literal."""
    sites: List[Tuple[str, str, str, int]] = []
    for module in modules:
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            heads: List[Tuple[str, int]] = []
            if isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                if (
                    callee is not None
                    and callee.rsplit(".", 1)[-1] in CLIENT_SEND_FUNCTIONS
                ):
                    for arg in node.args:
                        heads.extend(_tuple_head(arg))
            elif isinstance(node, ast.Lambda):
                heads.extend(_tuple_head(node.body))
            if not heads:
                continue
            symbol = symbols[id(node)]
            if symbol == "<module>":
                continue
            qname = f"{module.rel}::{symbol}"
            if qname not in graph.functions:
                continue
            for op, line in heads:
                sites.append((op, qname, module.rel, line))
    return sites


def _lexical_ancestors(qname: str, graph: ProjectGraph) -> Set[str]:
    """Enclosing functions of a nested def — ``f.g`` runs inside ``f``,
    so a handler around the call site in ``f`` covers ``g``'s sends even
    though the bare-name call edge may not resolve."""
    rel, symbol = qname.split("::", 1)
    ancestors: Set[str] = set()
    parts = symbol.split(".")
    for cut in range(1, len(parts)):
        candidate = f"{rel}::{'.'.join(parts[:cut])}"
        if candidate in graph.functions:
            ancestors.add(candidate)
    return ancestors


def _handles(
    func: ast.AST, variant: str, exception: Optional[str]
) -> bool:
    """An ``except <exception>`` clause or a string compare against the
    variant name anywhere in ``func``'s own body."""
    for node in _walk_no_nested_defs_of(func):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            if exception is not None and _names_in(node.type, exception):
                return True
        elif isinstance(node, ast.Compare):
            constants = [node.left] + list(node.comparators)
            for constant in constants:
                if (
                    isinstance(constant, ast.Constant)
                    and constant.value == variant
                ):
                    return True
    return False


def _names_in(node: ast.AST, name: str) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id == name:
            return True
        if isinstance(child, ast.Attribute) and child.attr == name:
            return True
    return False
