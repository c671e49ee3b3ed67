"""``python -m repro.analysis`` — run the rule set over a source tree.

Exit codes follow the perf gate's convention:

* ``0`` — clean (no findings beyond the baseline; in ``--check`` mode
  the baseline must also have no stale entries);
* ``1`` — new findings (or stale baseline entries under ``--check``);
* ``2`` — the analyzer itself could not run (unreadable source,
  malformed baseline, unknown rule id).

``main`` returns the code rather than raising ``SystemExit`` so the
test suite and future tooling can call it in-process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Set, TextIO

from repro.analysis.base import Module, Rule, collect_modules, run_rules
from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    save_baseline,
)
from repro.analysis.checkpoint_sync import CheckpointSyncRule
from repro.analysis.config_plumbing import ConfigPlumbingRule
from repro.analysis.determinism import DeterminismRule
from repro.analysis.dtypes import DtypeHygieneRule
from repro.analysis.graph import GraphRule, build_graph
from repro.analysis.lifecycle import ResourceLifecycleRule
from repro.analysis.lockorder import LockOrderRule
from repro.analysis.locks import LockDisciplineRule
from repro.analysis.taxonomy import ErrorTaxonomyRule
from repro.errors import AnalysisError

#: the full rule registry, in rule-id order.
ALL_RULES: List[Rule] = [
    DeterminismRule(),
    LockDisciplineRule(),
    ErrorTaxonomyRule(),
    DtypeHygieneRule(),
    CheckpointSyncRule(),
    LockOrderRule(),
    ConfigPlumbingRule(),
    ResourceLifecycleRule(),
]

#: default scan target: the installed ``repro`` package itself.
DEFAULT_TARGET = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def select_rules(spec: Optional[str]) -> List[Rule]:
    """Resolve a ``--rules R1,R4`` spec against the registry."""
    if spec is None:
        return list(ALL_RULES)
    by_id = {rule.rule_id: rule for rule in ALL_RULES}
    selected: List[Rule] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in by_id:
            raise AnalysisError(
                f"unknown rule id {token!r}; known: {', '.join(sorted(by_id))}"
            )
        selected.append(by_id[token])
    if not selected:
        raise AnalysisError(f"--rules selected nothing from {spec!r}")
    return selected


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repo-invariant static analysis for the repro package",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=f"files or directories to scan (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="suppression file (default: the checked-in BASELINE.json)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (github: Actions workflow annotations)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run rules on N threads (graph built once, order unchanged)",
    )
    parser.add_argument(
        "--diff-base",
        default=None,
        metavar="REF",
        help=(
            "analyze only modules changed since the git ref, plus their "
            "import closure (both directions); stale-baseline checks are "
            "skipped in this mode — run the full tree for those"
        ),
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="R1,R2",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: also fail on stale baseline entries",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to cover exactly the current findings",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def main(
    argv: Optional[Sequence[str]] = None, stream: Optional[TextIO] = None
) -> int:
    out = stream if stream is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            out.write(f"{rule.rule_id}  {rule.name}: {rule.description}\n")
        return 0
    timings: Dict[str, float] = {}
    try:
        if args.jobs < 1:
            raise AnalysisError(f"--jobs must be >= 1, got {args.jobs}")
        rules = select_rules(args.rules)
        modules = collect_modules(args.paths or [DEFAULT_TARGET])
        if args.diff_base is not None:
            modules = _narrow_to_diff(modules, args.diff_base)
            if not modules:
                out.write(
                    f"no scanned modules changed since {args.diff_base}\n"
                )
                return 0
        graph = (
            build_graph(modules)
            if any(isinstance(rule, GraphRule) for rule in rules)
            else None
        )
        findings = run_rules(
            modules, rules, jobs=args.jobs, graph=graph, timings=timings
        )
        baseline = load_baseline(args.baseline)
        if args.write_baseline:
            baseline = save_baseline(args.baseline, findings, baseline)
        new, suppressed, stale = baseline.split(findings)
    except AnalysisError as exc:
        out.write(f"analysis error: {exc}\n")
        return 2
    # stale entries from unselected rules are expected, not drift
    if args.rules is not None:
        selected_ids = {rule.rule_id for rule in rules}
        stale = [key for key in stale if key.split(":", 1)[0] in selected_ids]
    if args.diff_base is not None:
        stale = []  # a partial scan cannot tell stale from out-of-scope
    failed = bool(new) or (args.check and bool(stale))
    if args.format == "json":
        out.write(
            json.dumps(
                {
                    "findings": [finding.as_dict() for finding in new],
                    "suppressed": len(suppressed),
                    "stale": stale,
                    "modules": len(modules),
                    "timings": {
                        rule_id: round(seconds, 6)
                        for rule_id, seconds in sorted(timings.items())
                    },
                    "ok": not failed,
                },
                indent=2,
            )
            + "\n"
        )
    elif args.format == "github":
        paths = {module.rel: module.path for module in modules}
        for finding in new:
            file_path = os.path.relpath(paths.get(finding.path, finding.path))
            message = finding.message.replace("\n", " ")
            out.write(
                f"::error file={file_path},line={finding.line},"
                f"title={finding.rule}::{message}\n"
            )
        for key in stale:
            out.write(f"::warning title=stale-baseline::{key} no longer "
                      "matches anything — remove it\n")
    else:
        for finding in new:
            out.write(finding.render() + "\n")
        for key in stale:
            out.write(
                f"stale baseline entry: {key} (no longer matches anything "
                "— remove it)\n"
            )
        out.write(
            f"{len(modules)} modules, {len(rules)} rules: "
            f"{len(new)} new finding(s), {len(suppressed)} baselined"
            + (f", {len(stale)} stale baseline entr(y/ies)" if stale else "")
            + "\n"
        )
    return 1 if failed else 0


def _narrow_to_diff(modules: List[Module], ref: str) -> List[Module]:
    """The ``--diff-base`` scope: modules git reports changed since
    ``ref``, widened to their import closure in both directions (a
    change to ``transport.py`` re-checks everything importing it)."""
    if not modules:
        return []
    anchor = os.path.dirname(modules[0].path)
    try:
        top = subprocess.run(
            ["git", "-C", anchor, "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=False,
        )
        diff = subprocess.run(
            ["git", "-C", anchor, "diff", "--name-only", ref, "--"],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError as exc:
        raise AnalysisError(f"cannot run git for --diff-base: {exc}") from exc
    if top.returncode != 0:
        raise AnalysisError(
            "--diff-base needs the scanned tree inside a git repository: "
            + top.stderr.strip()
        )
    if diff.returncode != 0:
        raise AnalysisError(
            f"git diff against {ref!r} failed: " + diff.stderr.strip()
        )
    root = top.stdout.strip()
    changed_paths: Set[str] = {
        os.path.abspath(os.path.join(root, line.strip()))
        for line in diff.stdout.splitlines()
        if line.strip()
    }
    changed_rels = {
        module.rel for module in modules if module.path in changed_paths
    }
    if not changed_rels:
        return []
    scope = build_graph(modules).module_closure(changed_rels)
    return [module for module in modules if module.rel in scope]
