"""Repo-invariant static analysis for the :mod:`repro` package.

Eight AST-level rules encode the invariants the test suite cannot
exhaustively check (DESIGN.md §7).  Per-module (first generation):
replay determinism (R1), lock discipline in the threaded daemon code
(R2), the ``repro.errors`` taxonomy (R4), explicit dtypes in the numeric
core (R5), and checkpoint-schema sync (R6).  Interprocedural (second
generation, fed by the shared :mod:`project graph
<repro.analysis.graph>`): lock-order cycles and blocking-under-lock
(R7), config-plumbing completeness (R8), and resource lifecycle (R9).
R3 and R10 re-derived the daemons' ``if op ==`` chains to check the
clients against them; the daemons now dispatch through one op table
(:func:`repro.utils.transport.dispatch`), and a conformance test over
real traffic replaced both rules.  Run with
``python -m repro.analysis`` (or ``python -m repro analysis``);
suppressions live in the checked-in ``BASELINE.json`` next to this
package.
"""

from repro.analysis.base import (
    Finding,
    Module,
    Rule,
    collect_modules,
    load_module,
    run_rules,
)
from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    Baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.checkpoint_sync import CheckpointSyncRule
from repro.analysis.cli import ALL_RULES, main, select_rules
from repro.analysis.config_plumbing import ConfigPlumbingRule
from repro.analysis.determinism import DeterminismRule
from repro.analysis.dtypes import DtypeHygieneRule
from repro.analysis.graph import GraphRule, ProjectGraph, build_graph
from repro.analysis.lifecycle import ResourceLifecycleRule
from repro.analysis.lockorder import LockOrderRule
from repro.analysis.locks import LockDisciplineRule
from repro.analysis.taxonomy import ErrorTaxonomyRule

__all__ = [
    "ALL_RULES",
    "Baseline",
    "CheckpointSyncRule",
    "ConfigPlumbingRule",
    "DEFAULT_BASELINE",
    "DeterminismRule",
    "DtypeHygieneRule",
    "ErrorTaxonomyRule",
    "Finding",
    "GraphRule",
    "LockDisciplineRule",
    "LockOrderRule",
    "Module",
    "ProjectGraph",
    "ResourceLifecycleRule",
    "Rule",
    "build_graph",
    "collect_modules",
    "load_baseline",
    "load_module",
    "main",
    "run_rules",
    "save_baseline",
    "select_rules",
]
