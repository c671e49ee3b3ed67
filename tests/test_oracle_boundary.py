"""The frozen oracle stays out of production code.

:mod:`repro.core.reference` subclasses the engines and overrides their
methods so the parity suites can hold the fast paths to the seed
implementation; its docstring says production code must not import it.
This test enforces that by parsing every other module under
``src/repro`` and rejecting any import of the oracle — absolute,
relative, or by module-name string (``importlib.import_module``).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ORACLE = "repro.core.reference"
ORACLE_FILE = SRC / "repro" / "core" / "reference.py"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _oracle_imports(source: str, module: str, is_package: bool = False):
    """Line numbers of every statement in ``source`` that imports the oracle."""
    package = module if is_package else module.rpartition(".")[0]
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parent = parts[: len(parts) - node.level + 1]
                base = ".".join(parent + ([node.module] if node.module else []))
            names.append((node.lineno, base))
            names += [(node.lineno, f"{base}.{alias.name}") for alias in node.names]
        elif isinstance(node, ast.Constant) and node.value == ORACLE:
            names.append((node.lineno, ORACLE))
    return sorted(
        {line for line, name in names if name == ORACLE or name.startswith(ORACLE + ".")}
    )


def test_no_production_module_imports_the_oracle():
    modules = sorted(p for p in (SRC / "repro").rglob("*.py") if p != ORACLE_FILE)
    assert len(modules) > 50  # really walked the package
    offenders = []
    for path in modules:
        source = path.read_text(encoding="utf-8")
        lines = _oracle_imports(
            source, _module_name(path), is_package=path.name == "__init__.py"
        )
        offenders += [f"{path.relative_to(SRC)}:{line}" for line in lines]
    assert offenders == [], f"production code imports {ORACLE}: {offenders}"


@pytest.mark.parametrize(
    "source, module",
    [
        ("import repro.core.reference\n", "repro.serve"),
        ("import repro.core.reference as ref\n", "repro.serve"),
        ("from repro.core.reference import CHUNK\n", "repro.serve"),
        ("from repro.core import reference\n", "repro.serve"),
        ("from .reference import CHUNK\n", "repro.core.svi"),
        ("from . import reference\n", "repro.core.svi"),
        ("from ..core.reference import CHUNK\n", "repro.utils.parallel"),
        ("def f():\n    from repro.core.reference import CHUNK\n", "repro.serve"),
        ("importlib.import_module('repro.core.reference')\n", "repro.serve"),
    ],
)
def test_detector_catches_every_import_form(source, module):
    assert _oracle_imports(source, module) != []


@pytest.mark.parametrize(
    "source, module",
    [
        ("from repro.core import kernels, svi\n", "repro.serve"),
        ("from .kernels import SweepKernel\n", "repro.core.svi"),
        ("import repro.core.references_db\n", "repro.serve"),
        ('"""See :mod:`repro.core.reference`."""\n', "repro.core.svi"),
    ],
)
def test_detector_passes_unrelated_imports(source, module):
    assert _oracle_imports(source, module) == []
