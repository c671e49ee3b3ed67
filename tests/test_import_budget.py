"""Import budget: each entry point loads only the stack it runs.

Every lane (``python -m repro.worker``), serving daemon and replica pays
its imports at start-up, so the package roots import nothing heavy and
:mod:`repro` resolves its public names on first access (DESIGN.md §6
"Cold start").  Each entry point is imported in a fresh interpreter with
networkx blocked: it is a dependency of the simulation substrate only,
so a daemon that reaches it fails to start here.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

#: loaded by no daemon: the experiment and evaluation stack, and analysis.
NEVER_IN_A_DAEMON = {
    "networkx",
    "repro.simulation",
    "repro.baselines",
    "repro.evaluation",
    "repro.experiments",
    "repro.analysis",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def _loaded_modules(entry_point: str) -> set:
    """Modules a fresh interpreter holds after ``import entry_point``."""
    script = (
        "import json, sys\n"
        "sys.modules['networkx'] = None\n"
        f"import {entry_point}\n"
        "print(json.dumps([name for name, module in sys.modules.items() "
        "if module is not None]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


class TestEntryPoints:
    def test_a_lane_loads_its_kernels_and_nothing_else(self):
        loaded = _loaded_modules("repro.worker")
        # warmed before the port is announced, so a fit imports nothing
        assert {"repro.core.sharding", "scipy.sparse"} <= loaded
        assert not loaded & (
            NEVER_IN_A_DAEMON | {"scipy.special", "repro.data"}
        )

    @pytest.mark.network
    def test_a_lane_imports_nothing_during_a_fit(self, tiny_dataset, tmp_path):
        """Under ``-X importtime`` a lane prints no import line after its
        port file appears, across a sharded fit that exercises every lane
        task of a sweep."""
        from repro.core.config import CPAConfig
        from repro.core.inference import VariationalInference
        from repro.utils.parallel import RemoteExecutor

        port_file, log = tmp_path / "lane.port", tmp_path / "lane.log"
        with open(log, "wb") as stderr:
            lane = subprocess.Popen(
                [sys.executable, "-X", "importtime", "-m", "repro.worker",
                 "--port-file", str(port_file)],
                env=_env(),
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        try:
            deadline = time.monotonic() + 60.0
            while not (port_file.exists() and port_file.read_text().strip()):
                assert lane.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            at_start = log.read_text().count("import time:")
            executor = RemoteExecutor([port_file.read_text().strip()])
            config = CPAConfig(seed=4, backend="sharded", n_shards=2)
            engine = VariationalInference(config, tiny_dataset.answers, executor=executor)
            for _ in range(2):
                engine.sweep()
            executor.close()
        finally:
            lane.terminate()
            lane.wait(timeout=30)
        lines = log.read_text().splitlines()
        assert sum("import time:" in line for line in lines) > 100  # traced
        assert [line for line in lines if "import time:" in line][at_start:] == []

    @pytest.mark.parametrize("entry_point", ["repro.serve", "repro.fleet"])
    def test_a_serving_daemon_loads_no_experiment_stack(self, entry_point):
        loaded = _loaded_modules(entry_point)
        assert {"repro.serve", "repro.core.svi"} <= loaded
        assert not loaded & NEVER_IN_A_DAEMON


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert set(repro.__all__) <= set(dir(repro))

    def test_unknown_names_raise_attribute_error(self):
        # what hasattr() and `from repro import <submodule>` rely on
        assert not hasattr(repro, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name

    def test_every_example_import_resolves(self):
        examples = sorted((ROOT / "examples").glob("*.py"))
        assert examples
        for path in examples:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if not (node.module or "").startswith("repro"):
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):  # else a submodule
                        importlib.import_module(f"{node.module}.{alias.name}")
