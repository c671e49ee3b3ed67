"""Tests for :mod:`repro.analysis` (DESIGN.md §7 "Static analysis").

Layout mirrors the rule set: per-rule bad/good fixture trees written to
``tmp_path`` (the loader resolves package-relative paths against the
scan root, so ``<tmp>/core/bad.py`` presents as ``core/bad.py`` exactly
like the real ``src/repro/core/...``), then the baseline round-trip, the
CLI exit-code contract, and the gate test that holds the real tree at
zero unbaselined findings.
"""

import json
import os

import pytest

from repro.analysis import (
    ALL_RULES,
    Baseline,
    CheckpointSyncRule,
    ConfigPlumbingRule,
    DeterminismRule,
    DtypeHygieneRule,
    ErrorTaxonomyRule,
    LockDisciplineRule,
    LockOrderRule,
    ResourceLifecycleRule,
    build_graph,
    collect_modules,
    load_baseline,
    main,
    run_rules,
    save_baseline,
    select_rules,
)
from repro.errors import AnalysisError

SRC_REPRO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src",
    "repro",
)


def _scan(tmp_path, files, rule):
    """Write a fixture tree, scan it, run one rule."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    modules = collect_modules([str(tmp_path)])
    return run_rules(modules, [rule])


# ------------------------------------------------------------------ R1


class TestDeterminismRule:
    def test_flags_entropy_in_scope(self, tmp_path):
        findings = _scan(
            tmp_path,
            {
                "core/bad.py": (
                    "import random\n"
                    "import time\n"
                    "import numpy as np\n"
                    "def f(xs):\n"
                    "    rng = np.random.default_rng()\n"
                    "    random.shuffle(xs)\n"
                    "    return time.time(), rng\n"
                )
            },
            DeterminismRule(),
        )
        subjects = {f.key.rsplit(":", 1)[-1] for f in findings}
        assert subjects == {"np.random.default_rng", "random.shuffle", "time.time"}
        assert all(f.rule == "R1" for f in findings)
        assert all(f.path == "core/bad.py" for f in findings)

    def test_seam_and_annotations_stay_legal(self, tmp_path):
        findings = _scan(
            tmp_path,
            {
                "core/good.py": (
                    "import numpy as np\n"
                    "from repro.utils.random import RandomState, spawn_rngs\n"
                    "def f(rng: np.random.Generator):\n"
                    "    return rng.random(), spawn_rngs(RandomState(0), 2)\n"
                )
            },
            DeterminismRule(),
        )
        assert findings == []

    def test_out_of_scope_dirs_ignored(self, tmp_path):
        findings = _scan(
            tmp_path,
            {
                "utils/jitter.py": (
                    "import random\n"
                    "def backoff():\n"
                    "    return random.random()\n"
                )
            },
            DeterminismRule(),
        )
        assert findings == []


# ------------------------------------------------------------------ R2


_RACY_SERVER = """
import threading

class Server:
    def __init__(self):
        self._lock = threading.Lock()
        self._shutdown = threading.Event()
        self.op_counts = {}
        self.log = []

    def serve(self):
        t = threading.Thread(target=self._serve_connection)
        t.start()

    def _serve_connection(self):
        self.op_counts["x"] = self.op_counts.get("x", 0) + 1
        self._shutdown.set()
"""

_CLEAN_SERVER = """
import threading

class Server:
    def __init__(self):
        self._lock = threading.Lock()
        self.op_counts = {}

    def serve(self):
        t = threading.Thread(target=self._serve_connection)
        t.start()

    def _serve_connection(self):
        with self._lock:
            self.op_counts["x"] = self.op_counts.get("x", 0) + 1
"""

_GUARDED_ELSEWHERE = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.RLock()
        self.queries = []

    def record(self, q):
        with self._lock:
            self.queries.append(q)

    def sneaky(self, q):
        self.queries.append(q)
"""


class TestLockDisciplineRule:
    def test_flags_unlocked_mutation_in_thread_entry(self, tmp_path):
        findings = _scan(tmp_path, {"utils/srv.py": _RACY_SERVER}, LockDisciplineRule())
        assert len(findings) == 1
        assert "op_counts" in findings[0].message
        assert findings[0].key == "R2:utils/srv.py:Server._serve_connection:op_counts"

    def test_locked_mutation_is_clean(self, tmp_path):
        findings = _scan(tmp_path, {"utils/srv.py": _CLEAN_SERVER}, LockDisciplineRule())
        assert findings == []

    def test_unlocked_site_of_guarded_attr_flagged(self, tmp_path):
        findings = _scan(
            tmp_path, {"eng.py": _GUARDED_ELSEWHERE}, LockDisciplineRule()
        )
        assert [f.key for f in findings] == ["R2:eng.py:Engine.sneaky:queries"]

    def test_init_and_sync_primitives_exempt(self, tmp_path):
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._stop = threading.Event()\n"
            "        self.items = []\n"
            "    def handle(self, m):\n"
            "        self._stop.set()\n"
        )
        findings = _scan(tmp_path, {"s.py": source}, LockDisciplineRule())
        assert findings == []


# ------------------------------------------------------------------ R4


class TestErrorTaxonomyRule:
    def test_builtin_raise_flagged(self, tmp_path):
        findings = _scan(
            tmp_path,
            {"m.py": "def f(x):\n    raise ValueError('bad x')\n"},
            ErrorTaxonomyRule(),
        )
        assert [f.key for f in findings] == ["R4:m.py:f:ValueError"]

    def test_repro_errors_and_idioms_pass(self, tmp_path):
        source = (
            "from repro.errors import ValidationError\n"
            "def f(x):\n"
            "    raise ValidationError('bad x')\n"
            "def g(self):\n"
            "    raise NotImplementedError\n"
            "def h():\n"
            "    try:\n"
            "        f(1)\n"
            "    except ValidationError:\n"
            "        raise\n"
        )
        findings = _scan(tmp_path, {"m.py": source}, ErrorTaxonomyRule())
        assert findings == []

    def test_broad_except_needs_reasoned_noqa(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        pass\n"
            "    except Exception:\n"
            "        pass\n"
            "def g():\n"
            "    try:\n"
            "        pass\n"
            "    except Exception:  # noqa: BLE001\n"
            "        pass\n"
            "def h():\n"
            "    try:\n"
            "        pass\n"
            "    except Exception:  # noqa: BLE001 - forwarded to caller\n"
            "        pass\n"
        )
        findings = _scan(tmp_path, {"m.py": source}, ErrorTaxonomyRule())
        assert [f.key for f in findings] == [
            "R4:m.py:f:broad-except:0",
            "R4:m.py:g:broad-except:0",
        ]
        assert "bare" in findings[1].message


# ------------------------------------------------------------------ R5


class TestDtypeHygieneRule:
    def test_missing_dtype_flagged_in_scoped_files(self, tmp_path):
        findings = _scan(
            tmp_path,
            {
                "core/svi.py": (
                    "import numpy as np\n"
                    "def f(n):\n"
                    "    return np.zeros((n, n))\n"
                )
            },
            DtypeHygieneRule(),
        )
        assert [f.key for f in findings] == ["R5:core/svi.py:f:zeros:0"]

    def test_explicit_dtype_and_exempt_constructors_pass(self, tmp_path):
        findings = _scan(
            tmp_path,
            {
                "core/kernels.py": (
                    "import numpy as np\n"
                    "def f(n, x):\n"
                    "    a = np.zeros(n, dtype=np.float64)\n"
                    "    b = np.asarray(x)\n"
                    "    c = np.arange(n)\n"
                    "    d = np.empty_like(b)\n"
                    "    return a, b, c, d\n"
                )
            },
            DtypeHygieneRule(),
        )
        assert findings == []

    def test_unscoped_files_ignored(self, tmp_path):
        findings = _scan(
            tmp_path,
            {
                "core/state.py": (
                    "import numpy as np\n"
                    "def f(n):\n"
                    "    return np.zeros(n)\n"
                )
            },
            DtypeHygieneRule(),
        )
        assert findings == []


# ------------------------------------------------------------------ R6


_STATE_OK = """
class CPAState:
    n_items: int
    phi: object
    batches_seen: int
"""

_CHECKPOINT_OK = """
_ARRAY_FIELDS = ("phi",)

class CheckpointMeta:
    version: int
    n_items: int
    batches_seen: int

def checkpoint_payload(state, *, seeded=False):
    payload = {
        "magic": "MAGIC",
        "version": 1,
        "n_items": state.n_items,
        "batches_seen": state.batches_seen,
    }
    for name in _ARRAY_FIELDS:
        payload[name] = getattr(state, name)
    return payload
"""


class TestCheckpointSyncRule:
    def test_consistent_schemas_are_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            {"core/state.py": _STATE_OK, "core/checkpoint.py": _CHECKPOINT_OK},
            CheckpointSyncRule(),
        )
        assert findings == []

    def test_unserialized_state_field_flagged(self, tmp_path):
        findings = _scan(
            tmp_path,
            {
                "core/state.py": _STATE_OK + "    forgotten: int\n",
                "core/checkpoint.py": _CHECKPOINT_OK,
            },
            CheckpointSyncRule(),
        )
        assert [f.key for f in findings] == ["R6:state-unserialized:forgotten"]

    def test_unknown_array_field_and_orphan_key_flagged(self, tmp_path):
        checkpoint = _CHECKPOINT_OK.replace(
            '_ARRAY_FIELDS = ("phi",)', '_ARRAY_FIELDS = ("phi", "ghost")'
        ).replace(
            '"batches_seen": state.batches_seen,',
            '"batches_seen": state.batches_seen,\n        "orphan": 0,',
        )
        findings = _scan(
            tmp_path,
            {"core/state.py": _STATE_OK, "core/checkpoint.py": checkpoint},
            CheckpointSyncRule(),
        )
        assert {f.key for f in findings} == {
            "R6:array-unknown:ghost",
            "R6:payload-orphan:orphan",
        }

    def test_meta_field_without_payload_key_flagged(self, tmp_path):
        checkpoint = _CHECKPOINT_OK.replace(
            "    batches_seen: int\n",
            "    batches_seen: int\n    dtype: str\n",
        )
        findings = _scan(
            tmp_path,
            {"core/state.py": _STATE_OK, "core/checkpoint.py": checkpoint},
            CheckpointSyncRule(),
        )
        assert [f.key for f in findings] == ["R6:meta-unwritten:dtype"]

    def test_partial_tree_stays_silent(self, tmp_path):
        findings = _scan(
            tmp_path, {"core/state.py": _STATE_OK}, CheckpointSyncRule()
        )
        assert findings == []


# ------------------------------------------------------ R7 (lock order)


_R7_BLOCKING_BAD = """\
import threading
import time


class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = {}

    def put(self, key, value):
        with self._lock:
            self.items[key] = value
            time.sleep(0.1)

    def refresh(self):
        with self._lock:
            self.items["x"] = 1
            self._slow()

    def _slow(self):
        time.sleep(1.0)
"""

_R7_CYCLE_BAD = """\
import threading


class Left:
    def __init__(self, right):
        self._lock = threading.Lock()
        self.right = right
        self.n = 0

    def tick(self):
        with self._lock:
            self.n += 1
            self.right.tock_inner()

    def tick_inner(self):
        with self._lock:
            self.n += 1


class Right:
    def __init__(self, left):
        self._lock = threading.Lock()
        self.left = left
        self.n = 0

    def tock(self):
        with self._lock:
            self.n += 1
            self.left.tick_inner()

    def tock_inner(self):
        with self._lock:
            self.n += 1
"""

_R7_GOOD = """\
import threading
import time


class Shipper:
    def __init__(self):
        # dedicated serialization mutex: guards no state, so blocking
        # under it is its purpose
        self._serial = threading.Lock()
        self._lock = threading.Lock()
        self.count = 0

    def ship(self):
        with self._serial:
            time.sleep(0.1)
        with self._lock:
            self.count += 1
"""


class TestLockOrderRule:
    def test_blocking_under_state_lock_flagged(self, tmp_path):
        findings = _scan(
            tmp_path, {"registry.py": _R7_BLOCKING_BAD}, LockOrderRule()
        )
        keys = {f.key for f in findings}
        assert "R7:blocking:registry.py:Registry.put:Registry._lock" in keys
        # the transitive case: refresh blocks through _slow()
        assert (
            "R7:blocking:registry.py:Registry.refresh:Registry._lock" in keys
        )
        transitive = [f for f in findings if "refresh" in f.key]
        assert "_slow" in transitive[0].message  # chain shown to the user

    def test_lock_order_cycle_flagged(self, tmp_path):
        findings = _scan(tmp_path, {"pair.py": _R7_CYCLE_BAD}, LockOrderRule())
        cycles = [f for f in findings if f.key.startswith("R7:cycle:")]
        assert len(cycles) == 1
        assert "Left._lock" in cycles[0].message
        assert "Right._lock" in cycles[0].message

    def test_serialization_mutex_and_unlocked_blocking_pass(self, tmp_path):
        assert _scan(tmp_path, {"shipper.py": _R7_GOOD}, LockOrderRule()) == []


# --------------------------------------------------- R8 (config plumbing)


_R8_BAD = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class DemoConfig:
    alpha: float = 1.0
    dead_knob: int = 3

    def __post_init__(self):
        if self.dead_knob < 0:
            raise ValueError("bad")


def consume(config):
    return config.alpha * 2
"""

_R8_FLAGS_BAD = """\
import argparse


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--used", type=int, default=0)
    parser.add_argument("--dropped", type=int, default=0)
    args = parser.parse_args(argv)
    return args.used
"""

_R8_FLAGS_DYNAMIC = """\
import argparse


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--anything", type=int, default=0)
    args = parser.parse_args(argv)
    return dict(vars(args))
"""


class TestConfigPlumbingRule:
    def test_dead_field_flagged_validation_read_does_not_count(self, tmp_path):
        findings = _scan(tmp_path, {"config.py": _R8_BAD}, ConfigPlumbingRule())
        assert [f.key for f in findings] == [
            "R8:dead-field:DemoConfig.dead_knob"
        ]

    def test_dropped_cli_flag_flagged(self, tmp_path):
        findings = _scan(
            tmp_path, {"tool.py": _R8_FLAGS_BAD}, ConfigPlumbingRule()
        )
        assert [f.key for f in findings] == ["R8:dropped-flag:tool.py:dropped"]

    def test_dynamic_namespace_reads_skip_the_module(self, tmp_path):
        findings = _scan(
            tmp_path, {"tool.py": _R8_FLAGS_DYNAMIC}, ConfigPlumbingRule()
        )
        assert findings == []


# ------------------------------------------------- R9 (resource lifecycle)


_R9_BAD = """\
import socket
import subprocess


def probe(host, port):
    sock = socket.create_connection((host, port))
    sock.sendall(b"ping")
    data = sock.recv(4)
    sock.close()  # straight-line close: skipped by any earlier raise
    return data


def fire_and_forget(command):
    subprocess.Popen(command)
"""

_R9_GOOD = """\
import socket
import threading


def probe(host, port):
    sock = socket.create_connection((host, port))
    try:
        sock.sendall(b"ping")
        return sock.recv(4)
    finally:
        sock.close()


def serve():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        return listener.getsockname()


def spawn(target):
    worker = threading.Thread(target=target, daemon=True)
    worker.start()


def make():
    return socket.create_connection(("h", 1))  # ownership returned


class Owner:
    def open(self):
        self._sock = socket.create_connection(("h", 1))  # stored on self
"""


class TestResourceLifecycleRule:
    def test_leak_and_dropped_handle_flagged(self, tmp_path):
        findings = _scan(
            tmp_path, {"net.py": _R9_BAD}, ResourceLifecycleRule()
        )
        keys = {f.key for f in findings}
        assert "R9:leak:net.py:probe:sock" in keys
        assert "R9:dropped:net.py:fire_and_forget:subprocess.Popen" in keys
        assert len(findings) == 2

    def test_finally_with_escape_and_daemon_thread_pass(self, tmp_path):
        assert (
            _scan(tmp_path, {"net.py": _R9_GOOD}, ResourceLifecycleRule())
            == []
        )


# --------------------------------------------------------- project graph


class TestProjectGraph:
    def test_call_resolution_and_lock_contexts(self, tmp_path):
        for rel, source in {
            "a.py": (
                "from b import helper\n"
                "import threading\n\n\n"
                "class Engine:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.n = 0\n\n"
                "    def step(self):\n"
                "        with self._lock:\n"
                "            self.n += 1\n"
                "        return helper()\n\n"
                "    def drive(self):\n"
                "        return self.step()\n"
            ),
            "b.py": "def helper():\n    return 1\n",
        }.items():
            (tmp_path / rel).write_text(source)
        graph = build_graph(collect_modules([str(tmp_path)]))
        assert graph.calls["a.py::Engine.drive"] == {"a.py::Engine.step"}
        assert "b.py::helper" in graph.calls["a.py::Engine.step"]
        assert "a.py::Engine.step" in graph.lock_sites
        assert graph.state_locks == {"a.py::Engine._lock"}
        # transitive closure walks the call graph
        assert "b.py::helper" in graph.callees_of("a.py::Engine.drive")
        # import closure in both directions (the --diff-base scope)
        assert graph.module_closure(["b.py"]) == {"a.py", "b.py"}

    def test_ambiguous_method_names_do_not_resolve(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "class Fleet:\n"
            "    def start(self):\n"
            "        return 1\n\n\n"
            "class User:\n"
            "    def go(self, thread):\n"
            "        thread.start()\n"
        )
        graph = build_graph(collect_modules([str(tmp_path)]))
        # thread.start() must NOT resolve to Fleet.start
        assert "m.py::User.go" not in graph.calls


# ------------------------------------------------------------- baseline


class TestBaseline:
    def test_round_trip_and_split(self, tmp_path):
        bad = tmp_path / "tree" / "core" / "svi.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\ndef f(n):\n    return np.zeros(n)\n")
        modules = collect_modules([str(tmp_path / "tree")])
        findings = run_rules(modules, [DtypeHygieneRule()])
        assert len(findings) == 1

        path = str(tmp_path / "baseline.json")
        save_baseline(path, findings, Baseline())
        loaded = load_baseline(path)
        new, suppressed, stale = loaded.split(findings)
        assert new == [] and len(suppressed) == 1 and stale == []

        # the fixed violation leaves the entry stale
        new, suppressed, stale = loaded.split([])
        assert new == [] and suppressed == [] and stale == [findings[0].key]

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")).entries == {}

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            '{"version": 99, "entries": []}',
            '{"version": 1, "entries": [{"key": "k"}]}',
            '{"version": 1, "entries": [{"key": "k", "justification": "  "}]}',
            '{"version": 1, "entries": ['
            '{"key": "k", "justification": "a"},'
            '{"key": "k", "justification": "b"}]}',
        ],
    )
    def test_malformed_baselines_are_loud(self, tmp_path, payload):
        path = tmp_path / "baseline.json"
        path.write_text(payload)
        with pytest.raises(AnalysisError):
            load_baseline(str(path))

    def test_rename_leaves_entry_stale_and_finding_new(self, tmp_path):
        """Suppression keys embed the package-relative path, so renaming
        a file retires the old entry (reported stale) and surfaces the
        finding fresh at the new path — no silent carry-over."""
        tree = tmp_path / "tree" / "core"
        tree.mkdir(parents=True)
        source = "import numpy as np\ndef f(n):\n    return np.zeros(n)\n"
        (tree / "svi.py").write_text(source)
        findings = run_rules(
            collect_modules([str(tmp_path / "tree")]), [DtypeHygieneRule()]
        )
        baseline = Baseline(
            entries={findings[0].key: "pinned before the rename"}
        )
        (tree / "svi.py").rename(tree / "kernels.py")
        renamed = run_rules(
            collect_modules([str(tmp_path / "tree")]), [DtypeHygieneRule()]
        )
        new, suppressed, stale = baseline.split(renamed)
        assert stale == [findings[0].key]
        assert suppressed == []
        assert [f.key for f in new] == [renamed[0].key]
        assert "core/kernels.py" in renamed[0].key

    def test_retired_rule_id_entry_reported_stale(self, tmp_path):
        """An entry for a removed rule must surface as stale (and fail
        ``--check``), not be kept silently forever."""
        baseline = tmp_path / "b.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "key": "R42:some-site",
                            "justification": "rule retired in a past PR",
                        }
                    ],
                }
            )
        )
        (tmp_path / "ok.py").write_text("x = 1\n")
        args = [str(tmp_path), "--baseline", str(baseline)]
        sink = _Sink()
        assert main(args + ["--check"], stream=sink) == 1
        assert "R42:some-site" in sink.text

    def test_existing_justifications_survive_rewrite(self, tmp_path):
        previous = Baseline(entries={"k1": "looked at it; fine"})
        finding = run_rules(
            collect_modules([_write_bad_tree(tmp_path)]), [DtypeHygieneRule()]
        )[0]
        path = str(tmp_path / "baseline.json")
        rewritten = save_baseline(
            path, [finding], Baseline(entries={finding.key: "kept reason"})
        )
        assert rewritten.entries[finding.key] == "kept reason"
        assert "k1" not in rewritten.entries
        assert previous.entries  # untouched input


def _write_bad_tree(tmp_path):
    bad = tmp_path / "tree" / "core" / "svi.py"
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text("import numpy as np\ndef f(n):\n    return np.zeros(n)\n")
    return str(tmp_path / "tree")


# ------------------------------------------------------------------ CLI


class _Sink:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    @property
    def text(self):
        return "".join(self.chunks)


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        sink = _Sink()
        code = main(
            [str(tmp_path), "--baseline", str(tmp_path / "b.json")], stream=sink
        )
        assert code == 0
        assert "0 new finding(s)" in sink.text

    def test_findings_exit_one_and_render(self, tmp_path):
        tree = _write_bad_tree(tmp_path)
        sink = _Sink()
        code = main([tree, "--baseline", str(tmp_path / "b.json")], stream=sink)
        assert code == 1
        assert "core/svi.py:3: R5:" in sink.text

    def test_write_baseline_then_clean(self, tmp_path):
        tree = _write_bad_tree(tmp_path)
        baseline = str(tmp_path / "b.json")
        # the rewritten baseline covers the findings, so the run is clean
        assert main([tree, "--baseline", baseline, "--write-baseline"]) == 0
        assert "TODO: justify" in (tmp_path / "b.json").read_text()

        # re-run: suppressed by the baseline just written
        sink = _Sink()
        assert main([tree, "--baseline", baseline], stream=sink) == 0
        assert "1 baselined" in sink.text

    def test_check_fails_on_stale_entries(self, tmp_path):
        baseline = tmp_path / "b.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [{"key": "R5:gone", "justification": "was real"}],
                }
            )
        )
        (tmp_path / "ok.py").write_text("x = 1\n")
        args = [str(tmp_path), "--baseline", str(baseline)]
        assert main(args) == 0  # advisory without --check
        sink = _Sink()
        assert main(args + ["--check"], stream=sink) == 1
        assert "stale" in sink.text

    def test_infrastructure_errors_exit_two(self, tmp_path):
        assert main([str(tmp_path / "missing")]) == 2
        bad = tmp_path / "syntax.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad)]) == 2

    def test_json_format(self, tmp_path):
        tree = _write_bad_tree(tmp_path)
        sink = _Sink()
        code = main(
            [tree, "--baseline", str(tmp_path / "b.json"), "--format", "json"],
            stream=sink,
        )
        report = json.loads(sink.text)
        assert code == 1 and report["ok"] is False
        assert report["findings"][0]["rule"] == "R5"

    def test_jobs_matches_serial_output_exactly(self, tmp_path):
        tree = _write_bad_tree(tmp_path)
        baseline = str(tmp_path / "b.json")
        serial, threaded = _Sink(), _Sink()
        assert main([tree, "--baseline", baseline], stream=serial) == 1
        assert (
            main([tree, "--baseline", baseline, "--jobs", "4"], stream=threaded)
            == 1
        )
        assert serial.text == threaded.text  # deterministic order preserved
        assert main([tree, "--baseline", baseline, "--jobs", "0"]) == 2

    def test_github_format_emits_annotations(self, tmp_path):
        tree = _write_bad_tree(tmp_path)
        sink = _Sink()
        code = main(
            [tree, "--baseline", str(tmp_path / "b.json"), "--format", "github"],
            stream=sink,
        )
        assert code == 1
        line = sink.text.splitlines()[0]
        assert line.startswith("::error file=")
        assert "title=R5::" in line and "line=3" in line

    def test_json_format_reports_per_rule_timings(self, tmp_path):
        tree = _write_bad_tree(tmp_path)
        sink = _Sink()
        main(
            [tree, "--baseline", str(tmp_path / "b.json"), "--format", "json"],
            stream=sink,
        )
        report = json.loads(sink.text)
        assert set(report["timings"]) == {r.rule_id for r in ALL_RULES}
        assert all(t >= 0 for t in report["timings"].values())

    def test_diff_base_narrows_to_changed_closure(self, tmp_path):
        import subprocess

        tree = tmp_path / "tree"
        core = tree / "core"
        core.mkdir(parents=True)
        (core / "svi.py").write_text("import numpy as np\nX = 1\n")
        (tree / "other.py").write_text("y = 2\n")

        def git(*argv):
            subprocess.run(
                ["git", "-C", str(tree), *argv],
                check=True,
                capture_output=True,
                env={
                    **os.environ,
                    "GIT_AUTHOR_NAME": "t",
                    "GIT_AUTHOR_EMAIL": "t@t",
                    "GIT_COMMITTER_NAME": "t",
                    "GIT_COMMITTER_EMAIL": "t@t",
                },
            )

        git("init", "-q")
        git("add", "-A")
        git("commit", "-qm", "seed")
        baseline = str(tmp_path / "b.json")
        # nothing changed: early exit, scan skipped
        sink = _Sink()
        assert (
            main(
                [str(tree), "--baseline", baseline, "--diff-base", "HEAD"],
                stream=sink,
            )
            == 0
        )
        assert "no scanned modules changed" in sink.text
        # introduce an R5 violation: only the changed module is scanned
        (core / "svi.py").write_text(
            "import numpy as np\ndef f(n):\n    return np.zeros(n)\n"
        )
        sink = _Sink()
        code = main(
            [str(tree), "--baseline", baseline, "--diff-base", "HEAD"],
            stream=sink,
        )
        assert code == 1
        assert "core/svi.py:3: R5:" in sink.text
        assert "1 modules" in sink.text  # other.py is out of the closure
        # a bad ref is an infrastructure error, not a silent pass
        assert (
            main([str(tree), "--baseline", baseline, "--diff-base", "nope"])
            == 2
        )

    def test_top_level_repro_cli_forwards_analysis(self, tmp_path):
        from repro.cli import main as repro_main

        tree = _write_bad_tree(tmp_path)
        baseline = str(tmp_path / "b.json")
        assert repro_main(["analysis", "--list-rules"]) == 0
        assert repro_main(["analysis", tree, "--baseline", baseline]) == 1

    def test_rules_selection_and_listing(self, tmp_path):
        tree = _write_bad_tree(tmp_path)
        baseline = str(tmp_path / "b.json")
        assert main([tree, "--baseline", baseline, "--rules", "R1"]) == 0
        assert main([tree, "--baseline", baseline, "--rules", "R5"]) == 1
        assert main([tree, "--baseline", baseline, "--rules", "R99"]) == 2
        with pytest.raises(AnalysisError):
            select_rules("R99")
        sink = _Sink()
        assert main(["--list-rules"], stream=sink) == 0
        for rule in ALL_RULES:
            assert rule.rule_id in sink.text


# ----------------------------------------------------------------- gate


class TestFullTreeGate:
    def test_src_repro_is_clean_or_baselined(self):
        """The acceptance gate: the shipped tree has no unbaselined
        findings and no stale suppressions (what CI runs)."""
        sink = _Sink()
        assert main([SRC_REPRO, "--check"], stream=sink) == 0, sink.text

    def test_rule_registry_is_complete(self):
        assert [rule.rule_id for rule in ALL_RULES] == [
            "R1",
            "R2",
            "R4",
            "R5",
            "R6",
            "R7",
            "R8",
            "R9",
        ]
