"""Layer spans of a traced benchmark run, recorded from outside the program.

:func:`install` wraps the public callables listed in :data:`LAYERS` where
their callers look them up: methods on their class, module functions in the
defining module and in every ``repro`` module that imported them by name.
Each call records a span -- its name, start, end and parent span -- in
memory; a few callables are only counted.  When the process exits, it
writes its spans, counts and byte tallies to ``trace-<pid>.json`` in the
trace directory, where the benchmark sums them over every process of the
run.

Daemons started with ``python -m repro.<module>`` run their module as
``__main__``, a second copy that would escape the wrappers; the entry loader
runs the imported (wrapped) module's ``main()`` instead.  SIGTERM is turned
into ``KeyboardInterrupt`` so that a daemon stopped by its supervisor (the
fleet stops its replica that way) leaves through its graceful path and
flushes its spans.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import itertools
import json
import os
import signal
import sys
import threading
import time

SPAN = "span"
COUNT = "count"

_KERNEL_STEPS = ("begin_sweep", "add_worker_scores", "add_item_scores", "cell_statistics")

#: module -> (qualified callable, kind).  A span is named after the module
#: path under ``repro`` and the callable, e.g. ``core.kernels.SweepKernel.data_elbo``.
#: ``RemoteExecutor.__init__`` is counted only so that each executor is kept
#: for its byte tallies at exit.
LAYERS = {
    "repro.data.answers": [
        ("AnswerMatrix.add", SPAN),
        ("AnswerMatrix.to_arrays", SPAN),
        ("AnswerMatrix.get", COUNT),
    ],
    "repro.core.kernels": [
        (f"SweepKernel.{step}", SPAN) for step in _KERNEL_STEPS + ("data_elbo",)
    ],
    "repro.core.inference": [
        ("VariationalInference.__init__", SPAN),
        ("VariationalInference.sweep", SPAN),
        ("VariationalInference.elbo", SPAN),
    ],
    "repro.core.sharding": [(f"ShardedSweepKernel.{step}", SPAN) for step in _KERNEL_STEPS]
    + [("build_sweep_kernel", SPAN)],
    "repro.utils.parallel": [
        ("RemoteExecutor.__init__", COUNT),
        ("RemoteExecutor.map_on", SPAN),
        ("RemoteExecutor.broadcast", SPAN),
    ],
    "repro.utils.transport": [("dumps", SPAN), ("request", SPAN)],
    "repro.core.svi": [("StochasticInference.process_batch", SPAN)],
    "repro.core.state": [("CPAState.sync_phi_from_mu", SPAN)],
    "repro.core.consensus": [("estimate_consensus", SPAN), ("community_label_rates", SPAN)],
    "repro.core.prediction": [
        (name, SPAN)
        for name in (
            "item_cluster_log_weights",
            "item_evidence",
            "greedy_map_labels",
            "predict_items",
            "label_probabilities",
        )
    ],
    "repro.serve": [
        (f"ConsensusEngine.{method}", SPAN)
        for method in ("step", "predict", "label_probabilities", "snapshot_payload", "restore")
    ]
    + [("ConsensusServer.handle", SPAN), ("ship_checkpoint", SPAN)],
    "repro.fleet": [("FleetManager.refresh_replicas", SPAN)],
    "repro.core.model": [("CPAModel.fit", SPAN), ("CPAModel.predict", SPAN)],
}

#: modules the benchmark starts with ``python -m``.
ENTRY_MODULES = ("repro.serve", "repro.fleet", "repro.worker")

_spans: list = []  # (name, start, end, span id, parent span id)
_counts: dict = {}
_tallies: dict = {}
_executors: list = []  # (RemoteExecutor, lanes it started with)
_lock = threading.Lock()
_ids = itertools.count()
_local = threading.local()
#: id(original callable) -> (original, wrapper), to rebind names imported by value.
_replacements: dict = {}


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _tally(key: str, amount: float) -> None:
    with _lock:
        _tallies[key] = _tallies.get(key, 0) + amount


def _after_dumps(args, result) -> None:
    _tally("utils.transport.dumps.bytes", len(result))


def _after_build_kernel(args, result) -> None:
    with _lock:
        _tallies["core.sharding.n_shards"] = max(
            _tallies.get("core.sharding.n_shards", 0), getattr(result, "n_shards", 0)
        )


def _after_ship(args, result) -> None:
    _tally("serve.ship_checkpoint.shipped_bytes", result.shipped_bytes)
    _tally("serve.ship_checkpoint.total_bytes", result.total_bytes)


def _after_executor_init(args, result) -> None:
    executor = args[0]
    with _lock:
        _executors.append((executor, len(executor.live_workers())))


_AFTER = {
    "utils.transport.dumps": _after_dumps,
    "core.sharding.build_sweep_kernel": _after_build_kernel,
    "serve.ship_checkpoint": _after_ship,
    "utils.parallel.RemoteExecutor.__init__": _after_executor_init,
}


def _span_wrapper(name, func):
    after = _AFTER.get(name)

    @functools.wraps(func)
    def traced(*args, **kwargs):
        stack = _stack()
        span_id = next(_ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            _spans.append((name, start, end, span_id, parent))
        if after is not None:
            after(args, result)
        return result

    return traced


def _count_wrapper(name, func):
    after = _AFTER.get(name)

    @functools.wraps(func)
    def counted(*args, **kwargs):
        with _lock:
            _counts[name] = _counts.get(name, 0) + 1
        result = func(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return counted


def _patch_module(module) -> None:
    """Wrap the module's own layer callables, then rebind every name it
    imported by value from a module patched earlier."""
    layer = module.__name__[len("repro.") :]
    for qualname, kind in LAYERS.get(module.__name__, ()):
        *path, attr = qualname.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        make = _span_wrapper if kind == SPAN else _count_wrapper
        wrapper = make(f"{layer}.{qualname}", original)
        setattr(owner, attr, wrapper)
        _replacements[id(original)] = (original, wrapper)
    for key, value in list(vars(module).items()):
        entry = _replacements.get(id(value))
        if entry is not None and entry[0] is value:
            setattr(module, key, entry[1])


class _Loader(importlib.abc.Loader):
    """Delegating loader: patch each ``repro`` module right after it runs."""

    def __init__(self, loader) -> None:
        self._loader = loader

    def __getattr__(self, name):
        return getattr(self._loader, name)

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        self._loader.exec_module(module)
        _patch_module(module)

    def get_code(self, fullname):
        # Only runpy asks a loader for code directly (``python -m``); run the
        # imported, patched module's main() instead of a fresh __main__ copy.
        if fullname in ENTRY_MODULES:
            source = f"import importlib, sys\nsys.exit(importlib.import_module({fullname!r}).main())\n"
            return compile(source, f"<traced {fullname}>", "exec")
        return self._loader.get_code(fullname)


class _Finder(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path=None, target=None):
        if fullname.partition(".")[0] != "repro":
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                if spec.loader is not None:
                    spec.loader = _Loader(spec.loader)
                return spec
        return None


def _flush(directory: str) -> None:
    with _lock:
        tallies = dict(_tallies)
        counts = dict(_counts)
        executors = list(_executors)
    for executor, lanes in executors:
        for key, value in (
            ("sent_bytes", executor.sent_bytes),
            ("received_bytes", executor.received_bytes),
            ("broadcast_bytes", executor.broadcast_sent_bytes),
            ("lanes_lost", lanes - len(executor.live_workers())),
        ):
            key = f"utils.parallel.RemoteExecutor.{key}"
            tallies[key] = tallies.get(key, 0) + value
    spans = list(_spans)
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    record = {
        "pid": os.getpid(),
        "argv": sys.argv,
        "names": names,
        "spans": [[index[name], start, end, sid, parent] for name, start, end, sid, parent in spans],
        "counts": counts,
        "tallies": tallies,
    }
    path = os.path.join(directory, f"trace-{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(path + ".tmp", path)


def _terminate(signum, frame):
    raise KeyboardInterrupt


def install(directory: str) -> None:
    """Trace this process; its record lands in ``directory`` at exit."""
    sys.meta_path.insert(0, _Finder())
    atexit.register(_flush, directory)
    signal.signal(signal.SIGTERM, _terminate)
