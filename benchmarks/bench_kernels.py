"""Micro-benchmarks of the fused kernel layer vs the frozen seed path.

Measures, at several answer volumes, the wall-clock cost of

* one batch-VI coordinate-ascent sweep (``VariationalInference.sweep``)
  and one ELBO evaluation, fused kernels vs the seed implementation kept
  in :mod:`repro.core.reference`;
* one SVI batch step (``StochasticInference.process_batch``), same
  comparison;
* the same sweep/ELBO/batch measurements with the **sharded** backend
  (``CPAConfig.backend = "sharded"``, ``SHARDED_K`` shards, serial
  executor, lane-resident transport — the default since the resident
  refactor) so the shard plan/merge overhead is a tracked configuration
  of the cross-PR regression gate (``benchmarks/check_regression.py``);
* the **transport cost** of the sharded path on out-of-process lanes
  (:func:`measure_sweep_transport`): pickled bytes per sweep of the
  lane-resident transport (shard kernels broadcast once per plan,
  per-sweep tasks carry only posteriors), plus the one-off broadcast
  size.  Byte counts are deterministic.  The
  same function also measures the **remote** path (DESIGN.md §6 "Remote
  lanes"): two real loopback worker daemons behind a
  :class:`~repro.utils.parallel.RemoteExecutor`, recording the exact
  frame bytes one sweep puts on the wire (requests out, results back)
  and the one-off broadcast — the multi-node cost model next to the
  in-process one it extends.  The same function additionally records the
  **content-addressed rebroadcast** cost (DESIGN.md §6 "Elastic fleet"):
  after a chunked broadcast, daemons that dropped their payloads but
  kept their chunk caches re-arm for the price of a digest probe plus an
  assemble request — ``remote_rebroadcast_pickled_bytes`` sits orders of
  magnitude below the full chunked ship it replaces.

The synthetic workload mirrors the paper's partial-agreement structure:
label sets are drawn from a bounded pattern pool with a Zipf-like
popularity profile, so the number of distinct patterns ``P`` is far below
the number of answers ``N`` — the regime the pattern-deduplicated kernels
exploit.  ``python -m benchmarks.run_perf`` drives these functions and
records the trajectory in ``BENCH_core.json`` at the repo root.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, List, Sequence

import numpy as np

from repro.core.config import CPAConfig
from repro.core.inference import VariationalInference
from repro.core.reference import (
    ReferenceStochasticInference,
    ReferenceVariationalInference,
)
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.data.answers import AnswerMatrix
from repro.utils.parallel import Executor

#: label-space size of the synthetic workload (movie-genre scale).
N_LABELS = 12

#: shard count of the tracked sharded-backend configuration.
SHARDED_K = 4

#: wide-sparse scenario (DESIGN.md §6 "Shard-local truncation"): many
#: items, ~2 answers per item, few distinct label patterns — the regime
#: where per-shard truncations bind.
WIDE_SPARSE_ITEMS = 30_000
WIDE_SPARSE_ANSWERS_PER_ITEM = 2
WIDE_SPARSE_K = 8


def build_matrix(
    n_answers: int,
    *,
    n_labels: int = N_LABELS,
    pattern_pool: int = 240,
    answers_per_item: int = 10,
    answers_per_worker: int = 50,
    seed: int = 0,
) -> AnswerMatrix:
    """A synthetic partial-agreement matrix with ``P ≪ N`` set patterns."""
    rng = np.random.default_rng(seed)
    n_items = max(20, n_answers // answers_per_item)
    n_workers = max(10, n_answers // answers_per_worker)

    # Distinct (item, worker) pairs: oversample, dedupe, trim.
    drawn = rng.integers(0, n_items * n_workers, size=int(n_answers * 1.3))
    pairs = np.unique(drawn)[:n_answers]
    rng.shuffle(pairs)
    items = pairs // n_workers
    workers = pairs % n_workers

    # Pattern pool: label sets of size 1-3 with Zipf-like popularity.
    pool: List[tuple] = []
    seen = set()
    while len(pool) < pattern_pool:
        size = int(rng.integers(1, 4))
        labels = tuple(sorted(rng.choice(n_labels, size=size, replace=False)))
        if labels not in seen:
            seen.add(labels)
            pool.append(labels)
    weights = 1.0 / np.arange(1, len(pool) + 1)
    weights /= weights.sum()
    assignment = rng.choice(len(pool), size=pairs.size, p=weights)

    matrix = AnswerMatrix(n_items, n_workers, n_labels)
    for item, worker, pattern in zip(items, workers, assignment):
        matrix.add(int(item), int(worker), pool[pattern])
    return matrix


def build_wide_sparse_matrix(
    n_items: int = WIDE_SPARSE_ITEMS,
    *,
    answers_per_item: int = WIDE_SPARSE_ANSWERS_PER_ITEM,
    n_labels: int = N_LABELS,
    pattern_pool: int = 8,
    seed: int = 0,
) -> AnswerMatrix:
    """A wide-but-sparse matrix: every item answered, but only barely.

    Label sets come from a small pool of 1–2-label patterns, so the
    distinct per-item answer profiles of any item range stay few — the
    shape that makes shard-local truncations (``T_s < T``) bind.
    """
    rng = np.random.default_rng(seed)
    n_workers = max(10, (n_items * answers_per_item) // 40)
    pool: List[tuple] = []
    seen = set()
    while len(pool) < pattern_pool:
        size = int(rng.integers(1, 3))
        labels = tuple(sorted(rng.choice(n_labels, size=size, replace=False)))
        if labels not in seen:
            seen.add(labels)
            pool.append(labels)
    weights = 1.0 / np.arange(1, len(pool) + 1)
    weights /= weights.sum()

    matrix = AnswerMatrix(n_items, n_workers, n_labels)
    for item in range(n_items):
        workers = rng.choice(n_workers, size=answers_per_item, replace=False)
        patterns = rng.choice(len(pool), size=answers_per_item, p=weights)
        for worker, pattern in zip(workers, patterns):
            matrix.add(item, int(worker), pool[pattern])
    return matrix


def _shard_statistics_bytes(kernel, n_clusters: int, n_communities: int) -> int:
    """Bytes of per-shard truncation-sized working state across one sweep.

    Per shard: the Eq. 6 sufficient statistics (``(T_s, M, C)`` counts
    plus ``(T_s, M)`` mass) and the pattern-space likelihood tensor
    (``(P_s, T_s, M)``) — exactly the arrays whose cluster axis
    shard-local truncation shrinks.  Deterministic, so the recorded
    reduction is noise-free.
    """
    itemsize = np.dtype(kernel.dtype).itemsize
    n_labels = kernel.n_labels
    total = 0
    for shard, t_s in zip(kernel.plan.shards, kernel._shard_ts(n_clusters)):
        total += t_s * n_communities * (n_labels + 1) * itemsize
        total += shard.kernel.n_patterns * t_s * n_communities * itemsize
    return total


def bench_wide_sparse(
    *,
    sweeps: int = 2,
    dtype: str = "float64",
    seed: int = 0,
) -> Dict[str, object]:
    """Adaptive vs global truncation on the wide-sparse sharded scenario.

    Records one batch-VI sweep (serial, ``WIDE_SPARSE_K`` shards) under
    shard-local truncation adaptation and under the global truncation,
    plus the per-shard statistics bytes each pays — the memory reduction
    the adaptation exists for.  The acceptance bar (ISSUE 5): bytes down,
    sweep time no worse.
    """
    matrix = build_wide_sparse_matrix(seed=seed)
    config = CPAConfig(
        seed=seed,
        dtype=dtype,
        backend="sharded",
        n_shards=WIDE_SPARSE_K,
        adaptive_truncation="auto",  # the gate engages: wide and sparse
    )
    adaptive = VariationalInference(config, matrix)
    global_t = VariationalInference(
        config.with_overrides(adaptive_truncation="off"), matrix
    )
    t, m = adaptive.state.n_clusters, adaptive.state.n_communities
    shard_ts = adaptive.kernel._shard_ts(t)

    adaptive_sweep = _time_calls(adaptive.sweep, sweeps)
    global_sweep = _time_calls(global_t.sweep, sweeps)
    adaptive_bytes = _shard_statistics_bytes(adaptive.kernel, t, m)
    global_bytes = _shard_statistics_bytes(global_t.kernel, t, m)
    return {
        "n_answers": int(matrix.n_answers),
        "n_items": int(matrix.n_items),
        "n_workers": int(matrix.n_workers),
        "n_labels": int(matrix.n_labels),
        "n_clusters": int(t),
        "n_communities": int(m),
        "dtype": dtype,
        "scenario": "wide_sparse",
        "widesparse_n_shards": int(adaptive.kernel.n_shards),
        "widesparse_shard_truncations": [int(t_s) for t_s in shard_ts],
        "widesparse_adaptive_sweep_s": adaptive_sweep,
        "widesparse_global_sweep_s": global_sweep,
        "widesparse_sweep_ratio": adaptive_sweep / global_sweep,
        "widesparse_adaptive_stats_bytes": int(adaptive_bytes),
        "widesparse_global_stats_bytes": int(global_bytes),
        "widesparse_stats_bytes_ratio": float(adaptive_bytes) / float(global_bytes),
    }


class _ByteCountingExecutor(Executor):
    """Serial-execution executor that pickles every payload the way an
    out-of-process lane would, counting the bytes that would cross the
    socket.

    Results are exact for ``map_tasks``/``map_on`` task payloads and for
    ``broadcast`` payloads (a lane request additionally carries the tiny
    function reference and frame header, which is noise at these scales),
    and the counts are fully deterministic — unlike wall-clock timings.
    """

    kind = "counting"
    degree = 1

    def __init__(self) -> None:
        self.task_bytes = 0
        self.broadcast_bytes = 0
        self._resident: Dict[str, object] = {}

    def _count(self, payload: object) -> int:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def map_tasks(self, func, tasks):
        out = []
        for task in tasks:
            self.task_bytes += self._count(task)
            out.append(func(task))
        return out

    def broadcast(self, key, payload):
        self.broadcast_bytes += self._count(payload)
        self._resident[key] = payload

    def map_on(self, key, func, tasks):
        payload = self._resident[key]
        out = []
        for task in tasks:
            self.task_bytes += self._count(task)
            out.append(func(payload, task))
        return out

    def release(self, key):
        self._resident.pop(key, None)


#: loopback worker daemons behind the measured remote executor.
REMOTE_WORKERS = 2

#: chunk size of the content-addressed rebroadcast measurement — small
#: enough that every measured plan splits into many chunks, so the
#: re-arm saving (ship a manifest, not the blob) is visible at every
#: benchmark volume.
REBROADCAST_CHUNK_BYTES = 1 << 16


def _measure_remote_transport(matrix, config: CPAConfig) -> Dict[str, object]:
    """Exact frame bytes one sweep ships over loopback TCP worker daemons.

    Spawns ``REMOTE_WORKERS`` real in-process daemons
    (:class:`~repro.utils.transport.WorkerServer`) and runs one batch-VI
    sweep through a :class:`~repro.utils.parallel.RemoteExecutor` — the
    same lane-resident transport, now with length-prefixed pickle frames
    on a real socket.  Counters are taken from the channel layer, so the
    numbers include framing overhead and the per-lane broadcast fan-out
    (each daemon receives its own copy of the plan); results are
    bitwise-identical to the serial path (``tests/test_chaos.py``), so
    the byte counts are deterministic.
    """
    from repro.utils.parallel import RemoteExecutor
    from repro.utils.transport import WorkerServer

    servers = [WorkerServer().serve_in_thread() for _ in range(REMOTE_WORKERS)]
    try:
        executor = RemoteExecutor([server.address for server in servers])
        try:
            engine = VariationalInference(config, matrix, executor=executor)
            sent_after_init = executor.sent_bytes
            received_after_init = executor.received_bytes
            engine.sweep()
            return {
                "remote_broadcast_pickled_bytes": int(
                    executor.broadcast_sent_bytes
                ),
                "remote_resident_sweep_pickled_bytes": int(
                    executor.sent_bytes - sent_after_init
                ),
                "remote_sweep_results_pickled_bytes": int(
                    executor.received_bytes - received_after_init
                ),
            }
        finally:
            executor.close()
    finally:
        for server in servers:
            server.close()


def _measure_rebroadcast_transport(matrix, config: CPAConfig) -> Dict[str, object]:
    """Exact frame bytes a payload re-arm costs under chunked broadcast.

    Ships the shard plan through a chunked :class:`RemoteExecutor`
    (``REBROADCAST_CHUNK_BYTES`` chunks), then drops every daemon's
    *payloads* — the chunk caches survive, exactly the state a daemon
    restart or payload-LRU eviction leaves behind — and sweeps again.
    The stale re-arm goes through the content-addressed store: probe the
    digest index, ship only missing chunks (none), assemble.  The
    recorded ratio (re-arm bytes / initial chunked ship) is the saving
    the store exists for (DESIGN.md §6 "Elastic fleet"); byte counts are
    deterministic, so the record is noise-free.
    """
    from repro.utils.parallel import RemoteExecutor
    from repro.utils.transport import WorkerServer

    servers = [WorkerServer().serve_in_thread() for _ in range(REMOTE_WORKERS)]
    try:
        executor = RemoteExecutor(
            [server.address for server in servers],
            chunk_bytes=REBROADCAST_CHUNK_BYTES,
        )
        try:
            engine = VariationalInference(config, matrix, executor=executor)
            engine.sweep()
            full = executor.broadcast_sent_bytes
            for server in servers:
                server.registry.drop_payloads()
            engine.sweep()
            rearm = executor.broadcast_sent_bytes - full
            return {
                "remote_chunked_broadcast_pickled_bytes": int(full),
                "remote_rebroadcast_pickled_bytes": int(rearm),
                "remote_rebroadcast_bytes_ratio": float(rearm) / float(full),
            }
        finally:
            executor.close()
    finally:
        for server in servers:
            server.close()


def measure_sweep_transport(
    n_answers: int, *, dtype: str = "float64", seed: int = 0
) -> Dict[str, object]:
    """Pickled bytes one batch-VI sweep ships to its lanes.

    Uses the Fig-7 runtime configuration (truncations 12/8 — the
    process-lane scalability workload) with the ``SHARDED_K``-shard
    backend.  The shard kernels (answer arrays, pattern tables, segment
    layouts) are broadcast once per plan; a sweep ships only shard
    indices plus updated posterior rows.

    The remote keys measure the same resident sweep over loopback TCP
    against ``REMOTE_WORKERS`` real worker daemons;
    ``remote_transport_bytes_ratio`` (remote frame bytes / local resident
    task bytes) records the wire overhead of going multi-node — the
    request framing plus the per-sweep ``E[ln ψ]``/posterior rows that
    every lane receives.
    """
    matrix = build_matrix(n_answers, seed=seed)
    config = CPAConfig(
        seed=seed,
        dtype=dtype,
        truncation_clusters=12,
        truncation_communities=8,
        backend="sharded",
        n_shards=SHARDED_K,
    )
    counter = _ByteCountingExecutor()
    engine = VariationalInference(config, matrix, executor=counter)
    # __init__ ran the once-per-plan broadcast and the seeding statistics
    # pass; count the steady-state per-sweep traffic from here.
    counter.task_bytes = 0
    engine.sweep()
    record: Dict[str, object] = {
        "sharded_resident_sweep_pickled_bytes": int(counter.task_bytes),
        "sharded_broadcast_pickled_bytes": int(counter.broadcast_bytes),
    }
    record.update(_measure_remote_transport(matrix, config))
    record["remote_transport_bytes_ratio"] = float(
        record["remote_resident_sweep_pickled_bytes"]
    ) / float(record["sharded_resident_sweep_pickled_bytes"])
    record.update(_measure_rebroadcast_transport(matrix, config))
    return record


def _time_calls(func, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``func()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bench_batch_sweep(
    n_answers: int,
    *,
    sweeps: int = 2,
    dtype: str = "float64",
    seed: int = 0,
    include_reference: bool = True,
) -> Dict[str, object]:
    """Fused vs seed cost of one batch-VI sweep (and one ELBO evaluation).

    ``include_reference=False`` skips the frozen-seed engine — its
    timings are never gated, so regression re-measurements drop them to
    confirm or clear a finding at a fraction of the wall-clock.
    """
    matrix = build_matrix(n_answers, seed=seed)
    config = CPAConfig(seed=seed, dtype=dtype)
    fused = VariationalInference(config, matrix)
    sharded = VariationalInference(
        config.with_overrides(backend="sharded", n_shards=SHARDED_K), matrix
    )

    fused_sweep = _time_calls(fused.sweep, sweeps)
    fused_elbo = _time_calls(fused.elbo, sweeps)
    sharded_sweep = _time_calls(sharded.sweep, sweeps)
    sharded_elbo = _time_calls(sharded.elbo, sweeps)
    record = {
        "n_answers": int(matrix.n_answers),
        "n_items": int(matrix.n_items),
        "n_workers": int(matrix.n_workers),
        "n_labels": int(matrix.n_labels),
        "n_clusters": int(fused.state.n_clusters),
        "n_communities": int(fused.state.n_communities),
        "n_patterns": int(fused.kernel.n_patterns),
        "dtype": dtype,
        "fused_sweep_s": fused_sweep,
        "fused_elbo_s": fused_elbo,
        # the *realised* shard count (the plan drops empty ranges and the
        # factory caps requests at the answered-item count), not the request
        "sharded_n_shards": int(sharded.kernel.n_shards),
        "sharded_sweep_s": sharded_sweep,
        "sharded_elbo_s": sharded_elbo,
        "sharded_sweep_ratio": sharded_sweep / fused_sweep,
    }
    if include_reference:
        reference = ReferenceVariationalInference(config, matrix)
        reference_sweep = _time_calls(reference.sweep, sweeps)
        reference_elbo = _time_calls(reference.elbo, sweeps)
        record.update(
            {
                "reference_sweep_s": reference_sweep,
                "sweep_speedup": reference_sweep / fused_sweep,
                "reference_elbo_s": reference_elbo,
                "elbo_speedup": reference_elbo / fused_elbo,
            }
        )
    return record


def bench_svi_batch(
    n_answers: int,
    *,
    answers_per_batch: int = 2000,
    timed_batches: int = 3,
    dtype: str = "float64",
    seed: int = 0,
    include_reference: bool = True,
) -> Dict[str, object]:
    """Fused vs seed cost of one SVI batch step.

    The first batch (symmetry-breaking seeding) is fed untimed; the
    following ``timed_batches`` steps are timed and the best is kept.
    """
    matrix = build_matrix(n_answers, seed=seed)
    batches = stream_from_matrix(
        matrix, answers_per_batch=answers_per_batch, seed=seed
    )[: timed_batches + 1]
    config = CPAConfig(seed=seed, dtype=dtype)
    sizes = (matrix.n_items, matrix.n_workers, matrix.n_labels)

    engines = [
        ("fused", StochasticInference(config, *sizes)),
        (
            "sharded",
            StochasticInference(
                config.with_overrides(backend="sharded", n_shards=SHARDED_K), *sizes
            ),
        ),
    ]
    if include_reference:
        engines.append(("reference", ReferenceStochasticInference(config, *sizes)))
    timings: Dict[str, float] = {}
    for key, engine in engines:
        engine.process_batch(batches[0])
        best = float("inf")
        for batch in batches[1:]:
            start = time.perf_counter()
            engine.process_batch(batch)
            best = min(best, time.perf_counter() - start)
        timings[key] = best
    record = {
        "n_answers": int(matrix.n_answers),
        "answers_per_batch": int(answers_per_batch),
        "dtype": dtype,
        "fused_batch_s": timings["fused"],
        "sharded_batch_s": timings["sharded"],
        "sharded_batch_ratio": timings["sharded"] / timings["fused"],
    }
    if include_reference:
        record["reference_batch_s"] = timings["reference"]
        record["batch_speedup"] = timings["reference"] / timings["fused"]
    return record


def merge_best(old: Dict[str, object], new: Dict[str, object]) -> Dict[str, object]:
    """Best-of merge of two records of the same case (regression re-runs).

    Every wall-clock key keeps its minimum across the two runs — a
    regression must reproduce in *every* measurement to survive — and the
    derived speedup/ratio keys are recomputed from the merged timings.
    Keys present only in ``old`` (e.g. reference timings skipped by a
    tracked-only re-measurement) are carried over unchanged.
    """
    merged = {**old, **new}
    for key, value in new.items():
        if key.endswith("_s") and isinstance(old.get(key), (int, float)):
            merged[key] = min(float(old[key]), float(value))
    derived = {
        "sweep_speedup": ("reference_sweep_s", "fused_sweep_s"),
        "elbo_speedup": ("reference_elbo_s", "fused_elbo_s"),
        "sharded_sweep_ratio": ("sharded_sweep_s", "fused_sweep_s"),
        "svi_batch_speedup": ("svi_reference_batch_s", "svi_fused_batch_s"),
        "svi_sharded_batch_ratio": ("svi_sharded_batch_s", "svi_fused_batch_s"),
        "widesparse_sweep_ratio": (
            "widesparse_adaptive_sweep_s",
            "widesparse_global_sweep_s",
        ),
    }
    for key, (numerator, denominator) in derived.items():
        if numerator in merged and denominator in merged:
            merged[key] = float(merged[numerator]) / float(merged[denominator])
    return merged


def run_suite(
    sizes: Sequence[int] = (10_000, 50_000, 200_000),
    *,
    sweeps: int = 2,
    dtype: str = "float64",
    seed: int = 0,
    verbose: bool = True,
    include_reference: bool = True,
    include_wide_sparse: bool = True,
) -> List[Dict[str, object]]:
    """Benchmark every answer volume; returns one record per size.

    ``include_wide_sparse`` appends the wide-sparse shard-local
    truncation case (:func:`bench_wide_sparse`) as an extra record with
    its own answer volume; regression re-measurements that only target
    the standard sizes pass ``False``.
    """
    records: List[Dict[str, object]] = []
    for n_answers in sizes:
        record = bench_batch_sweep(
            n_answers,
            sweeps=sweeps,
            dtype=dtype,
            seed=seed,
            include_reference=include_reference,
        )
        record.update(
            {
                f"svi_{key}": value
                for key, value in bench_svi_batch(
                    n_answers, dtype=dtype, seed=seed,
                    include_reference=include_reference,
                ).items()
                if key.endswith("_s") or key.endswith("speedup")
                or key.endswith("_ratio") or key == "answers_per_batch"
            }
        )
        if include_reference:
            # Transport bytes are deterministic, so regression
            # re-measurements (include_reference=False) skip them; the
            # previously recorded values are carried over by merge_best.
            record.update(
                measure_sweep_transport(n_answers, dtype=dtype, seed=seed)
            )
        records.append(record)
        if verbose and include_reference:
            print(
                f"N={record['n_answers']:>7d}  P={record['n_patterns']:>4d}  "
                f"sweep {record['reference_sweep_s']:.3f}s -> "
                f"{record['fused_sweep_s']:.3f}s ({record['sweep_speedup']:.1f}x)  "
                f"elbo {record['elbo_speedup']:.1f}x  "
                f"svi batch {record['svi_batch_speedup']:.1f}x  "
                f"sharded sweep {record['sharded_sweep_ratio']:.2f}x fused"
            )
        elif verbose:
            print(
                f"N={record['n_answers']:>7d}  P={record['n_patterns']:>4d}  "
                f"fused sweep {record['fused_sweep_s']:.3f}s  "
                f"sharded sweep {record['sharded_sweep_ratio']:.2f}x fused"
            )
    if include_wide_sparse:
        record = bench_wide_sparse(sweeps=sweeps, dtype=dtype, seed=seed)
        records.append(record)
        if verbose:
            print(
                f"N={record['n_answers']:>7d}  wide-sparse  "
                f"adaptive sweep {record['widesparse_sweep_ratio']:.2f}x global  "
                f"stats bytes {record['widesparse_stats_bytes_ratio']:.2f}x "
                f"(T_s={record['widesparse_shard_truncations']}, "
                f"T={record['n_clusters']})"
            )
    return records
