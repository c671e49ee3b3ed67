"""Fused likelihood kernels shared by the batch and stochastic engines.

This is the performance seam of the inference layer (DESIGN.md §6).  It
exploits the paper's partial-answer structure: an answer is a label *set*,
so the answer log-likelihood ``L[n, t, m] = Σ_c x_nc E[ln ψ_tmc]`` depends
only on the *distinct set pattern* of row ``n``.  With ``P`` unique
patterns (``P ≤ min(N, 2^C)``, and ``P ≪ N`` on realistic data) the
dominant ``(N, C) @ (C, T·M)`` matmul collapses to ``(P, C) @ (C, T·M)``
evaluated **once per sweep**, and every per-answer contraction against the
likelihood tensor becomes a run of per-pattern BLAS matmuls over answers
grouped by pattern — no ``(N, T, M)`` intermediate is ever materialised:

* κ-update data term:   ``Σ_t ϕ[i_n, t] L[p_n, t, m]`` → per pattern ``p``,
  one ``(n_p, T) @ (T, M)`` matmul (:func:`grouped_matmul`);
* ϕ-update data term:   symmetric, ``(n_p, M) @ (M, T)``;
* λ/cell statistics:    ``J[p] = ϕ_rowsᵀ κ_rows`` per pattern
  (:func:`grouped_outer`), then one ``(T·M, P) @ (P, C)`` matmul against
  the pattern table — ``O(N·T·M + P·T·M·C)`` instead of ``O(N·T·M·C)``;
* ELBO data term:       ``Σ_p ⟨J[p], L[p]⟩`` with ``J`` cached from the
  λ update of the same sweep.

Scatters (``np.add.at``) are replaced by sorted CSR-style layouts
(:class:`SegmentLayout` / :func:`segment_sum`) driving
``np.add.reduceat`` segment reductions.  Chunked accumulations are
expressed as task lists executed by a
:class:`~repro.utils.parallel.Executor`, so the same code path runs the
serial fused sweep and the parallel sweep of both engines: batch VI over
the whole matrix, SVI over each batch (Alg. 3's MAP/REDUCE shape).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.expectations import answer_log_likelihood
from repro.errors import InferenceError
from repro.utils.math import flush_subnormals
from repro.utils.parallel import Executor, SerialExecutor

#: answers per vectorised chunk on the non-deduplicated fallback path —
#: bounds the peak size of the ``(chunk, T, M)`` intermediates.
CHUNK = 16384

#: soft cap on rows of the pattern table; above it dedup would save
#: neither memory nor compute and the kernel falls back to direct
#: per-answer evaluation.
PATTERN_LIMIT = 200_000

_SERIAL = SerialExecutor()


def dedup_pays_off(n_patterns: int, n_answers: int) -> bool:
    """The auto rule deciding the pattern-deduplicated path.

    Dedup wins unless the matrix has (pathologically) almost as many
    distinct patterns as answers; shared by :class:`SweepKernel`'s
    ``patterned=None`` mode and the plan-level decision of
    :class:`repro.core.sharding.ShardPlan`.
    """
    return n_patterns <= min(PATTERN_LIMIT, max(64, (3 * n_answers) // 4))


# ---------------------------------------------------- backend auto-selection
#
# Thresholds behind ``CPAConfig.backend = "auto"``.  Calibrated against the
# measured trajectory in BENCH_core.json (which records them alongside the
# timings): the K=4 serial sharded sweep crosses below 1.0x the fused sweep
# between 50k and 200k answers (0.91x @ 50k is within noise of parity,
# 0.57x @ 200k is a solid win from per-shard cache locality), while at 10k
# answers the plan/merge overhead makes it ~2.3x slower.  With parallel
# lanes the fan-out also buys concurrency, so the crossover moves down.

#: answer volume above which a *serial* sharded sweep beats the fused one.
SHARDED_MIN_ANSWERS = 100_000

#: crossover with ≥2 executor lanes (shards also run concurrently).
SHARDED_MIN_ANSWERS_PARALLEL = 25_000

#: target answers per shard when auto-selecting K (matches the tracked
#: K=4 @ 200k-answers configuration of BENCH_core.json).
SHARDED_ANSWERS_PER_SHARD = 50_000

#: cap on the auto-selected shard count — beyond this, per-shard pattern
#: tables get small enough that dispatch overhead dominates.
SHARDED_MAX_AUTO_SHARDS = 16


def sharded_pays_off(n_answers: int, degree: int = 1) -> bool:
    """The ``backend="auto"`` rule: route this matrix through shards?

    Below the crossover volume the fused serial kernel wins (shard plan
    construction and per-sweep dispatch/merge are fixed costs); above it
    the smaller per-shard pattern groups fit cache markedly better, and
    parallel lanes lower the bar further.  The SVI per-batch route calls
    this with the *batch* answer count, so ordinary 100-answer batches
    stay fused while bulk arrival increments can go sharded.
    """
    floor = SHARDED_MIN_ANSWERS_PARALLEL if degree > 1 else SHARDED_MIN_ANSWERS
    return n_answers >= floor


def auto_shard_count(n_answers: int, degree: int = 1, n_items: int = 0) -> int:
    """Shard count ``K`` for an auto-selected sharded run.

    One shard per :data:`SHARDED_ANSWERS_PER_SHARD` answers, with the
    volume-driven count capped at :data:`SHARDED_MAX_AUTO_SHARDS` — but
    never fewer than the executor's lane count, which wins over the cap:
    every lane should own work.  ``n_items`` (the answered item count,
    when known) wins over everything: an item-partitioned plan cannot
    realise more shards than answered items, so requesting more would
    only misreport K to whatever records the selection.
    """
    by_volume = min(SHARDED_MAX_AUTO_SHARDS, n_answers // SHARDED_ANSWERS_PER_SHARD)
    k = max(1, int(degree), by_volume)
    if n_items > 0:
        k = min(k, int(n_items))
    return k


# ------------------------------------------- shard-local truncation adaptation
#
# Thresholds behind ``CPAConfig.adaptive_truncation = "auto"`` and the
# prefix-window helpers shared by both engines (DESIGN.md §6 "Shard-local
# truncation").  A truncated shard works on the stick-breaking *prefix*
# [0, T_s) of the global cluster space — truncation levels of a
# stick-breaking process are always prefix cutoffs, so a shard-local
# truncation is a shard-local prefix.

#: item-space width below which adaptation never auto-engages — small
#: spaces already get small global truncations from resolve_truncations.
ADAPTIVE_MIN_ITEMS = 512

#: answers-per-item density above which a matrix stops counting as
#: sparse: well-covered items support rich per-shard profiles, so the
#: per-shard rule would not bind anyway and the window bookkeeping is
#: pure overhead.
ADAPTIVE_MAX_ANSWERS_PER_ITEM = 4.0

#: margin subtracted from each row's minimum when masking out-of-window
#: scores.  Chosen so that (a) the scores stay finite (the SVI µ
#: parameterisation cannot tolerate -inf), (b) softmax leaks at most
#: ``exp(-margin) ≈ 1.6e-28`` mass per masked column — far below float64
#: resolution, and removed *exactly* by the :func:`truncate_rows`
#: projection the engines apply after normalising — and (c) the masked
#: arguments stay inside ``np.exp``'s SIMD fast range (large-negative
#: inputs fall back to a scalar loop, which measurably slows the
#: row-softmax of wide item spaces).
MASK_MARGIN = 64.0


def adaptive_pays_off(n_items: int, n_answers: int) -> bool:
    """The ``adaptive_truncation="auto"`` rule: is this matrix wide/sparse?

    Wide (at least :data:`ADAPTIVE_MIN_ITEMS` items) and sparse (at most
    :data:`ADAPTIVE_MAX_ANSWERS_PER_ITEM` answers per item on average) —
    the regime where shard-local item profiles are poor enough that
    per-shard truncations sized from them actually shrink.
    """
    return (
        n_items >= ADAPTIVE_MIN_ITEMS
        and n_answers <= ADAPTIVE_MAX_ANSWERS_PER_ITEM * n_items
    )


def mask_cluster_scores(
    scores: np.ndarray, limits: np.ndarray, margin: float = MASK_MARGIN
) -> np.ndarray:
    """Constrain per-item cluster scores to prefix windows, in place.

    Row ``i`` keeps columns ``[0, limits[i])`` untouched; columns at and
    beyond the limit are filled with that row's minimum minus ``margin``,
    so the subsequent row softmax leaves them at most ``exp(-margin)``
    mass (≈ 1.6e-28 at the default — engines remove even that exactly
    via :func:`truncate_rows`) while the scores stay finite — the
    canonical-µ SVI path subtracts score columns, so ``-inf`` fills
    would poison it.  ``scores`` must be freshly assembled (masking an
    already-masked array would ratchet the fill downward); rows with
    ``limits[i] >= scores.shape[1]`` are left untouched.  Returns
    ``scores``.
    """
    limits = np.asarray(limits)
    t = scores.shape[1]
    out_of_window = np.arange(t)[None, :] >= limits[:, None]
    if not out_of_window.any():
        return scores
    fill = scores.min(axis=1) - margin
    np.copyto(scores, fill[:, None], where=out_of_window)
    return scores


def truncate_rows(probs: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Project probability rows onto prefix windows ``[0, limits[i])``.

    Out-of-window mass is dropped and each row renormalised over its
    window — the exact conditional distribution given the window, which
    is what restricting the variational family to the window means.  A
    row with no in-window mass at all becomes uniform over its window.
    Used to localise the *initial* responsibilities so every later
    restricted contraction is exact.  Returns a new array of the same
    dtype, free of subnormals like every κ/ϕ producer.
    """
    limits = np.asarray(limits)
    t = probs.shape[1]
    mask = np.arange(t)[None, :] < limits[:, None]
    out = np.where(mask, probs, 0.0).astype(probs.dtype, copy=False)
    totals = out.sum(axis=1, keepdims=True)
    empty = totals[:, 0] <= 0
    if np.any(empty):
        window = mask[empty]
        out[empty] = window / window.sum(axis=1, keepdims=True)
        totals = out.sum(axis=1, keepdims=True)
    return flush_subnormals(out / totals)


def unique_patterns(indicators: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Deduplicate 0/1 indicator rows into ``(patterns, index)``.

    ``patterns`` is the ``(P, C)`` table of distinct label-set rows (in
    lexicographic order) and ``index`` the ``(N,)`` map from answers to
    pattern rows, so ``patterns[index]`` reconstructs ``indicators``.

    Rows are sorted as packed bits (``np.packbits``, label 0 in the most
    significant bit), which orders them exactly like the float rows; with
    ``C ≤ 64`` each row packs into one big-endian 64-bit word, so the
    dedup is a 1-D integer sort.
    """
    indicators = np.asarray(indicators)
    packed = np.packbits(indicators != 0, axis=1)
    if packed.shape[1] <= 8:
        words = np.zeros((packed.shape[0], 8), dtype=np.uint8)
        words[:, : packed.shape[1]] = packed
        keys = words.view(">u8").reshape(-1)
        _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    else:
        _, first, index = np.unique(
            packed, axis=0, return_index=True, return_inverse=True
        )
    return indicators[first], np.asarray(index, dtype=np.int64).reshape(-1)


def balanced_bounds(offsets: np.ndarray, total: int, parts: int) -> np.ndarray:
    """Segment-aligned cut points carrying roughly equal weight per part.

    ``offsets`` is the ``(S+1,)`` cumulative weight at each segment
    boundary (``offsets[-1] == total``); the returned strictly increasing
    bounds (first ``0``, last ``S``) split the segments into at most
    ``parts`` runs of ~``total / parts`` weight each.  Shared by the
    pattern-range partitioning of :class:`SweepKernel` and the item-range
    partitioning of :class:`repro.core.sharding.ShardPlan`.
    """
    n_segments = int(offsets.size - 1)
    if parts <= 1 or n_segments <= 1:
        return np.array([0, n_segments], dtype=np.int64)
    targets = np.linspace(0, total, parts + 1, dtype=np.float64)[1:-1]
    cuts = np.searchsorted(offsets, targets, side="left")
    return np.unique(np.concatenate([[0], cuts, [n_segments]])).astype(np.int64)


def segment_sum(values: np.ndarray, index: np.ndarray, n_segments: int) -> np.ndarray:
    """``out[s] = Σ_{n: index[n] = s} values[n]`` over the leading axis.

    Drop-in replacement for ``np.add.at(out, index, values)`` built on a
    sort plus ``np.add.reduceat`` — contiguous segment reductions instead
    of one scattered add per row.
    """
    values = np.asarray(values)
    out = np.zeros((int(n_segments),) + values.shape[1:], dtype=values.dtype)
    if values.shape[0] == 0:
        return out
    index = np.asarray(index, dtype=np.int64)
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    ids, starts = np.unique(sorted_index, return_index=True)
    out[ids] = np.add.reduceat(values[order], starts, axis=0)
    return out


class SegmentLayout:
    """Precomputed sorted layout for repeated segment reductions.

    Sorting the answer axis by a segment key (worker, item, or pattern)
    once makes every later reduction a gather into contiguous runs plus a
    single ``np.add.reduceat`` — a CSR layout over any key.
    """

    def __init__(self, index: np.ndarray, n_segments: int) -> None:
        index = np.asarray(index, dtype=np.int64)
        self.n_segments = int(n_segments)
        self.size = int(index.size)
        self.order = np.argsort(index, kind="stable")
        self.sorted_index = index[self.order]
        if self.size:
            self.segment_ids, self.starts = np.unique(
                self.sorted_index, return_index=True
            )
        else:
            self.segment_ids = np.empty(0, dtype=np.int64)
            self.starts = np.empty(0, dtype=np.int64)

    def chunk_heads(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Reduceat offsets for the sorted slice ``[lo, hi)``.

        Returns ``(local_starts, segment_ids)``: the in-chunk segment
        boundaries (first entry always 0, i.e. ``lo``) and the segment id
        of each run.  A segment spanning a chunk boundary contributes
        partial sums from both chunks; callers accumulate with ``+=``.
        """
        i0 = np.searchsorted(self.starts, lo, side="right")
        i1 = np.searchsorted(self.starts, hi, side="left")
        heads = np.concatenate([[lo], self.starts[i0:i1]]).astype(np.int64)
        return heads - lo, self.sorted_index[heads]

    def add_to(self, out: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``out[s] += Σ values`` per segment, for values in *layout* order
        (the original order the layout was built from)."""
        if self.size == 0:
            return out
        sums = np.add.reduceat(values[self.order], self.starts, axis=0)
        out[self.segment_ids] += sums
        return out


# ---------------------------------------------------------- grouped matmuls


def grouped_matmul(
    pattern_like: np.ndarray,
    group_ids: np.ndarray,
    offsets: np.ndarray,
    weights: np.ndarray,
    swap: bool,
) -> np.ndarray:
    """Per-pattern contraction of weight rows against likelihood blocks.

    ``weights`` holds per-answer rows grouped by pattern: rows
    ``offsets[j]:offsets[j+1]`` belong to pattern ``group_ids[j]``.  With
    ``swap=False`` each group computes ``(n_p, T) @ (T, M)`` (the κ-update
    data term); with ``swap=True`` it computes ``(n_p, M) @ (M, T)`` (the
    ϕ-update term).  Equivalent to gathering the ``(n, T, M)`` likelihood
    rows and contracting, but runs as ``len(group_ids)`` small BLAS calls
    with no rank-3 temporary.
    """
    t, m = pattern_like.shape[1], pattern_like.shape[2]
    dtype = np.result_type(weights, pattern_like)
    out = np.empty((weights.shape[0], t if swap else m), dtype=dtype)
    for j, pattern in enumerate(group_ids):
        lo, hi = int(offsets[j]), int(offsets[j + 1])
        if lo == hi:
            continue
        block = pattern_like[pattern]
        np.matmul(weights[lo:hi], block.T if swap else block, out=out[lo:hi])
    return out


def grouped_outer(
    phi_rows: np.ndarray,
    kappa_rows: np.ndarray,
    group_ids: np.ndarray,
    offsets: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """``J[p] = Σ_{n in group p} ϕ_rows[n]ᵀ κ_rows[n]`` as per-group matmuls.

    Inputs are grouped by pattern exactly as in :func:`grouped_matmul`;
    each group is one ``(T, n_p) @ (n_p, M)`` BLAS call.  Groups absent
    from ``group_ids`` stay zero.
    """
    t, m = phi_rows.shape[1], kappa_rows.shape[1]
    out = np.zeros((int(n_groups), t, m), dtype=np.result_type(phi_rows, kappa_rows))
    for j, group in enumerate(group_ids):
        lo, hi = int(offsets[j]), int(offsets[j + 1])
        if lo == hi:
            continue
        np.matmul(phi_rows[lo:hi].T, kappa_rows[lo:hi], out=out[group])
    return out


# --------------------------------------------------------------------- tasks
#
# Module-level task functions (picklable for process pools).  Each task is a
# tuple of pre-sliced arrays so a pool lane receives only its chunk's share
# plus the shared (P, T, M) pattern tensor.


def _grouped_score_task(task) -> Tuple[int, np.ndarray]:
    """One pattern-aligned range of :func:`grouped_matmul`."""
    lo, pattern_like, group_ids, offsets, weights, swap = task
    return lo, grouped_matmul(pattern_like, group_ids, offsets, weights, swap)


def _grouped_outer_task(task) -> Tuple[np.ndarray, np.ndarray]:
    """One pattern-aligned range of :func:`grouped_outer`."""
    phi_rows, kappa_rows, group_ids, offsets = task
    joint = grouped_outer(
        phi_rows, kappa_rows, np.arange(group_ids.size), offsets, group_ids.size
    )
    return group_ids, joint


def _direct_score_task(task) -> Tuple[np.ndarray, np.ndarray]:
    """Fallback score chunk: evaluate the likelihood directly (no dedup)."""
    x, e_log_psi, weights, starts, seg_ids, subscripts = task
    like = answer_log_likelihood(x, e_log_psi)
    weighted = np.einsum(subscripts, weights, like)
    return seg_ids, np.add.reduceat(weighted, starts, axis=0)


def _direct_cell_task(task) -> Tuple[np.ndarray, np.ndarray]:
    """Fallback cell-statistics chunk: direct ``(n,T,M) × (n,C)`` contraction."""
    phi_rows, kappa_rows, x = task
    joint = phi_rows[:, :, None] * kappa_rows[:, None, :]
    counts = np.einsum("ntm,nc->tmc", joint, x, optimize=True)
    return counts, joint.sum(axis=0)


def _direct_elbo_task(task) -> float:
    """Fallback ELBO data-term chunk."""
    phi_rows, kappa_rows, x, e_log_psi = task
    like = answer_log_likelihood(x, e_log_psi)
    joint = phi_rows[:, :, None] * kappa_rows[:, None, :]
    return float(np.einsum("ntm,ntm->", joint, like))


def _iter_bounds(size: int, chunk: int) -> List[Tuple[int, int]]:
    return [(lo, min(lo + chunk, size)) for lo in range(0, size, chunk)]


class SweepKernel:
    """Per-matrix workspace fusing every likelihood consumer of one sweep.

    Parameters
    ----------
    items, workers, indicators:
        The flat answer arrays (``(N,)``, ``(N,)``, ``(N, C)``).
    n_items, n_workers:
        Sizes of the item / worker index spaces.
    dtype:
        Floating dtype of the likelihood tensors (``CPAConfig.dtype``).
    patterned:
        Force the pattern-deduplicated path on/off; ``None`` (default)
        decides automatically — dedup is used unless the matrix has
        (pathologically) almost as many distinct patterns as answers.
    patterns, pattern_index:
        Optional precomputed dedup (as returned by
        :func:`unique_patterns`): ``patterns`` the ``(P, C)`` distinct-row
        table in lexicographic order, ``pattern_index`` the ``(N,)`` map
        from answers to rows.  A sharded caller that deduplicated the full
        matrix once can hand each shard its derived sub-table instead of
        paying the ``O(N·C log N)`` row sort again per shard.
    """

    def __init__(
        self,
        items: np.ndarray,
        workers: np.ndarray,
        indicators: np.ndarray,
        n_items: int,
        n_workers: int,
        dtype: np.dtype = np.float64,
        patterned: Optional[bool] = None,
        patterns: Optional[np.ndarray] = None,
        pattern_index: Optional[np.ndarray] = None,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.items = np.asarray(items, dtype=np.int64)
        self.workers = np.asarray(workers, dtype=np.int64)
        self.indicators = np.ascontiguousarray(indicators, dtype=self.dtype)
        self.n_answers = int(self.items.size)
        self.n_items = int(n_items)
        self.n_workers = int(n_workers)
        self.n_labels = int(self.indicators.shape[1]) if self.indicators.ndim == 2 else 0

        if patterned is False:
            # Explicit fallback: skip the O(N·C log N) dedup sort entirely —
            # this path exists precisely for pattern-heavy data where the
            # dedup is most expensive and least useful.
            self.patterns = np.zeros((0, self.n_labels), dtype=self.dtype)
            self.pattern_index = np.zeros(0, dtype=np.int64)
            self.n_patterns = 0
        else:
            if patterns is not None and pattern_index is not None:
                self.patterns = np.ascontiguousarray(patterns, dtype=self.dtype)
                self.pattern_index = np.asarray(
                    pattern_index, dtype=np.int64
                ).reshape(-1)
            else:
                self.patterns, self.pattern_index = unique_patterns(self.indicators)
            self.n_patterns = int(self.patterns.shape[0])
            if patterned is None:
                patterned = dedup_pays_off(self.n_patterns, self.n_answers)
        self.patterned = bool(patterned)

        if self.patterned:
            # Pattern-sorted layout: every per-answer contraction becomes a
            # run of per-pattern BLAS matmuls (answers of one pattern are
            # contiguous), and the worker/item reductions reuse the two
            # companion layouts built over the same order.
            self.by_pattern = SegmentLayout(self.pattern_index, self.n_patterns)
            self.pattern_offsets = np.searchsorted(
                self.by_pattern.sorted_index, np.arange(self.n_patterns + 1)
            ).astype(np.int64)
            self.items_by_pattern = self.items[self.by_pattern.order]
            self.workers_by_pattern = self.workers[self.by_pattern.order]
            self.worker_from_pattern = SegmentLayout(
                self.workers_by_pattern, self.n_workers
            )
            self.item_from_pattern = SegmentLayout(self.items_by_pattern, self.n_items)
        else:
            self.by_worker = SegmentLayout(self.workers, self.n_workers)
            self.by_item = SegmentLayout(self.items, self.n_items)
            self.items_by_worker = self.items[self.by_worker.order]
            self.workers_by_item = self.workers[self.by_item.order]
            self.x_by_worker = self.indicators[self.by_worker.order]
            self.x_by_item = self.indicators[self.by_item.order]

        self._sweep_arg: Optional[np.ndarray] = None
        self._e_log_psi: Optional[np.ndarray] = None
        self._pattern_like: Optional[np.ndarray] = None
        # (phi, kappa, pattern-space joint mass) of the latest cell pass —
        # reused by the ELBO when ϕ/κ have not changed since (identity
        # checks on held references, so array replacement invalidates it).
        self._joint_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def cluster_limits(self, n_clusters: int) -> Optional[np.ndarray]:
        """Per-item cluster-window limits, or ``None`` when unconstrained.

        The fused kernel never truncates shard-locally (there are no
        shards); the method exists so engines can consult one seam for
        every backend (:meth:`repro.core.sharding.ShardedSweepKernel.cluster_limits`
        returns real windows when adaptation binds).
        """
        return None

    def evict(self) -> None:
        """No-op: a fused kernel holds no lane-resident state.

        Mirrors :meth:`repro.core.sharding.ShardedSweepKernel.evict` so
        engines can retire any kernel through one seam.
        """

    # ---------------------------------------------------------------- sweep

    def begin_sweep(self, e_log_psi: np.ndarray) -> None:
        """Evaluate the answer log-likelihood once for the whole sweep.

        Every subsequent :meth:`add_worker_scores` / :meth:`add_item_scores`
        call contracts against the shared ``(P, T, M)`` tensor instead of
        re-running the ``(N, C) @ (C, T·M)`` matmul.  Passing the same
        array object as the previous call returns at once (the SVI local
        passes of one batch share one ``E[ln ψ]``); so does an array equal
        in value to the previous input (a lane-resident shard kernel
        unpickles a fresh copy of the sweep's ``E[ln ψ]`` for each of its
        score tasks).  The value check runs on the input, before any
        dtype conversion.  The kernel keeps a reference to the input, so
        callers must not change its values in place.
        """
        if e_log_psi is self._sweep_arg:
            return
        if self._sweep_arg is not None and np.array_equal(e_log_psi, self._sweep_arg):
            return
        self._e_log_psi = np.ascontiguousarray(e_log_psi, dtype=self.dtype)
        if self.patterned:
            self._pattern_like = answer_log_likelihood(self.patterns, self._e_log_psi)
        self._sweep_arg = e_log_psi

    def _pattern_ranges(self, executor: Executor) -> List[Tuple[int, int]]:
        """Pattern-aligned ranges with roughly balanced answer counts."""
        lanes = max(1, getattr(executor, "degree", 1))
        if lanes <= 1 or self.n_patterns <= 1:
            return [(0, self.n_patterns)]
        bounds = balanced_bounds(self.pattern_offsets, self.n_answers, lanes)
        return [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(bounds.size - 1)
        ]

    def _pattern_weighted(
        self, weights: np.ndarray, swap: bool, executor: Executor
    ) -> np.ndarray:
        """Grouped-matmul contraction for all answers, in pattern order."""
        ranges = self._pattern_ranges(executor)
        if len(ranges) == 1:
            return grouped_matmul(
                self._pattern_like,
                np.arange(self.n_patterns),
                self.pattern_offsets,
                weights,
                swap,
            )
        tasks = []
        for p0, p1 in ranges:
            lo = int(self.pattern_offsets[p0])
            hi = int(self.pattern_offsets[p1])
            tasks.append(
                (
                    lo,
                    self._pattern_like,
                    np.arange(p0, p1),
                    self.pattern_offsets[p0 : p1 + 1] - lo,
                    weights[lo:hi],
                    swap,
                )
            )
        pieces = executor.map_tasks(_grouped_score_task, tasks)
        t_or_m = self._pattern_like.shape[1] if swap else self._pattern_like.shape[2]
        out = np.empty(
            (self.n_answers, t_or_m),
            dtype=np.result_type(weights, self._pattern_like),
        )
        for lo, piece in pieces:
            out[lo : lo + piece.shape[0]] = piece
        return out

    def add_worker_scores(
        self, out: np.ndarray, phi: np.ndarray, executor: Optional[Executor] = None
    ) -> np.ndarray:
        """``out[u] += Σ_{n: u_n=u} Σ_t ϕ[i_n, t] L[n, t, ·]`` (Eq. 2 data term)."""
        executor = executor or _SERIAL
        if self._e_log_psi is None:
            raise InferenceError("begin_sweep must be called before score accumulation")
        if self.patterned:
            weighted = self._pattern_weighted(
                phi[self.items_by_pattern], swap=False, executor=executor
            )
            return self.worker_from_pattern.add_to(out, weighted)
        return self._direct_scores(
            out, self.by_worker, phi[self.items_by_worker], self.x_by_worker,
            "nt,ntm->nm", executor,
        )

    def add_item_scores(
        self, out: np.ndarray, kappa: np.ndarray, executor: Optional[Executor] = None
    ) -> np.ndarray:
        """``out[i] += Σ_{n: i_n=i} Σ_m κ[u_n, m] L[n, ·, m]`` (Eq. 3 data term)."""
        executor = executor or _SERIAL
        if self._e_log_psi is None:
            raise InferenceError("begin_sweep must be called before score accumulation")
        if self.patterned:
            weighted = self._pattern_weighted(
                kappa[self.workers_by_pattern], swap=True, executor=executor
            )
            return self.item_from_pattern.add_to(out, weighted)
        return self._direct_scores(
            out, self.by_item, kappa[self.workers_by_item], self.x_by_item,
            "nm,ntm->nt", executor,
        )

    def _direct_scores(
        self,
        out: np.ndarray,
        layout: SegmentLayout,
        weights: np.ndarray,
        x_rows: np.ndarray,
        subscripts: str,
        executor: Executor,
    ) -> np.ndarray:
        lanes = max(1, getattr(executor, "degree", 1))
        chunk = max(1, min(CHUNK, -(-self.n_answers // lanes)))
        tasks = []
        for lo, hi in _iter_bounds(layout.size, chunk):
            starts, seg_ids = layout.chunk_heads(lo, hi)
            tasks.append(
                (x_rows[lo:hi], self._e_log_psi, weights[lo:hi], starts, seg_ids, subscripts)
            )
        for seg_ids, sums in executor.map_tasks(_direct_score_task, tasks):
            out[seg_ids] += sums
        return out

    # ------------------------------------------------------------ statistics

    def _pattern_joint(
        self, phi: np.ndarray, kappa: np.ndarray, executor: Executor
    ) -> np.ndarray:
        """``J[p, t, m] = Σ_{n: pattern(n)=p} ϕ[i_n, t] κ[u_n, m]``, cached."""
        cache = self._joint_cache
        if cache is not None and cache[0] is phi and cache[1] is kappa:
            return cache[2]
        phi_rows = phi[self.items_by_pattern]
        kappa_rows = kappa[self.workers_by_pattern]
        ranges = self._pattern_ranges(executor)
        if len(ranges) == 1:
            joint = grouped_outer(
                phi_rows,
                kappa_rows,
                np.arange(self.n_patterns),
                self.pattern_offsets,
                self.n_patterns,
            )
        else:
            joint = np.zeros(
                (self.n_patterns, phi.shape[1], kappa.shape[1]),
                dtype=np.result_type(phi, kappa),
            )
            tasks = []
            for p0, p1 in ranges:
                lo = int(self.pattern_offsets[p0])
                hi = int(self.pattern_offsets[p1])
                tasks.append(
                    (
                        phi_rows[lo:hi],
                        kappa_rows[lo:hi],
                        np.arange(p0, p1),
                        self.pattern_offsets[p0 : p1 + 1] - lo,
                    )
                )
            for group_ids, piece in executor.map_tasks(_grouped_outer_task, tasks):
                joint[group_ids] = piece
        self._joint_cache = (phi, kappa, joint)
        return joint

    def cell_statistics(
        self, phi: np.ndarray, kappa: np.ndarray, executor: Optional[Executor] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 6 sufficient statistics ``(counts (T,M,C), mass (T,M))``.

        On the pattern path the ``O(N·T·M·C)`` contraction collapses to the
        pattern-space joint mass plus one ``(T·M, P) @ (P, C)`` matmul.
        """
        executor = executor or _SERIAL
        if self.patterned:
            joint = self._pattern_joint(phi, kappa, executor)
            p, t, m = joint.shape
            counts = (joint.reshape(p, t * m).T @ self.patterns).reshape(
                t, m, self.n_labels
            )
            return counts, joint.sum(axis=0)
        t = phi.shape[1]
        m = kappa.shape[1]
        counts = np.zeros((t, m, self.n_labels), dtype=np.result_type(phi, kappa))
        mass = np.zeros((t, m), dtype=counts.dtype)
        lanes = max(1, getattr(executor, "degree", 1))
        chunk = max(1, min(CHUNK, -(-self.n_answers // lanes)))
        tasks = []
        for lo, hi in _iter_bounds(self.n_answers, chunk):
            tasks.append(
                (phi[self.items[lo:hi]], kappa[self.workers[lo:hi]], self.indicators[lo:hi])
            )
        for partial_counts, partial_mass in executor.map_tasks(_direct_cell_task, tasks):
            counts += partial_counts
            mass += partial_mass
        return counts, mass

    def data_elbo(
        self,
        phi: np.ndarray,
        kappa: np.ndarray,
        e_log_psi: np.ndarray,
        executor: Optional[Executor] = None,
    ) -> float:
        """``E[ln p(x | z, l, ψ)] = Σ_n Σ_tm ϕ κ L`` for the current globals.

        Reuses the pattern-space joint mass cached by the last
        :meth:`cell_statistics` call whenever ``ϕ``/``κ`` are unchanged —
        the common case, since the ELBO is evaluated right after a sweep.
        """
        executor = executor or _SERIAL
        if self.patterned:
            pattern_like = answer_log_likelihood(
                self.patterns, np.ascontiguousarray(e_log_psi, dtype=self.dtype)
            )
            joint = self._pattern_joint(phi, kappa, executor)
            return float(np.einsum("ptm,ptm->", joint, pattern_like))
        e_log_psi = np.ascontiguousarray(e_log_psi, dtype=self.dtype)
        lanes = max(1, getattr(executor, "degree", 1))
        chunk = max(1, min(CHUNK, -(-self.n_answers // lanes)))
        tasks = []
        for lo, hi in _iter_bounds(self.n_answers, chunk):
            tasks.append(
                (
                    phi[self.items[lo:hi]],
                    kappa[self.workers[lo:hi]],
                    self.indicators[lo:hi],
                    e_log_psi,
                )
            )
        return float(sum(executor.map_tasks(_direct_elbo_task, tasks)))
