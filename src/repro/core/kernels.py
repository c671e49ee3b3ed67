"""Likelihood kernels shared by the batch and stochastic engines.

This is the performance seam of the inference layer (DESIGN.md §6).  It
exploits the paper's partial-answer structure: an answer is a label *set*,
so the answer log-likelihood ``L[n, t, m] = Σ_c x_nc E[ln ψ_tmc]`` is
linear in the label indicators, and every consumer of it in a sweep
factors through per-(worker, label) sums.  With ``A`` the ``(U·C, I)``
sparse incidence holding one entry per label given (row ``u·C + c``,
column ``i``) and ``B`` the ``(U, I)`` answer incidence:

* κ-update data term (Eq. 2):  ``W = A ϕ`` viewed as ``(U, C·T)``, times
  ``E[ln ψ]`` rearranged to ``(C·T, M)``;
* ϕ-update data term (Eq. 3):  ``Aᵀ (κ E)``, with ``E[ln ψ]`` rearranged
  to ``(M, C·T)`` and the product viewed as ``(U·C, T)``;
* Eq. 6 statistics:  ``counts = Wᵀ κ`` (as ``(C·T, M)``) and
  ``mass = (B ϕ)ᵀ κ``;
* ELBO data term:  ``Σ counts · E[ln ψ]``.

Every dense product runs on the ``U·C`` worker-label rows, so a pass
costs ``nnz(A)·T`` sparse work plus ``U·C·T·M`` dense work, independent
of how many distinct label sets the answers use.  No ``(N, T, M)``
intermediate is ever materialised.  The products run in the kernel dtype
(``CPAConfig.dtype``): κ, ϕ, ``E[ln ψ]`` and ``E[ln τ]`` are cast to it,
flushed (:func:`~repro.utils.math.cast_flushed`), as they enter, and
every result comes back in the dtype of the arrays the caller handed in,
so a float64 caller gets exact upcasts (DESIGN.md §6 "Dtype policy").  A sweep's ϕ half
(:meth:`SweepKernel.update_phi`) takes the Eq. 6 statistics under the
new ϕ, and the kernel keeps that pass's ``A ϕ`` for the next κ update,
which reads the same ϕ: one sparse product per sweep fewer.  The kernel
runs in the calling process; lanes come from the sharded backend
(:mod:`repro.core.sharding`), which runs one kernel per shard.

Prediction keeps its own pattern-deduplicated path (its log-sum-exp over
communities is not linear in the indicators) and shares the segment and
grouped-matmul helpers below.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.errors import InferenceError
from repro.utils.math import cast_flushed, log_normalize_rows
from repro.utils.parallel import Executor


# ---------------------------------------------------- backend auto-selection
#
# Thresholds behind ``CPAConfig.backend = "auto"``.  Calibrated against the
# measured trajectory in BENCH_core.json (which records them alongside the
# timings) while the fused kernel still deduplicated label-set patterns:
# the K=4 serial sharded sweep crossed below 1.0x the fused sweep between
# 50k and 200k answers, while at 10k answers the plan/merge overhead made
# it ~2.3x slower.  With parallel lanes the fan-out also buys concurrency,
# so the crossover moves down.  They have not been re-derived for the
# label-factored kernel (DESIGN.md §6 "Sharded execution").

#: answer volume above which a *serial* sharded sweep beats the fused one.
SHARDED_MIN_ANSWERS = 100_000

#: crossover with ≥2 executor lanes (shards also run concurrently).
SHARDED_MIN_ANSWERS_PARALLEL = 25_000

#: target answers per shard when auto-selecting K (matches the tracked
#: K=4 @ 200k-answers configuration of BENCH_core.json).
SHARDED_ANSWERS_PER_SHARD = 50_000

#: cap on the auto-selected shard count — beyond this, per-shard work
#: gets small enough that dispatch overhead dominates.
SHARDED_MAX_AUTO_SHARDS = 16


def sharded_pays_off(n_answers: int, degree: int = 1) -> bool:
    """The ``backend="auto"`` rule: route this matrix through shards?

    Below the crossover volume the fused serial kernel wins (shard plan
    construction and per-sweep dispatch/merge are fixed costs); above it
    the measured trajectory favoured shards, and parallel lanes lower the
    bar further.  The SVI per-batch route calls this with the *batch*
    answer count, so ordinary 100-answer batches stay fused while bulk
    arrival increments can go sharded.
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
    ``parts`` runs of ~``total / parts`` weight each.  Drives the
    item-range partitioning of :class:`repro.core.sharding.ShardPlan`.
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
    ``swap=False`` each group computes ``(n_p, T) @ (T, M)``; with
    ``swap=True`` it computes ``(n_p, M) @ (M, T)`` (prediction's
    community mixture).  Equivalent to gathering the ``(n, T, M)``
    likelihood rows and contracting, but runs as ``len(group_ids)`` small
    BLAS calls with no rank-3 temporary.
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


def cluster_responsibilities(
    scores: np.ndarray, supervised: Optional[Tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """ϕ rows from ``(I, T)`` cluster scores: add the observed-truth rows
    ``supervised = (items, rows)`` into ``scores`` in place, then softmax
    each row in the scores' dtype.  Row-local, so a row's bits do not
    depend on which rows are computed with it."""
    if supervised is not None:
        items, rows = supervised
        scores[items] += rows
    return log_normalize_rows(scores)


# ------------------------------------------------------------- sweep kernel


class SweepKernel:
    """Per-matrix workspace for every likelihood consumer of one sweep.

    Holds the answers only as two CSR incidence matrices in the kernel
    dtype: ``label_incidence`` (``A``, ``(U·C, I)``, one entry per label
    given; row ``u·C + c``, column ``i``) and ``answer_incidence`` (``B``,
    ``(U, I)``, one entry per answer).  Duplicate (item, worker) answers
    add up, which is exact because every product below is linear in the
    answers.  The products run in the kernel dtype; scores accumulate
    into the caller's ``out`` and the other results come back in the
    dtype of the κ/ϕ/``E[ln τ]`` handed in.

    Parameters
    ----------
    items, workers, indicators:
        The flat answer arrays (``(N,)``, ``(N,)``, ``(N, C)``).
    n_items, n_workers:
        Sizes of the item / worker index spaces.
    dtype:
        Floating dtype of the incidence matrices, of the sweep's
        ``E[ln ψ]`` views and of every product (``CPAConfig.dtype``).

    The ``executor`` argument of the sweep methods is accepted so that
    engines call this kernel and :class:`repro.core.sharding.ShardedSweepKernel`
    the same way; this kernel always runs in the calling process.
    """

    def __init__(
        self,
        items: np.ndarray,
        workers: np.ndarray,
        indicators: np.ndarray,
        n_items: int,
        n_workers: int,
        dtype: np.dtype = np.float64,
    ) -> None:
        self.dtype = np.dtype(dtype)
        items = np.asarray(items, dtype=np.int64)
        workers = np.asarray(workers, dtype=np.int64)
        indicators = np.asarray(indicators)
        self.n_answers = int(items.size)
        self.n_items = int(n_items)
        self.n_workers = int(n_workers)
        self.n_labels = int(indicators.shape[1])

        answer, label = np.nonzero(indicators)
        self.label_incidence = sparse.csr_array(
            (
                indicators[answer, label].astype(self.dtype),
                (workers[answer] * self.n_labels + label, items[answer]),
            ),
            shape=(self.n_workers * self.n_labels, self.n_items),
            dtype=self.dtype,
        )
        self.answer_incidence = sparse.csr_array(
            (np.ones(self.n_answers, dtype=self.dtype), (workers, items)),
            shape=(self.n_workers, self.n_items),
            dtype=self.dtype,
        )
        # E[ln ψ] of the current sweep as (C·T, M) and (M, C·T) matrices.
        self._e_worker: Optional[np.ndarray] = None
        self._e_item: Optional[np.ndarray] = None
        #: ``(ϕ, A ϕ)`` of the last statistics pass: :meth:`add_worker_scores`
        #: reuses the product when handed that same ϕ array (so a ϕ given
        #: to the kernel must not be written in place afterwards).
        self._held: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: ``(token, ϕ rows)``: the name a lane task gave the rows of its
        #: last statistics pass (:mod:`repro.core.sharding`).
        self.named_phi: Optional[Tuple[str, np.ndarray]] = None
        #: the name a lane task gave the ``E[ln ψ]`` views of its sweep.
        self.named_sweep: Optional[str] = None

    def __getstate__(self) -> dict:
        # the held product, the rows it came from and the names never travel
        state = self.__dict__.copy()
        state["_held"] = None
        state["named_phi"] = None
        state["named_sweep"] = None
        return state

    def evict(self) -> None:
        """Drop the held ``A ϕ``; a fused kernel holds no lane-resident state.

        Mirrors :meth:`repro.core.sharding.ShardedSweepKernel.evict` so
        engines can retire any kernel through one seam.
        """
        self._held = self.named_phi = self.named_sweep = None

    # ---------------------------------------------------------------- sweep

    def begin_sweep(self, e_log_psi: np.ndarray) -> None:
        """Rearrange the sweep's ``E[ln ψ]`` for the score products.

        Stores ``E_w[c·T + t, m]`` and ``E_k[m, c·T + t]``, both equal to
        ``E[ln ψ_tmc]`` in the kernel dtype.  The score methods raise
        :class:`~repro.errors.InferenceError` until this has been called.
        """
        e = cast_flushed(e_log_psi, self.dtype)
        t, m, c = e.shape
        self._e_worker = np.ascontiguousarray(e.transpose(2, 0, 1)).reshape(c * t, m)
        self._e_item = np.ascontiguousarray(e.transpose(1, 2, 0)).reshape(m, c * t)
        self.named_sweep = None

    @property
    def sweep_sizes(self) -> Tuple[int, int]:
        """``(T, M)`` of the ``E[ln ψ]`` the last :meth:`begin_sweep` took."""
        if self._e_item is None:
            raise InferenceError("begin_sweep must be called before score accumulation")
        m, ct = self._e_item.shape
        return ct // self.n_labels, m

    def add_worker_scores(
        self, out: np.ndarray, phi: np.ndarray, executor: Optional[Executor] = None
    ) -> np.ndarray:
        """``out[u] += Σ_{n: u_n=u} Σ_t ϕ[i_n, t] L[n, t, ·]`` (Eq. 2 data term).

        Reuses the last statistics pass's ``A ϕ`` when ``phi`` is the
        array that pass read.
        """
        if self._e_worker is None:
            raise InferenceError("begin_sweep must be called before score accumulation")
        held = self._held
        if held is not None and held[0] is phi:
            weighted = held[1]
        else:
            weighted = self.label_incidence @ cast_flushed(phi, self.dtype)  # (U·C, T)
        out += weighted.reshape(self.n_workers, self._e_worker.shape[0]) @ self._e_worker
        return out

    def add_item_scores(
        self, out: np.ndarray, kappa: np.ndarray, executor: Optional[Executor] = None
    ) -> np.ndarray:
        """``out[i] += Σ_{n: i_n=i} Σ_m κ[u_n, m] L[n, ·, m]`` (Eq. 3 data term)."""
        if self._e_item is None:
            raise InferenceError("begin_sweep must be called before score accumulation")
        per_label = (cast_flushed(kappa, self.dtype) @ self._e_item).reshape(
            self.label_incidence.shape[0], out.shape[1]
        )
        out += self.label_incidence.T @ per_label
        return out

    # ------------------------------------------------------------ statistics

    def cell_statistics(
        self, phi: np.ndarray, kappa: np.ndarray, executor: Optional[Executor] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 6 sufficient statistics ``(counts (T,M,C), mass (T,M))``.

        Keeps ``(ϕ, A ϕ)`` in place of the previous pass's, for the next
        :meth:`add_worker_scores` given the same ϕ.
        """
        dtype = np.result_type(phi, kappa)
        self._held = None  # at most one product alive
        phi_k = cast_flushed(phi, self.dtype)
        kappa_k = cast_flushed(kappa, self.dtype)
        product = self.label_incidence @ phi_k
        self._held = (phi, product)
        counts = self._counts(product, kappa_k)
        mass = (self.answer_incidence @ phi_k).T @ kappa_k
        return counts.astype(dtype, copy=False), mass.astype(dtype, copy=False)

    def _counts(self, product: np.ndarray, kappa: np.ndarray) -> np.ndarray:
        """The ``(T, M, C)`` counts ``Wᵀ κ`` of the product ``W = A ϕ``."""
        t, m = product.shape[1], kappa.shape[1]
        weighted = product.reshape(self.n_workers, self.n_labels * t)
        counts = (weighted.T @ kappa).reshape(self.n_labels, t, m)
        return np.ascontiguousarray(counts.transpose(1, 2, 0))

    def exact_counts(self, phi: np.ndarray, kappa: np.ndarray) -> np.ndarray:
        """The Eq. 6 counts of a float64 pass over float64 ``phi``/``kappa``.

        A float32 incidence upcasts exactly (its entries count answers),
        so only the products change precision; nothing is held.
        """
        product = self.label_incidence.astype(np.float64, copy=False) @ phi
        return self._counts(product, kappa)

    def update_phi(
        self,
        e_log_tau: np.ndarray,
        kappa: np.ndarray,
        supervised: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        executor: Optional[Executor] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ϕ half of a sweep: corrected Eq. 3, then Eq. 6 under the new ϕ.

        Row ``i`` of the returned ϕ is the softmax of ``E[ln τ]`` plus the
        item scores under ``kappa``, plus the observed-truth term
        ``rows[j]`` where ``supervised = (items, rows)`` has
        ``items[j] == i``, computed in the kernel dtype.  Returns ``(ϕ,
        counts, mass)`` in the dtype of ``e_log_tau`` and ``kappa``; the
        statistics pass keeps ``A ϕ`` for the next κ update, for the
        returned ϕ.
        """
        self._held = self.named_phi = None  # no κ update reads the old ϕ now
        dtype = np.result_type(e_log_tau, kappa)
        kappa = cast_flushed(kappa, self.dtype)
        scores = np.tile(cast_flushed(e_log_tau, self.dtype), (self.n_items, 1))
        self.add_item_scores(scores, kappa)
        phi = cluster_responsibilities(scores, supervised)
        counts, mass = self.cell_statistics(phi, kappa)
        held = phi.astype(dtype, copy=False)  # an exact upcast for the program
        self._held = (held, self._held[1])
        return held, counts.astype(dtype, copy=False), mass.astype(dtype, copy=False)

    def data_elbo(
        self,
        phi: np.ndarray,
        kappa: np.ndarray,
        e_log_psi: np.ndarray,
        executor: Optional[Executor] = None,
    ) -> float:
        """``E[ln p(x | z, l, ψ)] = Σ_n Σ_tm ϕ κ L``, as ``Σ counts · E[ln ψ]``,
        in float64 (:meth:`exact_counts`)."""
        return float(np.vdot(self.exact_counts(phi, kappa), e_log_psi))
