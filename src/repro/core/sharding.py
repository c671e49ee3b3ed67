"""Sharded sweep backend behind the :class:`SweepKernel` seam (DESIGN.md §6).

The fused kernel layer factors every data-dependent update of both
inference engines through per-answer sufficient statistics that are
*additive* over answers.  This module exploits that shape across shards:

* :class:`ShardPlan` partitions the flat answer arrays **by item** into
  ``K`` self-contained shards (contiguous item ranges, boundaries chosen
  to balance answer counts, built on :class:`SegmentLayout`'s item-sorted
  order).  Every answer lands in exactly one shard and every item's
  answers land in the *same* shard, so the ϕ-update data term never
  crosses a shard boundary.
* :class:`ShardedSweepKernel` presents the same interface as
  :class:`~repro.core.kernels.SweepKernel` but runs each shard's
  pattern-deduplicated contractions as an independent
  :meth:`~repro.utils.parallel.Executor.map_on` task and merges the
  partial sufficient statistics centrally.

Combine semantics (the parity contract of ``tests/test_sharded.py``):

* **item scores** — shards own disjoint item sets, so the merge is a
  disjoint scatter; each item's segment is reduced inside one shard with
  the same per-segment summation order (pattern-major, stable) as the
  fused serial path.
* **worker scores / cell statistics / ELBO** — workers and patterns span
  shards; each shard contributes one ``reduceat``-style contiguous
  partial per segment, and partials are merged ``+=`` in **fixed shard
  order** (``k = 0..K-1``, independent of the executor's scheduling,
  since ``map_on`` preserves task order).  The merge is therefore
  deterministic for every executor kind; relative to the fused serial
  path it only reassociates the per-segment sums, keeping trajectories
  within ``1e-10`` on float64.

Shard-local truncation (DESIGN.md §6 "Shard-local truncation"): with
``CPAConfig.adaptive_truncation`` engaged, each shard carries a
``t_limit`` sized from its own distinct item-profile count and works on
the stick-breaking *prefix* ``[0, T_s)`` of the cluster space,
``T_s = min(T, t_limit)``: tasks receive the contiguous view
``e_log_psi[:T_s]`` and windowed ϕ rows, per-shard statistics shrink to
``(T_s, M, C)``, and merges scatter the prefixes back into the global
arrays.  Engines keep ϕ exactly zero outside each item's window
(``cluster_limits`` + the masking helpers of :mod:`repro.core.kernels`),
so the windowed contractions are *exact* — coordinate ascent within the
window-constrained variational family.  When no shard binds
(``T_s = T`` everywhere) every path below is bitwise identical to the
non-adaptive one.

Transport (DESIGN.md §6 "Lane-resident shard state"): the shard kernels
are **lane-resident** — :class:`ShardedSweepKernel` broadcasts the shard
tuple to the executor once per plan
(:meth:`~repro.utils.parallel.Executor.broadcast`) and every per-sweep
task then carries only the shard index plus the small updated posteriors
(ϕ/κ rows, the sweep's ``E[ln ψ]``), routed through
:meth:`~repro.utils.parallel.Executor.map_on`.  For out-of-process lanes
this cuts per-sweep pickled bytes by an order of magnitude (the shard's
pattern tables and answer arrays ship once per plan instead of once per
task per call).  Called without an executor, the kernel runs the same
task functions in-process on its own shard list, so every executor is
bitwise equal to that path (``tests/test_resident.py``).  Broadcast
state is evicted when the executor closes.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import (
    SegmentLayout,
    SweepKernel,
    balanced_bounds,
    dedup_pays_off,
    segment_sum,
    unique_patterns,
)
from repro.errors import InferenceError, ValidationError
from repro.utils.parallel import Executor


@dataclass(frozen=True)
class Shard:
    """One self-contained slice of the answer matrix.

    ``kernel`` operates on shard-local index spaces; ``item_ids`` /
    ``worker_ids`` map local rows back to the global spaces (both sorted
    ascending, so local ids preserve global order).  ``t_limit`` is the
    shard's own cluster-truncation budget (DESIGN.md §6 "Shard-local
    truncation"), sized from the shard's item/answer profile at plan
    time; ``None`` means the shard inherits the global truncation.  The
    effective ``T_s = min(T, t_limit)`` is resolved against the global
    ``T`` by :class:`ShardedSweepKernel`, never here — the plan does not
    know ``T``.
    """

    index: int
    item_ids: np.ndarray  # (I_s,) global ids of the shard's answered items
    worker_ids: np.ndarray  # (U_s,) global ids of the shard's active workers
    kernel: SweepKernel
    t_limit: Optional[int] = None

    @property
    def n_answers(self) -> int:
        return self.kernel.n_answers


class ShardPlan:
    """Item-partition of flat answer arrays into balanced shards.

    Boundaries are drawn at item boundaries of the item-sorted layout,
    targeting equal answer counts per shard (the same balancing rule as
    ``SweepKernel._pattern_ranges``).  Ranges that contain no answers are
    dropped, so the realised ``n_shards`` can be below the request —
    ``K = 1`` always yields exactly one shard covering everything.
    """

    def __init__(
        self,
        items: np.ndarray,
        workers: np.ndarray,
        indicators: np.ndarray,
        n_items: int,
        n_workers: int,
        n_shards: int,
        dtype: np.dtype = np.float64,
        patterned: Optional[bool] = None,
        shard_truncation=None,
    ) -> None:
        """The rows are deduplicated once here, and each shard's kernel
        receives its sub-table instead of sorting its rows again.
        ``shard_truncation(n_profiles, n_items) -> int`` (normally
        :meth:`repro.core.config.CPAConfig.shard_truncation`) enables
        shard-local truncation adaptation: each shard's ``t_limit`` is
        sized from its count of distinct per-item answer profiles."""
        if n_shards <= 0:
            raise ValidationError("n_shards must be positive")
        self.dtype = np.dtype(dtype)
        items = np.asarray(items, dtype=np.int64)
        workers = np.asarray(workers, dtype=np.int64)
        indicators = np.ascontiguousarray(indicators, dtype=self.dtype)
        self.n_items = int(n_items)
        self.n_workers = int(n_workers)
        self.n_answers = int(items.size)
        self.n_labels = int(indicators.shape[1]) if indicators.ndim == 2 else 0

        # `patterned=False` is the explicit request to skip dedup entirely
        # (pattern-heavy data) — honour it here too instead of paying the
        # O(N·C log N) row sort only to discard the tables per shard.
        dedup = patterned is not False and self.n_answers > 0
        self.n_patterns = 0
        if dedup:
            patterns, pattern_index = unique_patterns(indicators)
            self.n_patterns = int(patterns.shape[0])
        if dedup and patterned is None and not dedup_pays_off(
            self.n_patterns, self.n_answers
        ):
            # Plan-level auto fallback mirroring SweepKernel's rule: on
            # pattern-heavy matrices every shard would discard its derived
            # sub-table anyway, so pin the direct path instead of deriving
            # tables shard by shard.  n_patterns reports 0 like SweepKernel
            # does on its direct path.
            patterned = False
            dedup = False
            self.n_patterns = 0

        layout = SegmentLayout(items, self.n_items)
        item_offsets = np.searchsorted(
            layout.sorted_index, np.arange(self.n_items + 1)
        ).astype(np.int64)
        sorted_items = layout.sorted_index
        sorted_workers = workers[layout.order]
        sorted_x = indicators[layout.order]
        sorted_pattern = pattern_index[layout.order] if dedup else None

        bounds = balanced_bounds(item_offsets, self.n_answers, n_shards)
        self.item_bounds = bounds

        self.shards: List[Shard] = []
        for s in range(bounds.size - 1):
            lo = int(item_offsets[bounds[s]])
            hi = int(item_offsets[bounds[s + 1]])
            if lo == hi:
                continue
            item_ids, local_items = np.unique(
                sorted_items[lo:hi], return_inverse=True
            )
            worker_ids, local_workers = np.unique(
                sorted_workers[lo:hi], return_inverse=True
            )
            dedup_tables = {}
            if dedup:
                # Shard pattern table derived from the global dedup: local
                # ids are increasing in global pattern id, so lexicographic
                # order (and with it the fused path's per-segment summation
                # order) is preserved.
                pattern_ids, local_pattern = np.unique(
                    sorted_pattern[lo:hi], return_inverse=True
                )
                dedup_tables = dict(
                    patterns=patterns[pattern_ids], pattern_index=local_pattern
                )
            kernel = SweepKernel(
                local_items,
                local_workers,
                sorted_x[lo:hi],
                n_items=int(item_ids.size),
                n_workers=int(worker_ids.size),
                dtype=self.dtype,
                patterned=patterned,
                **dedup_tables,
            )
            t_limit = None
            if shard_truncation is not None:
                # Distinct per-item answer profiles: items whose summed
                # indicator rows coincide are indistinguishable to the
                # clustering, so the profile count — not the raw item
                # count — bounds the clusters this shard's data supports.
                profiles = segment_sum(
                    sorted_x[lo:hi], local_items, int(item_ids.size)
                )
                n_profiles = int(np.unique(profiles, axis=0).shape[0])
                t_limit = int(shard_truncation(n_profiles, int(item_ids.size)))
            self.shards.append(
                Shard(
                    index=len(self.shards),
                    item_ids=item_ids,
                    worker_ids=worker_ids,
                    kernel=kernel,
                    t_limit=t_limit,
                )
            )
        self.n_shards = len(self.shards)


# --------------------------------------------------------------------- merges


def merge_cell_statistics(
    pieces: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine per-shard ``(counts, mass)`` fragments by summation.

    The combine is exact segment addition — associative and commutative up
    to float roundoff — so any bracketing/order of fragments agrees within
    accumulation noise; :class:`ShardedSweepKernel` always folds in fixed
    shard order to stay deterministic across executors.
    """
    if not pieces:
        raise ValidationError("merge_cell_statistics needs at least one fragment")
    counts = pieces[0][0].copy()
    mass = pieces[0][1].copy()
    for piece_counts, piece_mass in pieces[1:]:
        counts += piece_counts
        mass += piece_mass
    return counts, mass


def merge_scores(
    out: np.ndarray,
    pieces: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """``out[ids] += scores`` for each ``(ids, scores)`` fragment, in order."""
    for ids, scores in pieces:
        out[ids] += scores
    return out


# ---------------------------------------------------------------------- tasks
#
# Module-level task functions (picklable for process and remote lanes),
# run as ``func(shards, task)`` against the lane-resident shard tuple:
# each task names its shard by index and carries only that shard's
# per-sweep posterior rows.  Every score task re-establishes the sweep
# tensor itself; ``begin_sweep`` returns early on the same array object
# (in-process lanes share one kernel and one tensor) and on an
# equal-valued one (an out-of-process lane unpickles a fresh ``E[ln ψ]``
# per task), so each shard evaluates its pattern likelihood once per
# sweep either way.


def _worker_scores_task(shards, task) -> np.ndarray:
    """κ-update data term of one shard, over the shard's worker space."""
    k, e_log_psi, phi_rows = task
    kernel = shards[k].kernel
    kernel.begin_sweep(e_log_psi)
    out = np.zeros(
        (kernel.n_workers, e_log_psi.shape[1]),
        dtype=np.result_type(phi_rows, e_log_psi),
    )
    return kernel.add_worker_scores(out, phi_rows)


def _item_scores_task(shards, task) -> np.ndarray:
    """ϕ-update data term of one shard, over the shard's item space."""
    k, e_log_psi, kappa_rows = task
    kernel = shards[k].kernel
    kernel.begin_sweep(e_log_psi)
    out = np.zeros(
        (kernel.n_items, e_log_psi.shape[0]),
        dtype=np.result_type(kappa_rows, e_log_psi),
    )
    return kernel.add_item_scores(out, kappa_rows)


def _cell_statistics_task(shards, task) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 6 sufficient statistics of one shard."""
    k, phi_rows, kappa_rows = task
    return shards[k].kernel.cell_statistics(phi_rows, kappa_rows)


def _data_elbo_task(shards, task) -> float:
    """ELBO data term of one shard."""
    k, phi_rows, kappa_rows, e_log_psi = task
    return shards[k].kernel.data_elbo(phi_rows, kappa_rows, e_log_psi)


#: process-unique suffix source for broadcast keys (two live kernels must
#: never share a key on the same executor).
_BROADCAST_KEYS = itertools.count()


def _next_broadcast_key() -> str:
    return f"shard-plan-{next(_BROADCAST_KEYS)}"


def _release_broadcast(executors, key: str) -> None:
    """Drop ``key`` from every executor still alive in the weak set.

    Module-level so a :mod:`weakref` finalizer can call it without
    keeping the kernel itself alive; ``Executor.release`` is a no-op for
    unknown/closed state, so double release is safe.
    """
    for executor in list(executors):
        executor.release(key)


# --------------------------------------------------------------------- kernel


class ShardedSweepKernel:
    """Drop-in :class:`SweepKernel` that fans shards out over an executor.

    Presents the same sweep interface (``begin_sweep`` /
    ``add_worker_scores`` / ``add_item_scores`` / ``cell_statistics`` /
    ``data_elbo``) so :class:`~repro.core.inference.VariationalInference`
    and the per-batch SVI path can select it without code changes; merge
    semantics are documented in the module docstring.

    The shard tuple is broadcast to each executor once (on first use) and
    per-sweep tasks carry only ``(shard index, posterior rows)`` through
    ``map_on``.  Methods called without an executor run the same task
    functions in-process, with nothing broadcast anywhere.
    """

    def __init__(
        self,
        items: np.ndarray,
        workers: np.ndarray,
        indicators: np.ndarray,
        n_items: int,
        n_workers: int,
        dtype: np.dtype = np.float64,
        n_shards: int = 1,
        patterned: Optional[bool] = None,
        shard_truncation=None,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self._broadcast_key = _next_broadcast_key()
        #: executors that already hold this plan (weak: an executor's
        #: lifetime is the caller's business, not the kernel's).  The
        #: finalizer retires the plan from surviving executors when the
        #: kernel is collected, so long-lived executors serving many
        #: successive fits do not accumulate dead plans.
        self._installed: "weakref.WeakSet" = weakref.WeakSet()
        self._finalizer = weakref.finalize(
            self, _release_broadcast, self._installed, self._broadcast_key
        )
        self.plan = ShardPlan(
            items,
            workers,
            indicators,
            n_items=n_items,
            n_workers=n_workers,
            n_shards=n_shards,
            dtype=self.dtype,
            patterned=patterned,
            shard_truncation=shard_truncation,
        )
        self.n_items = self.plan.n_items
        self.n_workers = self.plan.n_workers
        self.n_answers = self.plan.n_answers
        self.n_labels = self.plan.n_labels
        self.n_patterns = self.plan.n_patterns
        self.n_shards = self.plan.n_shards
        #: shard-local truncation adaptation is armed (some shard carries
        #: a t_limit); whether it *binds* depends on the global T of each
        #: call (see _shard_ts) — when no shard's limit falls below T,
        #: every code path below is identical to the non-adaptive one.
        self.adaptive = any(
            shard.t_limit is not None for shard in self.plan.shards
        )
        self._shard_ts_cache: dict = {}
        self._limits_cache: dict = {}
        self._e_log_psi: Optional[np.ndarray] = None
        self._psi_views: Optional[List[np.ndarray]] = None
        self._psi_view_cache: Optional[Tuple[np.ndarray, List[np.ndarray]]] = None
        # Identity-keyed row-slice caches: reusing the same sliced arrays
        # across cell_statistics -> data_elbo lets each shard's joint-mass
        # cache hit (serial/thread executors share the kernel objects).
        self._phi_slices: Optional[Tuple[np.ndarray, List[np.ndarray]]] = None
        self._kappa_slices: Optional[Tuple[np.ndarray, List[np.ndarray]]] = None

    # ------------------------------------------------- shard-local truncation

    def _shard_ts(self, n_clusters: int) -> List[int]:
        """Effective per-shard truncations ``T_s = min(T, t_limit)``."""
        t = int(n_clusters)
        cached = self._shard_ts_cache.get(t)
        if cached is None:
            cached = [
                t if shard.t_limit is None else max(1, min(t, shard.t_limit))
                for shard in self.plan.shards
            ]
            self._shard_ts_cache[t] = cached
        return cached

    def _binding(self, n_clusters: int) -> bool:
        """Does any shard truncate below the global ``T`` at this width?"""
        return self.adaptive and any(
            t_s < int(n_clusters) for t_s in self._shard_ts(int(n_clusters))
        )

    def cluster_limits(self, n_clusters: int) -> Optional[np.ndarray]:
        """Per-item cluster-window limits at global truncation ``n_clusters``.

        ``None`` when adaptation is off or no shard binds (the engines
        then run the untouched global-truncation updates).  Otherwise an
        ``(n_items,)`` int64 array: item ``i`` of a truncated shard may
        only occupy clusters ``[0, limits[i])``; items outside every
        shard (unanswered) keep the full window.  Engines feed this to
        :func:`repro.core.kernels.mask_cluster_scores` /
        :func:`repro.core.kernels.truncate_rows` so ``ϕ`` rows carry
        exactly zero mass outside their windows — which is what makes
        every restricted shard contraction exact.
        """
        t = int(n_clusters)
        if not self._binding(t):
            return None
        cached = self._limits_cache.get(t)
        if cached is None:
            cached = np.full(self.n_items, t, dtype=np.int64)
            for shard, t_s in zip(self.plan.shards, self._shard_ts(t)):
                cached[shard.item_ids] = t_s
            self._limits_cache[t] = cached
        return cached

    def _psi_for(self, e_log_psi: np.ndarray) -> List[np.ndarray]:
        """Per-shard likelihood tensors: prefix views when truncating.

        A binding shard receives the contiguous prefix view
        ``e_log_psi[:T_s]`` — no copy, and its pattern-space tensor and
        sufficient statistics shrink to ``(·, T_s, M)`` / ``(T_s, M, C)``.
        Non-binding shards receive the original array object, so the
        per-sweep identity caches (and bitwise behaviour) match the
        non-adaptive path exactly.  Views are identity-cached on the
        input array: repeated calls with the same tensor (the SVI local
        loop re-enters ``begin_sweep`` every refinement pass) hand the
        shard kernels the *same* view objects, keeping their per-sweep
        likelihood caches warm.
        """
        t = int(e_log_psi.shape[0])
        if not self._binding(t):
            return [e_log_psi] * len(self.plan.shards)
        cache = self._psi_view_cache
        if cache is None or cache[0] is not e_log_psi:
            self._psi_view_cache = (
                e_log_psi,
                [
                    e_log_psi if t_s >= t else e_log_psi[:t_s]
                    for t_s in self._shard_ts(t)
                ],
            )
        return self._psi_view_cache[1]

    # ------------------------------------------------------------ transport

    def __getstate__(self) -> dict:
        # WeakSets and finalizers do not pickle; a clone starts with no
        # lanes installed and a fresh key (sharing the original's key
        # could alias another kernel's broadcast in the unpickling
        # process).
        state = self.__dict__.copy()
        state["_installed"] = None
        state["_finalizer"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._installed = weakref.WeakSet()
        self._broadcast_key = _next_broadcast_key()
        self._finalizer = weakref.finalize(
            self, _release_broadcast, self._installed, self._broadcast_key
        )

    def evict(self) -> None:
        """Release this plan's broadcast state from every installed executor.

        Called when a plan is retired while its executor lives on (the SVI
        engine replaces its per-batch kernel every batch); the finalizer
        does the same when the kernel is garbage-collected, and the
        executor's own :meth:`~repro.utils.parallel.Executor.close`
        evicts everything — so calling this is an optimisation, not a
        duty.
        """
        _release_broadcast(self._installed, self._broadcast_key)
        self._installed.clear()

    def _fan_out(self, executor: Optional[Executor], func, tasks):
        """Run ``func(shards, task)`` per shard task, results in task order.

        An executor receives the shard tuple once (broadcast on first
        use) and runs the tasks through ``map_on``; without one the tasks
        run in-process on the plan's shards.  Either way results come
        back in task order — the fixed-order merge contract.
        """
        if executor is None:
            return [func(self.plan.shards, task) for task in tasks]
        if executor not in self._installed:
            executor.broadcast(self._broadcast_key, tuple(self.plan.shards))
            self._installed.add(executor)
        return executor.map_on(self._broadcast_key, func, tasks)

    # ---------------------------------------------------------------- sweep

    def begin_sweep(self, e_log_psi: np.ndarray) -> None:
        """Pin the sweep's likelihood tensor; shards evaluate lazily.

        Each shard task establishes its pattern-space likelihood on first
        use, once per sweep: in-process executors hand every task the same
        tensor object, and a lane-resident shard kernel recognises the
        equal-valued copy it unpickles for its second score task
        (:meth:`SweepKernel.begin_sweep`).  Under binding
        shard-local truncation each truncated shard is pinned to the
        contiguous prefix view ``e_log_psi[:T_s]`` for the whole sweep.
        """
        self._e_log_psi = np.ascontiguousarray(e_log_psi, dtype=self.dtype)
        self._psi_views = self._psi_for(self._e_log_psi)

    def _item_rows(self, phi: np.ndarray) -> List[np.ndarray]:
        cache = self._phi_slices
        if cache is None or cache[0] is not phi:
            rows = [phi[shard.item_ids] for shard in self.plan.shards]
            if self._binding(phi.shape[1]):
                # Window the ϕ rows to each shard's prefix.  The engines
                # keep ϕ at exactly zero outside the windows, so the
                # truncated contraction equals the full one.  Contiguous
                # copies: the rows feed per-pattern BLAS matmuls, which
                # would otherwise re-pack the strided slice per group.
                rows = [
                    r if t_s >= phi.shape[1]
                    else np.ascontiguousarray(r[:, :t_s])
                    for r, t_s in zip(rows, self._shard_ts(phi.shape[1]))
                ]
            self._phi_slices = (phi, rows)
        return self._phi_slices[1]

    def _worker_rows(self, kappa: np.ndarray) -> List[np.ndarray]:
        cache = self._kappa_slices
        if cache is None or cache[0] is not kappa:
            self._kappa_slices = (
                kappa,
                [kappa[shard.worker_ids] for shard in self.plan.shards],
            )
        return self._kappa_slices[1]

    def add_worker_scores(
        self, out: np.ndarray, phi: np.ndarray, executor: Optional[Executor] = None
    ) -> np.ndarray:
        """``out[u] += Σ_{n: u_n=u} Σ_t ϕ[i_n, t] L[n, t, ·]``, shard-merged."""
        if self._e_log_psi is None:
            raise InferenceError("begin_sweep must be called before score accumulation")
        tasks = [
            (shard.index, psi, rows)
            for shard, psi, rows in zip(
                self.plan.shards, self._psi_views, self._item_rows(phi)
            )
        ]
        pieces = self._fan_out(executor, _worker_scores_task, tasks)
        return merge_scores(
            out,
            [
                (shard.worker_ids, scores)
                for shard, scores in zip(self.plan.shards, pieces)
            ],
        )

    def add_item_scores(
        self, out: np.ndarray, kappa: np.ndarray, executor: Optional[Executor] = None
    ) -> np.ndarray:
        """``out[i] += Σ_{n: i_n=i} Σ_m κ[u_n, m] L[n, ·, m]``; disjoint merge.

        Under binding shard-local truncation a truncated shard returns
        ``(I_s, T_s)`` scores which scatter into the prefix columns of
        its (disjoint) item rows; out-of-window columns are left
        untouched — the engines mask them out of the ϕ update entirely.
        """
        if self._e_log_psi is None:
            raise InferenceError("begin_sweep must be called before score accumulation")
        tasks = [
            (shard.index, psi, rows)
            for shard, psi, rows in zip(
                self.plan.shards, self._psi_views, self._worker_rows(kappa)
            )
        ]
        pieces = self._fan_out(executor, _item_scores_task, tasks)
        if self._binding(out.shape[1]):
            for shard, t_s, scores in zip(
                self.plan.shards, self._shard_ts(out.shape[1]), pieces
            ):
                out[shard.item_ids, :t_s] += scores
            return out
        return merge_scores(
            out,
            [
                (shard.item_ids, scores)
                for shard, scores in zip(self.plan.shards, pieces)
            ],
        )

    # ------------------------------------------------------------ statistics

    def cell_statistics(
        self, phi: np.ndarray, kappa: np.ndarray, executor: Optional[Executor] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 6 sufficient statistics merged over shards (fixed order)."""
        t, m = phi.shape[1], kappa.shape[1]
        if not self.plan.shards:
            dtype = np.result_type(phi, kappa)
            return (
                np.zeros((t, m, self.n_labels), dtype=dtype),
                np.zeros((t, m), dtype=dtype),
            )
        tasks = [
            (shard.index, phi_rows, kappa_rows)
            for shard, phi_rows, kappa_rows in zip(
                self.plan.shards, self._item_rows(phi), self._worker_rows(kappa)
            )
        ]
        pieces = self._fan_out(executor, _cell_statistics_task, tasks)
        if self._binding(t):
            # Truncated shards return (T_s, M, C) partials; scatter each
            # into the prefix rows of the global statistics.  Clusters no
            # shard reaches keep zero counts (λ stays at its prior).
            dtype = np.result_type(phi, kappa)
            counts = np.zeros((t, m, self.n_labels), dtype=dtype)
            mass = np.zeros((t, m), dtype=dtype)
            for t_s, (piece_counts, piece_mass) in zip(self._shard_ts(t), pieces):
                counts[:t_s] += piece_counts
                mass[:t_s] += piece_mass
            return counts, mass
        return merge_cell_statistics(pieces)

    def data_elbo(
        self,
        phi: np.ndarray,
        kappa: np.ndarray,
        e_log_psi: np.ndarray,
        executor: Optional[Executor] = None,
    ) -> float:
        """``E[ln p(x | z, l, ψ)]`` summed over shards in fixed order."""
        e_log_psi = np.ascontiguousarray(e_log_psi, dtype=self.dtype)
        tasks = [
            (shard.index, phi_rows, kappa_rows, psi)
            for shard, phi_rows, kappa_rows, psi in zip(
                self.plan.shards,
                self._item_rows(phi),
                self._worker_rows(kappa),
                self._psi_for(e_log_psi),
            )
        ]
        return float(sum(self._fan_out(executor, _data_elbo_task, tasks)))


# -------------------------------------------------------------------- factory


def build_sweep_kernel(
    config,
    items: np.ndarray,
    workers: np.ndarray,
    indicators: np.ndarray,
    *,
    n_items: int,
    n_workers: int,
    executor: Optional[Executor] = None,
    n_shards: Optional[int] = None,
):
    """Kernel-backend selection seam for both engines.

    The concrete backend comes from
    :meth:`~repro.core.config.CPAConfig.resolve_backend` on the matrix's
    answer count and the executor's lane count — explicit ``"fused"`` /
    ``"sharded"`` selections pass through, ``"auto"`` applies the
    measured volume thresholds of :mod:`repro.core.kernels`.  A sharded
    selection caps K at the matrix's *answered* item count (an
    item-partitioned plan cannot realise more shards; callers read the
    realised count back from ``kernel.n_shards``), and engages
    shard-local truncation adaptation when
    :meth:`~repro.core.config.CPAConfig.resolve_adaptive_truncation`
    says the matrix is wide/sparse enough (or the knob forces it).
    ``CPAConfig`` already validated the backend name.

    An explicit ``n_shards`` overrides the resolved count and forces the
    sharded backend — the shard re-planning path
    (:meth:`~repro.core.inference.VariationalInference.replan_shards`)
    uses it to rebuild the plan for a changed lane count without
    re-resolving (and possibly flipping) the backend choice mid-run.
    """
    dtype = config.resolve_dtype()
    degree = getattr(executor, "degree", 1) if executor is not None else 1
    items_array = np.asarray(items)
    n_answers = int(items_array.size)
    if n_shards is not None:
        if n_shards < 1:
            raise ValidationError("n_shards override must be at least 1")
        backend = "sharded"
    else:
        backend, n_shards = config.resolve_backend(n_answers, degree)
    if backend == "sharded":
        if n_shards > 1:
            # Cap the request by the answered-item count so requested and
            # realised K agree (the plan would drop the empty ranges
            # anyway, but a capped request is what records report); K = 1
            # needs no cap, so skip the O(N log N) unique there.
            answered = int(np.unique(items_array).size)
            n_shards = max(1, min(n_shards, max(1, answered)))
        return ShardedSweepKernel(
            items,
            workers,
            indicators,
            n_items=n_items,
            n_workers=n_workers,
            dtype=dtype,
            n_shards=n_shards,
            shard_truncation=(
                config.shard_truncation
                if config.resolve_adaptive_truncation(n_items, n_answers)
                else None
            ),
        )
    return SweepKernel(
        items,
        workers,
        indicators,
        n_items=n_items,
        n_workers=n_workers,
        dtype=dtype,
    )
