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
  label-factored contractions (one :class:`SweepKernel` per shard, over
  the shard's own incidence matrices) as an independent
  :meth:`~repro.utils.parallel.Executor.map_on` task and merges the
  partial sufficient statistics centrally.

Combine semantics (the parity contract of ``tests/test_sharded.py``):

* **item scores** — shards own disjoint item sets, so the merge is a
  disjoint scatter; each item's row is reduced inside one shard.
* **worker scores / cell statistics** — workers span shards; each shard
  contributes one partial per worker (and one ``(T, M, C)`` /
  ``(T, M)`` statistics partial), and partials are merged ``+=`` in
  **fixed shard order** (``k = 0..K-1``, independent of the executor's
  scheduling, since ``map_on`` preserves task order), into float64.  The
  merge is therefore deterministic for every executor kind; relative to
  the fused serial path it only reassociates the sums, keeping
  trajectories within ``1e-10`` on float64.  The ELBO data term is
  ``Σ counts · E[ln ψ]`` over float64 statistics taken in process.

Every shard works on the global cluster truncation ``T``, so a sharded
run computes the fused posterior up to summation order on every input.

Transport (DESIGN.md §6 "Lane-resident shard state"): the shard kernels
are **lane-resident** — :class:`ShardedSweepKernel` broadcasts the shard
tuple to the executor once per plan
(:meth:`~repro.utils.parallel.Executor.broadcast`) and every per-sweep
task then carries only the shard index plus the small updated posteriors
(κ rows, the sweep's ``E[ln ψ]`` and ``E[ln τ]``), routed through
:meth:`~repro.utils.parallel.Executor.map_on`.  Everything a task
carries, holds or returns is in the kernel dtype (``CPAConfig.dtype``):
the program casts its float64 rows down, flushed, and stores what comes
back as exact upcasts.  A batch-VI sweep is two calls: the κ half
(:meth:`ShardedSweepKernel.add_worker_scores`) and the ϕ half
(:meth:`ShardedSweepKernel.update_phi`), whose tasks softmax their
shard's ϕ rows and return them with the shard's Eq. 6 statistics.  Each
statistics pass leaves its ϕ rows and their ``A ϕ`` held by the
lane-side shard kernel under a token the program mints, so the next κ
half sends the token instead of the rows; likewise the first task of a
sweep leaves the rearranged ``E[ln ψ]`` views under the sweep's token,
and the sweep's later tasks send the token instead of ``E[ln ψ]``.  A
lane that lacks what a token names (:class:`HeldRowsMissing`) costs one
resend with the arrays.  Called
without an executor, the kernel runs the same task functions in-process
on its own shard list, so every executor is bitwise equal to that path
(``tests/test_resident.py``).  Broadcast state is evicted when the
executor closes.
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
    cluster_responsibilities,
)
from repro.errors import InferenceError, ValidationError
from repro.utils.math import cast_flushed, flush_subnormals
from repro.utils.parallel import Executor
from repro.utils.random import RandomState


@dataclass(frozen=True)
class Shard:
    """One self-contained slice of the answer matrix.

    ``kernel`` operates on shard-local index spaces; ``item_ids`` /
    ``worker_ids`` map local rows back to the global spaces (both sorted
    ascending, so local ids preserve global order).
    """

    index: int
    item_ids: np.ndarray  # (I_s,) global ids of the shard's answered items
    worker_ids: np.ndarray  # (U_s,) global ids of the shard's active workers
    kernel: SweepKernel

    @property
    def n_answers(self) -> int:
        return self.kernel.n_answers


class ShardPlan:
    """Item-partition of flat answer arrays into balanced shards.

    Boundaries are drawn at item boundaries of the item-sorted layout,
    targeting equal answer counts per shard (:func:`balanced_bounds`).
    Ranges that contain no answers are dropped, so the realised
    ``n_shards`` can be below the request — ``K = 1`` always yields
    exactly one shard covering everything.  Items with no answer belong
    to no shard (``unanswered_items``).
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
    ) -> None:
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

        layout = SegmentLayout(items, self.n_items)
        item_offsets = np.searchsorted(
            layout.sorted_index, np.arange(self.n_items + 1)
        ).astype(np.int64)
        sorted_items = layout.sorted_index
        sorted_workers = workers[layout.order]
        sorted_x = indicators[layout.order]

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
            kernel = SweepKernel(
                local_items,
                local_workers,
                sorted_x[lo:hi],
                n_items=int(item_ids.size),
                n_workers=int(worker_ids.size),
                dtype=self.dtype,
            )
            self.shards.append(
                Shard(
                    index=len(self.shards),
                    item_ids=item_ids,
                    worker_ids=worker_ids,
                    kernel=kernel,
                )
            )
        self.n_shards = len(self.shards)
        #: sorted ids of the items no shard holds.
        self.unanswered_items = np.flatnonzero(item_offsets[1:] == item_offsets[:-1])


# --------------------------------------------------------------------- merges


def merge_cell_statistics(
    pieces: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine per-shard ``(counts, mass)`` fragments by summation, in float64.

    The combine is exact segment addition — associative and commutative up
    to float roundoff — so any bracketing/order of fragments agrees within
    accumulation noise; :class:`ShardedSweepKernel` always folds in fixed
    shard order to stay deterministic across executors.
    """
    if not pieces:
        raise ValidationError("merge_cell_statistics needs at least one fragment")
    counts = pieces[0][0].astype(np.float64)
    mass = pieces[0][1].astype(np.float64)
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


def _local_rows(
    supervised: Optional[Tuple[np.ndarray, np.ndarray]], item_ids: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The ``(items, rows)`` of ``supervised`` on the sorted ids
    ``item_ids``, with items as positions in ``item_ids`` (``None`` when
    no item falls there)."""
    if supervised is None or item_ids.size == 0:
        return None
    items, rows = supervised
    local = np.minimum(np.searchsorted(item_ids, items), item_ids.size - 1)
    hit = item_ids[local] == items
    if not hit.any():
        return None
    return local[hit], rows[hit]


# ---------------------------------------------------------------------- tasks
#
# Module-level task functions (picklable for process and remote lanes),
# run as ``func(shards, task)`` against the lane-resident shard tuple:
# each task names its shard by index and carries only that shard's
# per-sweep posterior rows, in the kernel dtype, and returns arrays in
# the kernel dtype that hold no subnormal of it.  Two pieces of lane
# state a task may read, each named by a token the program minted: the
# ϕ rows the shard kernel last took statistics of, and the ``E[ln ψ]``
# views the sweep's first task rearranged.  A lane without them raises
# :class:`HeldRowsMissing`, so a result never depends on which lane ran
# the previous task.


class HeldRowsMissing(Exception):
    """A task named lane state — ϕ rows or a sweep's ``E[ln ψ]`` views —
    its lane does not hold (a replacement daemon, a plan re-broadcast
    after eviction, a speculative re-dispatch, a re-armed process lane).
    Internal control flow — the kernel resends the call with the arrays;
    it never escapes to callers."""

    def __init__(self, token: str) -> None:
        super().__init__(token)
        self.token = token


def _begin_sweep(kernel: SweepKernel, sweep) -> None:
    """Give a lane kernel the sweep's ``E[ln ψ]`` views: ``sweep`` is
    ``(E[ln ψ], token)``, rearranged here and kept under the token, or the
    token alone of views an earlier task of the sweep left."""
    if isinstance(sweep, str):
        if kernel.named_sweep != sweep:
            raise HeldRowsMissing(sweep)
        return
    e_log_psi, token = sweep
    kernel.begin_sweep(e_log_psi)
    kernel.named_sweep = token


def _worker_scores_task(shards, task) -> np.ndarray:
    """κ-update data term of one shard, over the shard's worker space.

    The task carries the shard's ϕ rows, or the token of the rows (and
    their ``A ϕ``) its kernel holds.
    """
    k, sweep, phi_rows = task
    kernel = shards[k].kernel
    if isinstance(phi_rows, str):
        named = kernel.named_phi
        if named is None or named[0] != phi_rows:
            raise HeldRowsMissing(phi_rows)
        phi_rows = named[1]
    _begin_sweep(kernel, sweep)
    out = np.zeros((kernel.n_workers, kernel.sweep_sizes[1]), dtype=kernel.dtype)
    return flush_subnormals(kernel.add_worker_scores(out, phi_rows))


def _item_scores_task(shards, task) -> np.ndarray:
    """ϕ-update data term of one shard, over the shard's item space."""
    k, sweep, kappa_rows = task
    kernel = shards[k].kernel
    _begin_sweep(kernel, sweep)
    out = np.zeros((kernel.n_items, kernel.sweep_sizes[0]), dtype=kernel.dtype)
    return flush_subnormals(kernel.add_item_scores(out, kappa_rows))


def _cell_statistics_task(shards, task) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 6 sufficient statistics of one shard; the rows stay held under
    the task's token."""
    k, phi_rows, kappa_rows, token = task
    kernel = shards[k].kernel
    counts, mass = kernel.cell_statistics(phi_rows, kappa_rows)
    kernel.named_phi = (token, phi_rows)
    return flush_subnormals(counts), flush_subnormals(mass)


def _update_phi_task(shards, task) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ϕ half of one shard: its ϕ rows and Eq. 6 statistics; the rows stay
    held under the task's token."""
    k, sweep, e_log_tau, kappa_rows, supervised, token = task
    kernel = shards[k].kernel
    _begin_sweep(kernel, sweep)
    phi_rows, counts, mass = kernel.update_phi(e_log_tau, kappa_rows, supervised)
    kernel.named_phi = (token, phi_rows)
    return phi_rows, flush_subnormals(counts), flush_subnormals(mass)


#: process-unique suffix source for broadcast keys (two live kernels must
#: never share a key on the same executor).
_BROADCAST_KEYS = itertools.count()


def _next_broadcast_key() -> str:
    return f"shard-plan-{next(_BROADCAST_KEYS)}"


def _token_prefix() -> str:
    """A kernel's random token prefix: broadcast keys are unique within
    one process only, and a daemon may serve several."""
    return RandomState().bytes(8).hex()


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
    ``update_phi`` / ``data_elbo``) so :class:`~repro.core.inference.VariationalInference`
    and the per-batch SVI path can select it without code changes; merge
    semantics are documented in the module docstring.

    The shard tuple is broadcast to each executor once (on first use) and
    per-sweep tasks carry only ``(shard index, posterior rows)`` through
    ``map_on``.  Methods called without an executor run the same task
    functions in-process, with nothing broadcast anywhere.

    Each statistics pass (:meth:`cell_statistics`, :meth:`update_phi`)
    mints a token and leaves its ϕ rows held by the shard kernels under
    it; :meth:`add_worker_scores` handed that same ϕ array sends the
    token instead of the rows, like :meth:`SweepKernel.add_worker_scores`
    reuses its product.
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
        )
        self.n_items = self.plan.n_items
        self.n_workers = self.plan.n_workers
        self.n_answers = self.plan.n_answers
        self.n_labels = self.plan.n_labels
        self.n_shards = self.plan.n_shards
        #: the sweep's ``E[ln ψ]``, pinned by :meth:`begin_sweep`, its
        #: token, and whether a task has left its views on the lanes.
        self._e_log_psi: Optional[np.ndarray] = None
        self._token_prefix = _token_prefix()
        self._token_serial = 0
        self._sweep_token = ""
        self._sweep_sent = False
        #: ``(ϕ, token)``: the ϕ whose rows the last statistics pass left
        #: held on the shard kernels, and their name.
        self._held: Optional[Tuple[np.ndarray, str]] = None

    # ------------------------------------------------------------ transport

    def __getstate__(self) -> dict:
        # WeakSets and finalizers do not pickle; a clone starts with no
        # lanes installed and a fresh key (sharing the original's key
        # could alias another kernel's broadcast in the unpickling
        # process).
        state = self.__dict__.copy()
        state["_installed"] = None
        state["_finalizer"] = None
        state["_held"] = None
        state["_sweep_sent"] = False
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._installed = weakref.WeakSet()
        self._broadcast_key = _next_broadcast_key()
        self._token_prefix = _token_prefix()
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

    def _next_token(self) -> str:
        self._token_serial += 1
        return f"{self._token_prefix}-{self._token_serial}"

    # ---------------------------------------------------------------- sweep

    def begin_sweep(self, e_log_psi: np.ndarray) -> None:
        """Pin the sweep's ``E[ln ψ]`` in the kernel dtype and mint the
        sweep's token: the sweep's first task carries the array to each
        shard kernel, and its later tasks name the views it left."""
        self._e_log_psi = np.ascontiguousarray(cast_flushed(e_log_psi, self.dtype))
        self._sweep_token = self._next_token()
        self._sweep_sent = False

    def _sweep(self, resend: bool):
        """What a score task carries for the sweep's ``E[ln ψ]``."""
        if self._e_log_psi is None:
            raise InferenceError("begin_sweep must be called before score accumulation")
        if self._sweep_sent and not resend:
            return self._sweep_token
        return (self._e_log_psi, self._sweep_token)

    def _fan_out_named(self, executor: Optional[Executor], func, tasks):
        """Run ``tasks(resend)`` as :meth:`_fan_out` does.  The tasks may
        name lane state (held ϕ rows, the sweep's ``E[ln ψ]`` views); if a
        lane lacks it, they are resent once with the arrays."""
        try:
            pieces = self._fan_out(executor, func, tasks(False))
        except HeldRowsMissing:
            pieces = self._fan_out(executor, func, tasks(True))
        self._sweep_sent = True
        return pieces

    def _item_rows(self, phi: np.ndarray) -> List[np.ndarray]:
        return [cast_flushed(phi[shard.item_ids], self.dtype) for shard in self.plan.shards]

    def _worker_rows(self, kappa: np.ndarray) -> List[np.ndarray]:
        return [
            cast_flushed(kappa[shard.worker_ids], self.dtype) for shard in self.plan.shards
        ]

    def add_worker_scores(
        self, out: np.ndarray, phi: np.ndarray, executor: Optional[Executor] = None
    ) -> np.ndarray:
        """``out[u] += Σ_{n: u_n=u} Σ_t ϕ[i_n, t] L[n, t, ·]``, shard-merged.

        ``phi`` travels as a token when it is the ϕ of the last statistics
        pass; if a lane lost those rows, the call is resent with them.
        """
        held = self._held
        token = held[1] if held is not None and held[0] is phi else None

        def tasks(resend: bool):
            sweep = self._sweep(resend)
            if token is None or resend:
                rows = self._item_rows(phi)
            else:
                rows = [token] * self.n_shards
            return [(shard.index, sweep, r) for shard, r in zip(self.plan.shards, rows)]

        pieces = self._fan_out_named(executor, _worker_scores_task, tasks)
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
        """``out[i] += Σ_{n: i_n=i} Σ_m κ[u_n, m] L[n, ·, m]``; disjoint merge."""
        rows = self._worker_rows(kappa)

        def tasks(resend: bool):
            sweep = self._sweep(resend)
            return [(shard.index, sweep, r) for shard, r in zip(self.plan.shards, rows)]

        pieces = self._fan_out_named(executor, _item_scores_task, tasks)
        return merge_scores(
            out,
            [
                (shard.item_ids, scores)
                for shard, scores in zip(self.plan.shards, pieces)
            ],
        )

    # ------------------------------------------------------------ statistics

    def _no_statistics(self, phi, kappa) -> Tuple[np.ndarray, np.ndarray]:
        """The statistics of a plan without shards (no answers): zeros."""
        t, m = phi.shape[1], kappa.shape[1]
        return np.zeros((t, m, self.n_labels), dtype=np.float64), np.zeros((t, m), dtype=np.float64)

    def cell_statistics(
        self, phi: np.ndarray, kappa: np.ndarray, executor: Optional[Executor] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 6 sufficient statistics merged over shards (fixed order)."""
        if not self.plan.shards:
            return self._no_statistics(phi, kappa)
        token = self._next_token()
        tasks = [
            (shard.index, phi_rows, kappa_rows, token)
            for shard, phi_rows, kappa_rows in zip(
                self.plan.shards, self._item_rows(phi), self._worker_rows(kappa)
            )
        ]
        pieces = self._fan_out(executor, _cell_statistics_task, tasks)
        self._held = (phi, token)
        return merge_cell_statistics(pieces)

    def update_phi(
        self,
        e_log_tau: np.ndarray,
        kappa: np.ndarray,
        supervised: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        executor: Optional[Executor] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`SweepKernel.update_phi` in one task per shard.

        Each task returns its items' ϕ rows and its statistics; the rows
        scatter disjointly into a float64 ϕ, the statistics merge in fixed
        shard order, and the items no shard holds get their rows here,
        in the kernel dtype as a shard would.
        """
        token = self._next_token()
        e_log_tau = cast_flushed(e_log_tau, self.dtype)
        if supervised is not None:
            supervised = (supervised[0], cast_flushed(supervised[1], self.dtype))
        worker_rows = self._worker_rows(kappa)

        def tasks(resend: bool):
            sweep = self._sweep(resend)
            return [
                (
                    shard.index,
                    sweep,
                    e_log_tau,
                    kappa_rows,
                    _local_rows(supervised, shard.item_ids),
                    token,
                )
                for shard, kappa_rows in zip(self.plan.shards, worker_rows)
            ]

        pieces = self._fan_out_named(executor, _update_phi_task, tasks)
        phi = np.empty((self.n_items, e_log_tau.shape[0]), dtype=np.float64)
        for shard, (rows, _, _) in zip(self.plan.shards, pieces):
            phi[shard.item_ids] = rows
        unanswered = self.plan.unanswered_items
        if unanswered.size:
            phi[unanswered] = cluster_responsibilities(
                np.tile(e_log_tau, (unanswered.size, 1)),
                _local_rows(supervised, unanswered),
            )
        self._held = (phi, token)
        if not pieces:
            return (phi,) + self._no_statistics(phi, kappa)
        counts, mass = merge_cell_statistics([piece[1:] for piece in pieces])
        return phi, counts, mass

    def data_elbo(
        self,
        phi: np.ndarray,
        kappa: np.ndarray,
        e_log_psi: np.ndarray,
        executor: Optional[Executor] = None,
    ) -> float:
        """``E[ln p(x | z, l, ψ)] = Σ counts · E[ln ψ]``, over float64
        statistics taken in process on the plan's shards (fixed order)."""
        counts = np.zeros(np.shape(e_log_psi), dtype=np.float64)
        for shard in self.plan.shards:
            counts += shard.kernel.exact_counts(
                phi[shard.item_ids], kappa[shard.worker_ids]
            )
        return float(np.vdot(counts, e_log_psi))


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
    realised count back from ``kernel.n_shards``).  Every shard works on
    the global cluster truncation, so the backend choice changes only
    summation order, never the posterior.  ``CPAConfig`` already
    validated the backend name.

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
        )
    return SweepKernel(
        items,
        workers,
        indicators,
        n_items=n_items,
        n_workers=n_workers,
        dtype=dtype,
    )
