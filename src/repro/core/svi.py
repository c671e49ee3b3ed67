"""Stochastic variational inference for CPA (paper Alg. 2 and Alg. 3).

Answers arrive as :class:`~repro.data.streams.AnswerBatch` objects; each
batch triggers

1. a **MAP phase** — for each batch worker, the community
   responsibilities ``κ`` (Eq. 2 on the batch answers), then the
   per-item cluster evidence ``a_it`` (Eq. 15's data term) under the
   fresh ``κ``, plus the Eq. 6 cell statistics;
2. a **REDUCE phase** — the canonical-µ update of ``ϕ`` (Eqs. 15–17),
   and damped natural-gradient steps on all globals with learning rate
   ``ω_b = (1 + b)^-r`` (Eqs. 9–14, 18–20).

The MAP phase runs through the same sweep-kernel seam as batch VI
(:func:`~repro.core.sharding.build_sweep_kernel` over the batch-local
index spaces, DESIGN.md §6): a fused
:class:`~repro.core.kernels.SweepKernel`, or a
:class:`~repro.core.sharding.ShardedSweepKernel` when the config selects
sharding for the batch's answer count.  With the default
:class:`~repro.utils.parallel.SerialExecutor` this *is* paper Alg. 2;
with a parallel executor the kernel fans its contractions out over the
lanes and reduces the partials centrally, which is Alg. 3's MAP/REDUCE
shape with the work split by pattern range or item shard instead of by
worker (DESIGN.md §4.4 "Work partition").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import CPAConfig
from repro.core.expectations import (
    expected_log_phi_beta,
    expected_log_pi,
    expected_log_psi,
    expected_log_tau,
)
from repro.core.kernels import (
    SweepKernel,
    mask_cluster_scores,
    segment_sum,
    truncate_rows,
)
from repro.core.natural_gradients import (
    compute_global_targets,
    interpolate,
    learning_rate,
)
from repro.core.sharding import ShardedSweepKernel, build_sweep_kernel
from repro.core.state import CPAState, initialize_state
from repro.data.dataset import GroundTruth
from repro.data.streams import AnswerBatch
from repro.errors import ValidationError
from repro.utils.math import flush_subnormals, log_normalize_rows
from repro.utils.parallel import Executor
from repro.utils.random import Seed

#: the per-batch kernel: fused or sharded, one sweep interface.
_Kernel = Union[SweepKernel, ShardedSweepKernel]


@dataclass(frozen=True)
class _BatchData:
    """Dense views of one batch, with answers sorted by batch worker.

    ``item_local`` / ``worker_local`` index the batch-local item and
    worker spaces (``batch_items`` / ``batch_workers``) that the per-batch
    sweep kernel runs over; the kernel deduplicates the label-set
    patterns itself.  Sorting by worker makes each worker's answers a
    contiguous slice (``worker_offsets``), the layout the frozen seed
    MAP phase of :mod:`repro.core.reference` chunks on.
    """

    items: np.ndarray  # (N_b,) global item ids, worker-sorted
    indicators: np.ndarray  # (N_b, C), worker-sorted
    batch_workers: np.ndarray  # distinct global worker ids (sorted)
    batch_items: np.ndarray  # distinct global item ids (sorted)
    worker_local: np.ndarray  # (N_b,) local worker index per answer
    item_local: np.ndarray  # (N_b,) local item index per answer
    worker_offsets: np.ndarray  # (len(batch_workers)+1,) slice boundaries


def _prepare_batch(
    batch: AnswerBatch,
    dtype: np.dtype = np.float64,
    n_labels: Optional[int] = None,
) -> Optional[_BatchData]:
    items, workers, indicators = batch.matrix.to_arrays()
    if items.size == 0:
        return None
    indicators = np.ascontiguousarray(indicators, dtype=dtype)
    if n_labels is not None and indicators.shape[1] < n_labels:
        # A batch minted before the engine grew its label space (see
        # StochasticInference.grow) carries narrower indicator rows; the
        # missing labels were simply never answered — pad with zeros.
        padded = np.zeros((indicators.shape[0], n_labels), dtype=dtype)
        padded[:, : indicators.shape[1]] = indicators
        indicators = padded
    batch_workers, worker_local = np.unique(workers, return_inverse=True)
    batch_items, item_local = np.unique(items, return_inverse=True)
    order = np.argsort(worker_local, kind="stable")
    worker_local = worker_local[order]
    offsets = np.searchsorted(
        worker_local, np.arange(batch_workers.size + 1)
    ).astype(np.int64)
    return _BatchData(
        items=items[order],
        indicators=indicators[order],
        batch_workers=batch_workers,
        batch_items=batch_items,
        worker_local=worker_local,
        item_local=item_local[order],
        worker_offsets=offsets,
    )


class StochasticInference:
    """Incremental CPA learner (paper Alg. 2; Alg. 3 with a parallel executor).

    Parameters
    ----------
    config:
        Hyperparameters; ``config.forgetting_rate`` is the ``r`` of the
        learning-rate schedule, ``config.svi_iterations`` the number of
        local refinement passes per batch.
    n_items, n_workers, n_labels:
        Full index-space sizes (the paper's ``I``, ``U``, ``C`` scaling
        constants — parameters must stay aligned across batches).
    truth:
        Optional observed true labels for items that appear in batches.
    executor:
        Backend for the MAP phase.  ``None`` defers to
        ``config.resolve_executor()`` — serial unless the config selects
        a pool or remote lanes (``CPAConfig.executor``).
    total_answers_hint:
        Expected total number of answers of the full stream.  The paper's
        ``U / U_b`` gradient scaling assumes each batch carries *whole
        workers* (Alg. 2 fetches "the answers of users U_b"); for streams
        that split a worker's answers across batches (arrival fractions,
        fixed-size answer batches) that scale underestimates the full-data
        statistics by up to the batch count.  When the hint is given, the
        scale ``N_total / N_b`` is used instead, which is correct for any
        batching policy.
    """

    def __init__(
        self,
        config: CPAConfig,
        n_items: int,
        n_workers: int,
        n_labels: int,
        truth: Optional[GroundTruth] = None,
        seed: Seed = None,
        executor: Optional[Executor] = None,
        total_answers_hint: Optional[int] = None,
    ) -> None:
        self.config = config
        self.n_items = n_items
        self.n_workers = n_workers
        self.n_labels = n_labels
        # explicit executor wins; else the config's declarative selection
        # (serial by default — see VariationalInference.__init__)
        self.executor = (
            executor if executor is not None else config.resolve_executor()
        )
        self.state = initialize_state(config, n_items, n_workers, n_labels, seed=seed)
        self.state.sync_mu_from_phi()
        self._seed = seed
        self._seeded = False
        self._batch_kernel_cache: Optional[Tuple[_BatchData, _Kernel]] = None
        self._truth = truth
        self.total_answers_hint = total_answers_hint
        if truth is not None and len(truth) > 0:
            self.truth_indicator = truth.to_indicator_matrix()
            mask = np.zeros(n_items, dtype=bool)
            mask[truth.known_items()] = True
            self.truth_mask = mask
        else:
            self.truth_indicator = np.zeros((n_items, n_labels), dtype=np.float64)
            self.truth_mask = np.zeros(n_items, dtype=bool)

    # -------------------------------------------------------------- checkpoints

    def checkpoint(self) -> dict:
        """Serializable snapshot of the engine's posterior and bookkeeping.

        The payload (see :mod:`repro.core.checkpoint`) carries the full
        variational state plus ``batches_seen`` and the symmetry-breaking
        ``seeded`` flag — everything :meth:`restore` needs to continue the
        SVI trajectory bitwise on another engine (or after a restart).
        """
        from repro.core.checkpoint import checkpoint_payload

        return checkpoint_payload(self.state, seeded=self._seeded)

    def restore(self, payload: dict) -> None:
        """Adopt a :meth:`checkpoint` payload as the engine's state.

        The checkpoint's index spaces must not exceed the engine's; a
        smaller checkpoint (taken before new items/workers/labels
        appeared) is grown to the engine's spaces via
        :func:`repro.core.checkpoint.grow_state`.  Per-batch caches are
        dropped — they key on batch identity and would go stale.
        """
        from repro.core.checkpoint import grow_state, state_from_payload

        state, seeded = state_from_payload(payload)
        if (state.n_items, state.n_workers, state.n_labels) != (
            self.n_items,
            self.n_workers,
            self.n_labels,
        ):
            state = grow_state(
                state,
                self.config,
                self.n_items,
                self.n_workers,
                self.n_labels,
                seed=self._seed,
            )
        if state.mu is None:
            state.sync_mu_from_phi()
        self.state = state
        self._seeded = seeded
        self._drop_batch_caches()

    def grow(self, n_items: int, n_workers: int, n_labels: int) -> None:
        """Widen the engine's index spaces mid-stream (never shrinks).

        New items/workers/labels observed after construction are absorbed
        by growing the state (:func:`repro.core.checkpoint.grow_state`)
        and padding the supervision arrays; subsequent batches may then
        reference the new ids.
        """
        from repro.core.checkpoint import grow_state

        self.state = grow_state(
            self.state, self.config, n_items, n_workers, n_labels, seed=self._seed
        )
        if self.state.mu is None:
            self.state.sync_mu_from_phi()
        if n_labels > self.n_labels or n_items > self.n_items:
            indicator = np.zeros((n_items, n_labels), dtype=np.float64)
            indicator[: self.n_items, : self.n_labels] = self.truth_indicator
            self.truth_indicator = indicator
            mask = np.zeros(n_items, dtype=bool)
            mask[: self.n_items] = self.truth_mask
            self.truth_mask = mask
        self.n_items = n_items
        self.n_workers = n_workers
        self.n_labels = n_labels
        self._drop_batch_caches()

    def _drop_batch_caches(self) -> None:
        """Forget the per-batch kernel (batch identity no longer recurs)."""
        if self._batch_kernel_cache is not None:
            self._batch_kernel_cache[1].evict()
            self._batch_kernel_cache = None

    # ------------------------------------------------------------------ stream

    def fit_stream(self, batches: Iterable[AnswerBatch]) -> CPAState:
        """Consume an entire batch stream; returns the final state."""
        for batch in batches:
            self.process_batch(batch)
        return self.state

    def process_batch(self, batch: AnswerBatch) -> float:
        """One SVI step (paper Alg. 2 body); returns the learning rate used.

        Empty batches advance the batch counter but change nothing.
        """
        data = _prepare_batch(batch, self.config.resolve_dtype(), self.n_labels)
        self.state.batches_seen += 1
        rate = learning_rate(self.state.batches_seen, self.config.forgetting_rate)
        if data is None:
            return rate
        if not self._seeded:
            self._seed_from_first_batch(data)
            self._seeded = True

        state = self.state
        e_log_pi = expected_log_pi(state.rho)
        e_log_tau = expected_log_tau(state.ups)
        e_log_psi = expected_log_psi(state.lam)

        worker_scale = self._gradient_scale(data)
        item_scale = max(1.0, self.n_items / data.batch_items.size)

        phi_batch = state.phi[data.batch_items]  # provisional (I_b, T)
        kappa_batch = state.kappa[data.batch_workers]
        kappa_mass = None
        mu_target = np.zeros(
            (data.batch_items.size, state.n_clusters - 1), dtype=np.float64
        )
        for _ in range(self.config.svi_iterations):
            kappa_batch, evidence, kappa_mass = self._map_reduce(
                data, phi_batch, e_log_pi, e_log_psi
            )
            scores = np.tile(e_log_tau, (data.batch_items.size, 1))
            scores += worker_scale * evidence
            scores += self._supervised_scores(data)
            limits = self._batch_cluster_limits(data)
            if limits is not None:
                # Shard-local truncation (DESIGN.md §6): out-of-window
                # clusters received no evidence from the truncated shard,
                # so their prior-only scores would wrongly dominate the
                # in-window (negative log-likelihood) ones.  The mask's
                # finite fill keeps µ well-defined (µ is shift-invariant
                # per row); the projection removes the residual
                # ``exp(-margin)`` leak so the provisional ϕ feeding the
                # windowed statistics is exactly window-supported.
                mask_cluster_scores(scores, limits)
                mu_target = scores[:, :-1] - scores[:, -1:]
                phi_batch = truncate_rows(log_normalize_rows(scores), limits)
            else:
                mu_target = scores[:, :-1] - scores[:, -1:]
                phi_batch = log_normalize_rows(scores)

        # ---- REDUCE: commit locals, damped global steps -------------------
        state.kappa[data.batch_workers] = kappa_batch
        assert state.mu is not None
        state.mu[data.batch_items] = interpolate(
            state.mu[data.batch_items], mu_target, rate
        )
        state.sync_phi_from_mu()

        # Cell statistics are taken under the committed damped ϕ, not the
        # provisional (undamped) ϕ of the local loop, so single noisy batch
        # assignments cannot drag the global profiles.
        assert kappa_mass is not None
        counts, mass = self._batch_cell_statistics(
            data, state.phi[data.batch_items], kappa_batch
        )
        zeta_counts = self._batch_zeta_counts(data, state.phi[data.batch_items])
        targets = compute_global_targets(
            self.config,
            batch_counts=counts,
            batch_mass=mass,
            batch_kappa_mass=kappa_mass,
            batch_phi_mass=state.phi[data.batch_items].sum(axis=0),
            batch_zeta_counts=zeta_counts,
            worker_scale=worker_scale,
            item_scale=item_scale,
        )
        if self.config.svi_coverage_correction:
            # Scale each component's step by the share of its answer mass
            # this batch observed: components absent from the batch keep
            # their parameters instead of decaying to the prior (see
            # CPAConfig.svi_coverage_correction).
            eps = 1e-9
            cell_cov = np.minimum(
                1.0, worker_scale * mass / np.maximum(state.cell_mass, eps)
            )  # (T, M)
            cluster_cov = np.minimum(
                1.0,
                worker_scale * mass.sum(axis=1)
                / np.maximum(state.cell_mass.sum(axis=1), eps),
            )  # (T,)
            community_cov = np.minimum(
                1.0,
                worker_scale * mass.sum(axis=0)
                / np.maximum(state.cell_mass.sum(axis=0), eps),
            )  # (M,)
            lam_rate = rate * cell_cov[:, :, None]
            state.lam = (1.0 - lam_rate) * state.lam + lam_rate * targets.lam
            cm_rate = rate * cell_cov
            state.cell_mass = (
                (1.0 - cm_rate) * state.cell_mass + cm_rate * targets.cell_mass
            )
            rho_rate = rate * community_cov[:-1, None]
            state.rho = (1.0 - rho_rate) * state.rho + rho_rate * targets.rho
            ups_rate = rate * cluster_cov[:-1, None]
            state.ups = (1.0 - ups_rate) * state.ups + ups_rate * targets.ups
            zeta_rate = rate * cluster_cov[:, None, None]
            state.zeta = (1.0 - zeta_rate) * state.zeta + zeta_rate * targets.zeta
        else:
            state.lam = interpolate(state.lam, targets.lam, rate)
            state.cell_mass = interpolate(state.cell_mass, targets.cell_mass, rate)
            state.rho = interpolate(state.rho, targets.rho, rate)
            state.ups = interpolate(state.ups, targets.ups, rate)
            state.zeta = interpolate(state.zeta, targets.zeta, rate)
        return rate

    def _gradient_scale(self, data: _BatchData) -> float:
        """Gradient scale for the batch (see ``total_answers_hint``)."""
        if self.total_answers_hint is not None and data.items.size > 0:
            return max(1.0, self.total_answers_hint / data.items.size)
        return max(1.0, self.n_workers / data.batch_workers.size)

    def refreshed_state(self, matrix, sweeps: int = 2) -> CPAState:
        """Posterior refresh for online prediction (paper §4.1).

        The paper instantiates labels from "the corresponding approximated
        posterior distributions of model variables" regenerated after each
        batch; concretely we run ``sweeps`` warm-started coordinate-ascent
        sweeps over the answers accumulated so far, starting from a *copy*
        of the online state (the SVI trajectory itself is untouched).

        Truncated-DP stochastic trajectories can occasionally collapse
        components on very small streams (rich-get-richer churn); to guard
        against predicting from a collapsed basin, the same sweep budget is
        also spent from a fresh signature-seeded start and the candidate
        with the higher ELBO is returned — plain variational model
        selection.  The total cost is a handful of data scans, far below
        the tens of scans an offline refit needs, preserving the paper's
        runtime hierarchy.
        """
        from repro.core.inference import VariationalInference

        sweeps = max(1, sweeps)
        warm = VariationalInference(
            self.config, matrix, truth=self._truth, seed=self._seed
        )
        fresh_state = warm.state.copy()  # signature-seeded init
        warm.state = self.state.copy()
        for _ in range(sweeps):
            warm.sweep()
        warm_elbo = warm.elbo()
        warm_state = warm.state

        warm.state = fresh_state
        for _ in range(sweeps):
            warm.sweep()
        if warm.elbo() > warm_elbo:
            return warm.state
        return warm_state

    def _seed_from_first_batch(self, data: _BatchData) -> None:
        """Symmetry-breaking initialisation from the first batch's answers.

        The truncated-DP variational state collapses onto its first
        components when started uninformed (see
        :func:`repro.core.state._farthest_point_responsibilities`); the
        first batch provides the signatures to seed responsibilities, and
        the global parameters are set to the batch's scaled statistics so
        subsequent damped steps refine — rather than erase — the seeded
        structure.
        """
        global_workers = data.batch_workers[data.worker_local]
        item_sig = segment_sum(data.indicators, data.items, self.n_items)
        worker_sig = segment_sum(data.indicators, global_workers, self.n_workers)

        seeded = initialize_state(
            self.config,
            self.n_items,
            self.n_workers,
            self.n_labels,
            seed=self._seed,
            item_signatures=item_sig,
            worker_signatures=worker_sig,
        )
        batches_seen = self.state.batches_seen
        self.state = seeded
        self.state.batches_seen = batches_seen
        self.state.sync_mu_from_phi()

        # Align the globals with the seeded responsibilities (the online
        # analogue of batch VI's init-consistency pass).
        phi_batch = self.state.phi[data.batch_items]
        kappa_batch = self.state.kappa[data.batch_workers]
        counts, mass = self._batch_cell_statistics(data, phi_batch, kappa_batch)
        worker_scale = self._gradient_scale(data)
        item_scale = max(1.0, self.n_items / data.batch_items.size)
        targets = compute_global_targets(
            self.config,
            batch_counts=counts,
            batch_mass=mass,
            batch_kappa_mass=kappa_batch.sum(axis=0),
            batch_phi_mass=phi_batch.sum(axis=0),
            batch_zeta_counts=self._batch_zeta_counts(data, phi_batch),
            worker_scale=worker_scale,
            item_scale=item_scale,
        )
        self.state.lam = targets.lam
        self.state.cell_mass = targets.cell_mass
        self.state.rho = targets.rho
        self.state.ups = targets.ups
        self.state.zeta = targets.zeta

    # ------------------------------------------------------------------ phases

    def _batch_kernel(self, data: _BatchData) -> _Kernel:
        """Per-batch sweep kernel over the batch-local index spaces.

        Built by :func:`~repro.core.sharding.build_sweep_kernel`, so the
        backend is resolved per batch: ``backend="auto"`` keeps ordinary
        paper-sized batches fused while bulk arrival increments cross the
        sharded volume threshold.  Cached on batch identity so the
        ``svi_iterations`` local passes and the post-damping statistics
        share one pattern table (and, when sharded, one shard plan and
        one broadcast).  The previous batch's kernel is retired here, so
        a sharded plan cannot stay resident on the lanes for the rest of
        the stream.
        """
        cache = self._batch_kernel_cache
        if cache is not None and cache[0] is data:
            return cache[1]
        if cache is not None:
            cache[1].evict()
        kernel = build_sweep_kernel(
            self.config,
            data.item_local,
            data.worker_local,
            data.indicators,
            n_items=int(data.batch_items.size),
            n_workers=int(data.batch_workers.size),
            executor=self.executor,
        )
        self._batch_kernel_cache = (data, kernel)
        return kernel

    def _windowed_kernel(
        self, data: _BatchData, phi_batch: np.ndarray
    ) -> Tuple[_Kernel, np.ndarray]:
        """The batch's kernel, plus ``phi_batch`` projected onto its windows.

        The windowed contractions of shard-local truncation assume
        window-supported ϕ rows; the incoming ϕ (global state sliced to
        the batch, or the µ-synced commit) leaks mass outside this
        batch's shard windows, which truncation would silently *drop*
        instead of condition on.  Projecting first renormalises each row
        over its window, so the κ update and the Eq. 6 statistics see
        proper distributions.  Without binding windows ``phi_batch`` is
        returned as is.
        """
        kernel = self._batch_kernel(data)
        limits = kernel.cluster_limits(self.state.n_clusters)
        if limits is not None:
            phi_batch = truncate_rows(phi_batch, limits)
        return kernel, phi_batch

    def _batch_cluster_limits(self, data: _BatchData) -> Optional[np.ndarray]:
        """Cluster-window limits of the current batch's kernel.

        ``None`` whenever the batch ran fused, its shard windows do not
        bind, or no kernel was built for it (an engine that overrides
        :meth:`_map_reduce` without one) — the local ϕ update is then
        exactly the historical one.  The limits index *batch-local* item
        rows, matching the ``scores`` / ``phi_batch`` arrays of the local
        loop.
        """
        cache = self._batch_kernel_cache
        if cache is None or cache[0] is not data:
            return None
        return cache[1].cluster_limits(self.state.n_clusters)

    def _map_reduce(
        self,
        data: _BatchData,
        phi_batch: np.ndarray,
        e_log_pi: np.ndarray,
        e_log_psi: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """MAP/REDUCE of one batch through the batch's sweep kernel.

        κ update (Eq. 2), item evidence under the fresh κ (Eq. 15's data
        term) and κ's community mass — the batch-VI sweep body on the
        batch-local spaces, minus the Eq. 6 statistics, which
        :meth:`process_batch` takes once under the damped ϕ.
        ``begin_sweep`` is identity-cached, so the local passes sharing
        one ``e_log_psi`` evaluate the pattern likelihood once per batch.
        κ is cast to the state dtype, which keeps a float32 state float32
        on every backend, and flushed after the cast: a float64 1e-40 is a
        float32 subnormal.
        """
        kernel, phi_batch = self._windowed_kernel(data, phi_batch)
        dtype = self.state.lam.dtype
        kernel.begin_sweep(e_log_psi)
        scores = np.tile(e_log_pi, (data.batch_workers.size, 1))
        kernel.add_worker_scores(scores, phi_batch, self.executor)
        kappa_batch = flush_subnormals(
            log_normalize_rows(scores).astype(dtype, copy=False)
        )
        evidence = np.zeros((data.batch_items.size, self.state.n_clusters), dtype=dtype)
        kernel.add_item_scores(evidence, kappa_batch, self.executor)
        return kappa_batch, evidence, kappa_batch.sum(axis=0)

    def _batch_cell_statistics(
        self, data: _BatchData, phi_batch: np.ndarray, kappa_batch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 6 sufficient statistics of one batch (seeding, post-damping)."""
        kernel, phi_batch = self._windowed_kernel(data, phi_batch)
        return kernel.cell_statistics(phi_batch, kappa_batch, self.executor)

    def _supervised_scores(self, data: _BatchData) -> np.ndarray:
        """Observed-truth contribution to the batch items' cluster scores."""
        scores = np.zeros(
            (data.batch_items.size, self.state.n_clusters), dtype=np.float64
        )
        observed = self.truth_mask[data.batch_items]
        if observed.any():
            e_log_phi, e_log_phi_c = expected_log_phi_beta(self.state.zeta)
            y = self.truth_indicator[data.batch_items[observed]]
            scores[observed] = y @ e_log_phi.T + (1.0 - y) @ e_log_phi_c.T
        return scores

    def _batch_zeta_counts(
        self, data: _BatchData, phi_batch: np.ndarray
    ) -> np.ndarray:
        """Observed-truth presence/absence counts for Eq. 10."""
        zeta_counts = np.zeros(
            (self.state.n_clusters, self.n_labels, 2), dtype=np.float64
        )
        observed = self.truth_mask[data.batch_items]
        if observed.any():
            phi_obs = phi_batch[observed]
            y_obs = self.truth_indicator[data.batch_items[observed]]
            zeta_counts[..., 0] = phi_obs.T @ y_obs
            zeta_counts[..., 1] = phi_obs.T @ (1.0 - y_obs)
        return zeta_counts


def stream_from_matrix(
    matrix,
    *,
    answers_per_batch: int = 0,
    workers_per_batch: int = 0,
    seed: Seed = None,
) -> List[AnswerBatch]:
    """Convenience: materialise a batch list from an answer matrix.

    Exactly one of ``answers_per_batch`` / ``workers_per_batch`` must be
    positive; the policies mirror :class:`repro.data.streams.AnswerStream`.
    """
    from repro.data.streams import AnswerStream

    if (answers_per_batch > 0) == (workers_per_batch > 0):
        raise ValidationError(
            "specify exactly one of answers_per_batch / workers_per_batch"
        )
    stream = AnswerStream(matrix, seed=seed)
    if answers_per_batch > 0:
        return list(stream.by_answers(answers_per_batch))
    return list(stream.by_workers(workers_per_batch))
