"""Batch coordinate-ascent variational inference for CPA (paper Alg. 1).

One sweep performs, in order:

1. **Local updates** — worker-community responsibilities ``κ`` (paper
   Eq. 2) and item-cluster responsibilities ``ϕ`` (Eq. 3, *corrected* to
   include the answer-likelihood term; see DESIGN.md §4.1).
2. **Global updates** — stick posteriors ``ρ`` (Eq. 4) and ``υ`` (Eq. 5),
   answer-profile posteriors ``λ`` (Eq. 6), and label-profile posteriors
   ``ζ`` (Eq. 7; per-label Beta form, DESIGN.md §4.3).

Every update is an exact coordinate maximisation of the evidence lower
bound, so the ELBO computed by :meth:`VariationalInference.elbo` is
non-decreasing across sweeps — a property the test-suite asserts.

All data-dependent terms are evaluated through the fused
:class:`~repro.core.kernels.SweepKernel` (DESIGN.md §6): the answer
log-likelihood tensor is computed once per sweep in pattern space and
feeds the κ update, the ϕ update, the λ/cell-mass statistics, and the
ELBO; scatters go through sorted segment reductions; and the chunked
local updates fan out over the configured
:class:`~repro.utils.parallel.Executor`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
from scipy.special import digamma, gammaln

from repro.core.config import CPAConfig
from repro.core.expectations import (
    expected_log_phi_beta,
    expected_log_pi,
    expected_log_psi,
    expected_log_tau,
)
from repro.core.kernels import mask_cluster_scores, segment_sum, truncate_rows
from repro.core.sharding import ShardedSweepKernel, build_sweep_kernel
from repro.core.state import CPAState, initialize_state
from repro.data.answers import AnswerMatrix
from repro.data.dataset import GroundTruth
from repro.errors import ConvergenceWarning, InferenceError
from repro.utils.math import log_normalize_rows
from repro.utils.parallel import Executor
from repro.utils.random import Seed


@dataclass
class InferenceResult:
    """Outcome of a full VI run."""

    state: CPAState
    converged: bool
    n_iterations: int
    elbo_history: List[float] = field(default_factory=list)
    delta_history: List[float] = field(default_factory=list)

    @property
    def final_elbo(self) -> float:
        """Last recorded ELBO value (``nan`` if tracking was disabled)."""
        return self.elbo_history[-1] if self.elbo_history else float("nan")


def _dirichlet_entropy(params: np.ndarray) -> np.ndarray:
    """Entropy of Dirichlet distributions along the last axis."""
    total = params.sum(axis=-1)
    k = params.shape[-1]
    log_b = gammaln(params).sum(axis=-1) - gammaln(total)
    return (
        log_b
        + (total - k) * digamma(total)
        - ((params - 1.0) * digamma(params)).sum(axis=-1)
    )


def _categorical_entropy(probs: np.ndarray) -> float:
    """Total entropy of categorical rows, treating ``0 ln 0 = 0``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0, probs * np.log(probs), 0.0)
    return float(-terms.sum())


class VariationalInference:
    """Runs paper Alg. 1 on a fixed answer matrix.

    Parameters
    ----------
    config:
        Hyperparameters (truncations, priors, stopping rule).
    answers:
        The observed answer matrix ``x``.
    truth:
        Observed true labels ``ȳ`` (may be empty or ``None`` — the default
        evaluation setting of the paper).
    seed:
        Overrides ``config.seed`` for state initialisation.
    executor:
        Backend for the chunked local updates and statistics (Alg. 3's
        MAP/REDUCE shape applied to the batch sweep).  ``None`` defers to
        ``config.resolve_executor()`` — serial unless the config selects
        a pool or remote lanes (``CPAConfig.executor``).
    """

    def __init__(
        self,
        config: CPAConfig,
        answers: AnswerMatrix,
        truth: Optional[GroundTruth] = None,
        seed: Seed = None,
        *,
        fix_singleton_communities: bool = False,
        fix_singleton_clusters: bool = False,
        executor: Optional[Executor] = None,
    ) -> None:
        """``fix_singleton_*`` implement the §5.4 ablations: each worker its
        own community (`No Z`) / each item its own cluster (`No L`), with
        the corresponding responsibilities pinned to the identity."""
        self.fix_singleton_communities = fix_singleton_communities
        self.fix_singleton_clusters = fix_singleton_clusters
        if fix_singleton_communities:
            config = config.with_overrides(
                truncation_communities=answers.n_workers,
                max_truncation=max(config.max_truncation, answers.n_workers),
            )
        if fix_singleton_clusters:
            config = config.with_overrides(
                truncation_clusters=answers.n_items,
                max_truncation=max(
                    config.max_truncation, answers.n_items, answers.n_workers
                ),
                # identity-pinned ϕ is incompatible with shard-local
                # cluster windows (every item must reach its own cluster)
                adaptive_truncation="off",
            )
        self.config = config
        self.answers = answers
        # An explicit executor object wins; otherwise honour the config's
        # declarative selection (serial by default, so the historical
        # behaviour is unchanged; DESIGN.md §6 "Remote lanes").  The
        # engine never closes what it builds here — `self.executor` is
        # public and pooled kinds stay usable across successive fits.
        self.executor = (
            executor if executor is not None else config.resolve_executor()
        )
        self.items, self.workers, self.indicators = answers.to_arrays()
        self.n_items = answers.n_items
        self.n_workers = answers.n_workers
        self.n_labels = answers.n_labels
        # Backend seam (DESIGN.md §6): `config.backend` selects the fused
        # serial kernel, the sharded one (lane-resident by default), or —
        # with "auto" — whichever the answer volume and executor degree
        # favour; all expose the same sweep API.
        self.kernel = build_sweep_kernel(
            config,
            self.items,
            self.workers,
            self.indicators,
            n_items=self.n_items,
            n_workers=self.n_workers,
            executor=self.executor,
        )
        #: the lane count the current shard plan was sized for; when the
        #: executor's degree drifts away from it (worker joined/drained/
        #: excluded) and K is auto, the next sweep re-plans (DESIGN.md §6
        #: "Elastic fleet").
        self._planned_degree = getattr(self.executor, "degree", 1)

        if truth is not None and len(truth) > 0:
            self.truth_indicator = truth.to_indicator_matrix()
            mask = np.zeros(self.n_items, dtype=bool)
            mask[truth.known_items()] = True
            self.truth_mask = mask
        else:
            self.truth_indicator = np.zeros((self.n_items, self.n_labels))
            self.truth_mask = np.zeros(self.n_items, dtype=bool)

        item_sig = segment_sum(self.indicators, self.items, self.n_items)
        worker_sig = segment_sum(self.indicators, self.workers, self.n_workers)
        self.state = initialize_state(
            config,
            self.n_items,
            self.n_workers,
            self.n_labels,
            seed=seed,
            item_signatures=item_sig,
            worker_signatures=worker_sig,
        )
        if fix_singleton_communities:
            self.state.kappa = np.eye(self.n_workers)
        if fix_singleton_clusters:
            self.state.phi = np.eye(self.n_items)
        # Shard-local truncation (DESIGN.md §6): when the sharded kernel
        # carries binding per-shard windows, project the initial ϕ onto
        # them.  With ϕ exactly zero outside every window, each shard's
        # windowed contractions equal the full ones, so every sweep is an
        # exact coordinate-ascent step within the constrained family (and
        # the ELBO stays monotone).
        self._cluster_limits = self.kernel.cluster_limits(self.state.n_clusters)
        if self._cluster_limits is not None:
            self.state.localize_clusters(self._cluster_limits)
        # Make the globals consistent with the seeded responsibilities so
        # the first local sweep sees differentiated profiles instead of
        # the bare prior (which would undo the initialisation).
        self._update_sticks()
        self._update_profiles()
        self._update_label_profiles()

    # ------------------------------------------------------------------ sweeps

    def run(
        self,
        callback: Optional[Callable[[int, float, float], None]] = None,
        track_elbo: bool = True,
    ) -> InferenceResult:
        """Iterate sweeps until the parameter delta drops below tolerance.

        ``callback(iteration, delta, elbo)`` is invoked after each sweep
        (``elbo`` is ``nan`` when tracking is off).  Hitting the iteration
        cap emits a :class:`ConvergenceWarning` instead of failing: a
        near-converged model is still useful for prediction.
        """
        elbo_history: List[float] = []
        delta_history: List[float] = []
        converged = False
        for iteration in range(self.config.max_iterations):
            delta = self.sweep()
            delta_history.append(delta)
            value = self.elbo() if track_elbo else float("nan")
            if track_elbo:
                elbo_history.append(value)
            if callback is not None:
                callback(iteration, delta, value)
            if delta < self.config.tolerance:
                converged = True
                break
        if not converged:
            warnings.warn(
                f"VI stopped at {self.config.max_iterations} iterations "
                f"(last delta {delta_history[-1]:.2e} > tol {self.config.tolerance})",
                ConvergenceWarning,
                stacklevel=2,
            )
        self.state.validate()
        return InferenceResult(
            state=self.state,
            converged=converged,
            n_iterations=len(delta_history),
            elbo_history=elbo_history,
            delta_history=delta_history,
        )

    def replan_shards(self, n_shards: Optional[int] = None) -> int:
        """Re-plan the sharded kernel for the executor's current capacity.

        Retires the current plan (evicting its lane-resident broadcast
        state), rebuilds the kernel with ``n_shards`` shards — default:
        the config's shard rule applied to the executor's *current*
        degree — and re-projects the shard-local truncation windows if
        the new plan carries any.  Merges are fixed-shard-order and
        deterministic, so two engines that re-plan to the same K at the
        same sweep boundary stay bitwise identical regardless of lane
        count (the chaos suite pins this).  Returns the realised shard
        count.  Safe mid-run: the variational state is K-agnostic; only
        the work partition changes.
        """
        degree = getattr(self.executor, "degree", 1)
        if n_shards is None:
            n_shards = self.config.resolve_shards(degree, self.n_items)
        self.kernel.evict()
        self.kernel = build_sweep_kernel(
            self.config,
            self.items,
            self.workers,
            self.indicators,
            n_items=self.n_items,
            n_workers=self.n_workers,
            executor=self.executor,
            n_shards=n_shards,
        )
        self._planned_degree = degree
        self._cluster_limits = self.kernel.cluster_limits(self.state.n_clusters)
        if self._cluster_limits is not None:
            self.state.localize_clusters(self._cluster_limits)
        return getattr(self.kernel, "n_shards", 1)

    def _maybe_replan(self) -> None:
        """Auto re-plan between sweeps when fleet membership changed.

        Fires only for an auto-K sharded plan (``config.n_shards == 0``):
        an explicit K is a user decision that membership changes must not
        silently override, and a fused kernel has no plan to resize.
        """
        if self.config.n_shards != 0:
            return
        if not isinstance(self.kernel, ShardedSweepKernel):
            return  # fused kernel: nothing to re-plan
        degree = getattr(self.executor, "degree", 1)
        if degree != self._planned_degree:
            self.replan_shards()

    def sweep(self) -> float:
        """One full coordinate-ascent sweep; returns the max parameter change.

        The answer log-likelihood is evaluated exactly once (in pattern
        space, :meth:`SweepKernel.begin_sweep`) and shared by the κ and ϕ
        updates and the λ statistics — the seed implementation re-evaluated
        it for each consumer.
        """
        self._maybe_replan()
        state = self.state
        e_log_pi = expected_log_pi(state.rho)
        e_log_tau = expected_log_tau(state.ups)
        e_log_psi = expected_log_psi(state.lam)
        self.kernel.begin_sweep(e_log_psi)

        # --- local update: worker communities (Eq. 2) --------------------
        kappa_delta = 0.0
        if not self.fix_singleton_communities:
            kappa_scores = np.tile(e_log_pi, (self.n_workers, 1))
            self.kernel.add_worker_scores(kappa_scores, state.phi, self.executor)
            new_kappa = log_normalize_rows(kappa_scores)
            kappa_delta = float(np.max(np.abs(new_kappa - state.kappa)))
            state.kappa = new_kappa

        # --- local update: item clusters (corrected Eq. 3) ---------------
        phi_delta = 0.0
        if not self.fix_singleton_clusters:
            phi_scores = np.tile(e_log_tau, (self.n_items, 1))
            self.kernel.add_item_scores(phi_scores, state.kappa, self.executor)
            if self.truth_mask.any():
                e_log_phi, e_log_phi_c = expected_log_phi_beta(state.zeta)
                y = self.truth_indicator[self.truth_mask]
                supervised = y @ e_log_phi.T + (1.0 - y) @ e_log_phi_c.T
                phi_scores[self.truth_mask] += supervised
            if self._cluster_limits is not None:
                # keep each item inside its shard's cluster window: mask
                # the scores (finite fill, SIMD-friendly), then project
                # the normalised rows so ϕ is *exactly* zero outside the
                # window — the invariant that keeps the windowed kernel
                # contractions exact
                mask_cluster_scores(phi_scores, self._cluster_limits)
                new_phi = truncate_rows(
                    log_normalize_rows(phi_scores), self._cluster_limits
                )
            else:
                new_phi = log_normalize_rows(phi_scores)
            phi_delta = float(np.max(np.abs(new_phi - state.phi)))
            state.phi = new_phi

        # --- global updates (Eqs. 4-7) ------------------------------------
        self._update_sticks()
        self._update_profiles()
        self._update_label_profiles()
        return max(kappa_delta, phi_delta)

    def _update_sticks(self) -> None:
        """Stick posteriors ``ρ`` (Eq. 4) and ``υ`` (Eq. 5)."""
        state = self.state
        community_mass = state.kappa.sum(axis=0)  # (M,)
        tail = np.concatenate(
            [np.cumsum(community_mass[::-1])[::-1][1:], [0.0]]
        )  # Σ_{l>m}
        state.rho[:, 0] = 1.0 + community_mass[:-1]
        state.rho[:, 1] = self.config.alpha + tail[:-1]

        cluster_mass = state.phi.sum(axis=0)  # (T,)
        tail = np.concatenate([np.cumsum(cluster_mass[::-1])[::-1][1:], [0.0]])
        state.ups[:, 0] = 1.0 + cluster_mass[:-1]
        state.ups[:, 1] = self.config.epsilon + tail[:-1]

    def _update_profiles(self) -> None:
        """Answer-profile posteriors ``λ`` (Eq. 6) and the cell masses."""
        state = self.state
        counts, mass = self.kernel.cell_statistics(
            state.phi, state.kappa, self.executor
        )
        state.lam = self.config.gamma0 + counts
        state.cell_mass = mass

    def _update_label_profiles(self) -> None:
        """Label-profile posteriors ``ζ`` (Eq. 7, per-label Beta form)."""
        state = self.state
        eta0 = self.config.eta0
        state.zeta = np.full_like(state.zeta, eta0)
        if not self.truth_mask.any():
            return
        phi_obs = state.phi[self.truth_mask]  # (O, T)
        y_obs = self.truth_indicator[self.truth_mask]  # (O, C)
        state.zeta[..., 0] = eta0 + phi_obs.T @ y_obs
        state.zeta[..., 1] = eta0 + phi_obs.T @ (1.0 - y_obs)

    # -------------------------------------------------------------------- elbo

    def elbo(self) -> float:
        """Evidence lower bound, up to additive data constants.

        The dropped constants (multinomial coefficients of the observed
        answer and truth vectors) do not depend on any variational
        parameter, so the value is exact up to a fixed offset and strictly
        comparable across sweeps.
        """
        state = self.state
        cfg = self.config
        e_log_pi = expected_log_pi(state.rho)
        e_log_tau = expected_log_tau(state.ups)
        e_log_psi = expected_log_psi(state.lam)
        e_log_phi, e_log_phi_c = expected_log_phi_beta(state.zeta)

        value = 0.0
        # E[ln p(x | z, l, ψ)] — reuses the pattern-space joint mass cached
        # by the last cell-statistics pass when ϕ/κ are unchanged.
        value += self.kernel.data_elbo(state.phi, state.kappa, e_log_psi, self.executor)
        # E[ln p(z | π)] and E[ln p(l | τ)]
        value += float(state.kappa.sum(axis=0) @ e_log_pi)
        value += float(state.phi.sum(axis=0) @ e_log_tau)
        # E[ln p(y | l, φ)] over observed truth
        if self.truth_mask.any():
            y = self.truth_indicator[self.truth_mask]
            supervised = y @ e_log_phi.T + (1.0 - y) @ e_log_phi_c.T
            value += float(np.sum(state.phi[self.truth_mask] * supervised))
        # Priors on ψ, φ, π', τ'
        t, m, c = state.lam.shape
        value += float(
            t * m * (gammaln(c * cfg.gamma0) - c * gammaln(cfg.gamma0))
            + (cfg.gamma0 - 1.0) * e_log_psi.sum()
        )
        value += float(
            t * c * (gammaln(2 * cfg.eta0) - 2 * gammaln(cfg.eta0))
            + (cfg.eta0 - 1.0) * (e_log_phi.sum() + e_log_phi_c.sum())
        )
        value += self._stick_prior_term(state.rho, cfg.alpha)
        value += self._stick_prior_term(state.ups, cfg.epsilon)
        # Entropies
        value += _categorical_entropy(state.kappa)
        value += _categorical_entropy(state.phi)
        value += float(_dirichlet_entropy(state.lam).sum())
        value += float(_dirichlet_entropy(state.zeta).sum())
        value += float(_dirichlet_entropy(state.rho).sum())
        value += float(_dirichlet_entropy(state.ups).sum())
        if not np.isfinite(value):
            raise InferenceError("ELBO became non-finite; inference diverged")
        return value

    @staticmethod
    def _stick_prior_term(beta_params: np.ndarray, concentration: float) -> float:
        """``Σ_k E[ln Beta(v_k | 1, concentration)]`` under ``q``."""
        total = digamma(beta_params.sum(axis=1))
        e_log_1mv = digamma(beta_params[:, 1]) - total
        k = beta_params.shape[0]
        return float(
            k * (gammaln(1.0 + concentration) - gammaln(concentration))
            + (concentration - 1.0) * e_log_1mv.sum()
        )
