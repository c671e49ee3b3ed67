"""Frozen seed-PR implementations of the hot inference paths.

These classes preserve, verbatim, the pre-kernel-layer code paths: dense
per-answer likelihood evaluation repeated for every consumer, and
``np.add.at`` scatter accumulation.  The prediction functions at the end
preserve the per-answer, per-item loops that preceded the vectorised
prediction path.  They exist for two reasons only:

* **parity testing** — the fused kernels of :mod:`repro.core.kernels`
  must reproduce these trajectories within tight tolerances
  (``tests/test_kernels.py``), and :mod:`repro.core.prediction` must
  reproduce these label sets (``tests/test_prediction_oracle.py``);
* **benchmarking** — ``benchmarks/bench_kernels.py`` measures the fused
  layer's speedup against this baseline and records it in
  ``BENCH_core.json``.

Production code must not import this module.  Do not "optimise" it: its
value is being a faithful snapshot of the seed implementation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CPAConfig
from repro.core.consensus import ClusterConsensus
from repro.core.expectations import answer_log_likelihood, map_estimate_dirichlet
from repro.core.inference import VariationalInference
from repro.core.prediction import PredictionDetail, exhaustive_map_labels
from repro.core.state import CPAState
from repro.core.svi import StochasticInference, _BatchData
from repro.data.answers import AnswerMatrix
from repro.errors import InferenceError, PredictionError
from repro.utils.math import logsumexp, safe_log
from repro.utils.parallel import split_chunks

#: the seed's chunk size for (chunk, T, M) intermediates.
CHUNK = 8192


def log_normalize_rows(log_weights: np.ndarray) -> np.ndarray:
    """The seed's row normaliser, frozen before subnormals were flushed.

    Production's :func:`repro.utils.math.log_normalize_rows` zeroes
    entries below the dtype's smallest normal; this copy keeps them, so
    the oracles below still run the unflushed seed math.
    """
    log_weights = np.asarray(log_weights)
    if not np.issubdtype(log_weights.dtype, np.floating):
        log_weights = log_weights.astype(np.float64)
    norm = logsumexp(log_weights, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        probs = np.exp(log_weights - norm)
    bad = ~np.isfinite(norm[..., 0])
    if np.any(bad):
        probs[bad] = 1.0 / log_weights.shape[-1]
    return probs


class ReferenceVariationalInference(VariationalInference):
    """Batch VI with the seed's sweep/statistics/ELBO implementations.

    Shares ``__init__`` (and therefore the exact initial state for a given
    seed) with :class:`VariationalInference`; only the data-dependent
    evaluations differ.
    """

    def sweep(self) -> float:
        state = self.state
        from repro.core.expectations import (
            expected_log_phi_beta,
            expected_log_pi,
            expected_log_psi,
            expected_log_tau,
        )

        e_log_pi = expected_log_pi(state.rho)
        e_log_tau = expected_log_tau(state.ups)
        e_log_psi = expected_log_psi(state.lam)

        # --- local update: worker communities (Eq. 2) --------------------
        kappa_delta = 0.0
        if not self.fix_singleton_communities:
            kappa_scores = np.tile(e_log_pi, (self.n_workers, 1))
            for start in range(0, self.items.size, CHUNK):
                stop = min(start + CHUNK, self.items.size)
                like = answer_log_likelihood(
                    self.indicators[start:stop], e_log_psi
                )  # (n, T, M)
                weighted = np.einsum(
                    "nt,ntm->nm", state.phi[self.items[start:stop]], like
                )
                np.add.at(kappa_scores, self.workers[start:stop], weighted)
            new_kappa = log_normalize_rows(kappa_scores)
            kappa_delta = float(np.max(np.abs(new_kappa - state.kappa)))
            state.kappa = new_kappa

        # --- local update: item clusters (corrected Eq. 3) ---------------
        phi_delta = 0.0
        if not self.fix_singleton_clusters:
            phi_scores = np.tile(e_log_tau, (self.n_items, 1))
            for start in range(0, self.items.size, CHUNK):
                stop = min(start + CHUNK, self.items.size)
                like = answer_log_likelihood(self.indicators[start:stop], e_log_psi)
                weighted = np.einsum(
                    "nm,ntm->nt", state.kappa[self.workers[start:stop]], like
                )
                np.add.at(phi_scores, self.items[start:stop], weighted)
            if self.truth_mask.any():
                e_log_phi, e_log_phi_c = expected_log_phi_beta(state.zeta)
                y = self.truth_indicator[self.truth_mask]
                supervised = y @ e_log_phi.T + (1.0 - y) @ e_log_phi_c.T
                phi_scores[self.truth_mask] += supervised
            new_phi = log_normalize_rows(phi_scores)
            phi_delta = float(np.max(np.abs(new_phi - state.phi)))
            state.phi = new_phi

        # --- global updates (Eqs. 4-7) ------------------------------------
        self._update_sticks()
        self._update_profiles()
        self._update_label_profiles()
        return max(kappa_delta, phi_delta)

    def _update_profiles(self) -> None:
        state = self.state
        t, m, c = state.lam.shape
        counts = np.zeros((t, m, c))
        mass = np.zeros((t, m))
        for start in range(0, self.items.size, CHUNK):
            stop = min(start + CHUNK, self.items.size)
            phi_n = state.phi[self.items[start:stop]]  # (n, T)
            kappa_n = state.kappa[self.workers[start:stop]]  # (n, M)
            joint = phi_n[:, :, None] * kappa_n[:, None, :]  # (n, T, M)
            mass += joint.sum(axis=0)
            counts += np.einsum(
                "ntm,nc->tmc", joint, self.indicators[start:stop]
            )
        state.lam = self.config.gamma0 + counts
        state.cell_mass = mass

    def elbo(self) -> float:
        from scipy.special import gammaln

        from repro.core.expectations import (
            expected_log_phi_beta,
            expected_log_pi,
            expected_log_psi,
            expected_log_tau,
        )
        from repro.core.inference import _categorical_entropy, _dirichlet_entropy

        state = self.state
        cfg = self.config
        e_log_pi = expected_log_pi(state.rho)
        e_log_tau = expected_log_tau(state.ups)
        e_log_psi = expected_log_psi(state.lam)
        e_log_phi, e_log_phi_c = expected_log_phi_beta(state.zeta)

        value = 0.0
        # E[ln p(x | z, l, ψ)]
        for start in range(0, self.items.size, CHUNK):
            stop = min(start + CHUNK, self.items.size)
            like = answer_log_likelihood(self.indicators[start:stop], e_log_psi)
            joint = (
                state.phi[self.items[start:stop]][:, :, None]
                * state.kappa[self.workers[start:stop]][:, None, :]
            )
            value += float(np.sum(joint * like))
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


def _reference_map_worker_task(task):
    """The seed's MAP-phase task: dense likelihood + ``np.add.at`` scatters.

    Task layout: (start, stop, x, phi_n, local_items, local_worker,
    n_batch_items, e_log_pi, e_log_psi).
    """
    (
        start,
        stop,
        x,
        phi_n,
        local_items,
        local_worker,
        n_batch_items,
        e_log_pi,
        e_log_psi,
    ) = task
    n_chunk_workers = stop - start
    n_clusters, n_communities, n_labels = e_log_psi.shape

    if x.shape[0] == 0:
        return (
            start,
            stop,
            np.tile(log_normalize_rows(e_log_pi[None, :]), (n_chunk_workers, 1)),
            np.zeros((n_batch_items, n_clusters)),
            np.zeros((n_clusters, n_communities, n_labels)),
            np.zeros((n_clusters, n_communities)),
            np.zeros(n_communities),
        )

    like = answer_log_likelihood(x, e_log_psi)  # (n, T, M)

    weighted = np.einsum("nt,ntm->nm", phi_n, like)
    scores = np.tile(e_log_pi, (n_chunk_workers, 1))
    np.add.at(scores, local_worker, weighted)
    kappa_chunk = log_normalize_rows(scores)

    kappa_n = kappa_chunk[local_worker]
    contrib = np.einsum("nm,ntm->nt", kappa_n, like)
    item_evidence = np.zeros((n_batch_items, n_clusters))
    np.add.at(item_evidence, local_items, contrib)

    joint = phi_n[:, :, None] * kappa_n[:, None, :]  # (n, T, M)
    counts = np.einsum("ntm,nc->tmc", joint, x)
    mass = joint.sum(axis=0)
    kappa_mass = kappa_chunk.sum(axis=0)
    return start, stop, kappa_chunk, item_evidence, counts, mass, kappa_mass


class ReferenceStochasticInference(StochasticInference):
    """SVI with the seed's MAP phase and batch statistics.

    The likelihood is re-evaluated densely inside every local refinement
    iteration and statistics are scattered with ``np.add.at`` — exactly
    the seed behaviour the fused path is measured against.
    """

    def _map_reduce(
        self,
        data: _BatchData,
        phi_batch: np.ndarray,
        e_log_pi: np.ndarray,
        e_log_psi: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        phi_n = phi_batch[data.item_local]  # (N_b, T)
        tasks = []
        for chunk in split_chunks(data.batch_workers.size, self.executor.degree):
            lo = int(data.worker_offsets[chunk.start])
            hi = int(data.worker_offsets[chunk.stop])
            tasks.append(
                (
                    chunk.start,
                    chunk.stop,
                    data.indicators[lo:hi],
                    phi_n[lo:hi],
                    data.item_local[lo:hi],
                    data.worker_local[lo:hi] - chunk.start,
                    data.batch_items.size,
                    e_log_pi,
                    e_log_psi,
                )
            )
        pieces = self.executor.map_tasks(_reference_map_worker_task, tasks)

        kappa = np.empty((data.batch_workers.size, e_log_pi.size))
        evidence = np.zeros((data.batch_items.size, self.state.n_clusters))
        counts = np.zeros_like(self.state.lam)
        mass = np.zeros_like(self.state.cell_mass)
        kappa_mass = np.zeros(self.state.n_communities)
        for start, stop, kappa_chunk, ev, cnt, ms, km in pieces:
            kappa[start:stop] = kappa_chunk
            evidence += ev
            counts += cnt
            mass += ms
            kappa_mass += km
        return kappa, evidence, counts, mass, kappa_mass

    def _batch_cell_statistics(
        self, data: _BatchData, phi_batch: np.ndarray, kappa_batch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        phi_rows = phi_batch[data.item_local]
        kappa_rows = kappa_batch[data.worker_local]
        joint = phi_rows[:, :, None] * kappa_rows[:, None, :]  # (N_b, T, M)
        counts = np.einsum("ntm,nc->tmc", joint, data.indicators)
        return counts, joint.sum(axis=0)


# ------------------------------------------------------------- prediction
#
# The per-item prediction loops, frozen when the vectorised path replaced
# them: one ``AnswerMatrix.get`` and one ``logsumexp`` per answer, and one
# greedy search per item.


def item_cluster_log_weights(
    state: CPAState,
    consensus: ClusterConsensus,
    answers: AnswerMatrix,
    items: Sequence[int],
    *,
    use_phi: bool = True,
) -> np.ndarray:
    """``ln w_it`` (unnormalised) for each requested item; shape ``(len, T)``."""
    psi_map = map_estimate_dirichlet(state.lam)  # (T, M, C)
    log_psi = safe_log(psi_map)
    prior = safe_log(consensus.cluster_weights)

    out = np.empty((len(items), state.n_clusters))
    for row, item in enumerate(items):
        if use_phi and 0 <= item < state.n_items:
            base = safe_log(state.phi[item])
        else:
            base = prior.copy()
        scores = base.copy()
        for worker in answers.workers_for_item(item):
            labels = answers.get(item, worker)
            if not labels:
                continue
            idx = sorted(labels)
            # ln p(x | ψ_tm) = Σ_{c in x} ln ψ_tmc   (multinomial, constant
            # coefficient dropped — it cancels in the normalisation).
            log_like = log_psi[:, :, idx].sum(axis=2)  # (T, M)
            mix = logsumexp(log_like + safe_log(state.kappa[worker])[None, :], axis=1)
            scores += mix
        out[row] = scores
    return out


def item_evidence(
    state: CPAState,
    consensus: ClusterConsensus,
    answers: AnswerMatrix,
    items: Sequence[int],
) -> np.ndarray:
    """Per-item, per-label log-likelihood-ratio evidence; shape ``(len, C)``."""
    out = np.zeros((len(items), state.n_labels))
    rates = consensus.label_rates
    if rates is None:
        return out
    for row, item in enumerate(items):
        for worker in answers.workers_for_item(item):
            labels = answers.get(item, worker)
            if not labels:
                continue
            kappa_u = state.kappa[worker]  # (M,)
            sens = kappa_u @ rates.sensitivity  # (C,) mix probabilities first
            false = kappa_u @ rates.false_rate
            x = np.zeros(state.n_labels)
            x[sorted(labels)] = 1.0
            present = x * (safe_log(sens) - safe_log(false))
            absent = (1.0 - x) * (safe_log(1.0 - sens) - safe_log(1.0 - false))
            out[row] += present + absent
    return out


def greedy_map_labels(
    log_weights: np.ndarray,
    inclusion: np.ndarray,
    *,
    evidence: Optional[np.ndarray] = None,
    max_labels: int = 0,
    min_gain: float = 1e-9,
) -> PredictionDetail:
    """Greedy MAP search for one item (paper §3.4's approximation)."""
    n_clusters, n_labels = inclusion.shape
    if log_weights.shape != (n_clusters,):
        raise PredictionError("log_weights shape disagrees with inclusion matrix")
    cap = max_labels if max_labels > 0 else n_labels

    log_incl = safe_log(inclusion)
    log_excl = safe_log(1.0 - inclusion)
    log_odds = log_incl - log_excl  # (T, C)
    if evidence is not None:
        log_odds = log_odds + np.asarray(evidence)[None, :]

    log_g = log_excl.sum(axis=1)  # ln G_t(∅)
    current = float(logsumexp(log_weights + log_g))
    chosen: List[int] = []
    available = np.ones(n_labels, dtype=bool)

    while len(chosen) < cap and available.any():
        # Candidate objective for every still-available label in one shot:
        # obj_c = logsumexp_t( ln w_t + ln G_t + log_odds_tc ).
        cand = logsumexp(
            (log_weights + log_g)[:, None] + log_odds, axis=0
        )  # (C,)
        cand[~available] = -np.inf
        best = int(np.argmax(cand))
        if cand[best] <= current + min_gain:
            break
        chosen.append(best)
        available[best] = False
        log_g = log_g + log_odds[:, best]
        current = float(cand[best])

    posterior = np.exp(log_weights + log_g - logsumexp(log_weights + log_g))
    return PredictionDetail(
        labels=frozenset(chosen),
        log_objective=current,
        cluster_weights=posterior,
    )


def predict_items(
    state: CPAState,
    consensus: ClusterConsensus,
    answers: AnswerMatrix,
    config: CPAConfig,
    items: Optional[Sequence[int]] = None,
    *,
    exhaustive: bool = False,
) -> Dict[int, PredictionDetail]:
    """Predict label sets for ``items`` (default: every item with answers)."""
    if items is None:
        items = answers.answered_items()
    items = [int(i) for i in items]
    log_weights = item_cluster_log_weights(state, consensus, answers, items)
    if config.use_item_evidence and consensus.label_rates is not None:
        evidence = config.evidence_weight * item_evidence(
            state, consensus, answers, items
        )
    else:
        evidence = np.zeros((len(items), state.n_labels))

    results: Dict[int, PredictionDetail] = {}
    for row, item in enumerate(items):
        if exhaustive:
            results[item] = exhaustive_map_labels(
                log_weights[row],
                consensus.inclusion,
                evidence=evidence[row],
                limit=config.exhaustive_label_limit,
            )
        else:
            results[item] = greedy_map_labels(
                log_weights[row],
                consensus.inclusion,
                evidence=evidence[row],
                max_labels=config.max_predicted_labels,
            )
    return results
