"""Cluster-consensus estimation: recovering ``φ̂_t`` without ground truth.

The paper's Eq. 7 updates the cluster label profiles ``φ_t`` only from
*observed* true labels, yet every accuracy experiment runs with ``y = ∅``.
This module implements the resolution documented in DESIGN.md §4.2: the
per-label inclusion probability of a cluster is estimated as a
reliability-weighted mixture of its community answer statistics, where a
community's reliability weight is

``w_m = (expected size S_m) × (cluster discriminability D_m + δ)``.

*Discriminability* is the mass-weighted mean total-variation distance
between the community's per-cluster answer distributions ``E[ψ_tm]`` and
its cluster-marginal distribution.  Both spammer archetypes of §2.1 answer
independently of the item, so their profiles are (near-)identical across
clusters and ``D_m ≈ 0`` — they are automatically discounted, which is the
mechanism behind the Fig-4 spammer robustness.

When ground truth *is* partially observed, the supervised per-label Beta
posterior (``ζ``) is blended in with weight proportional to the observed
mass assigned to the cluster, recovering Eq. 7's behaviour in the fully
supervised limit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.core.config import CPAConfig
from repro.core.state import CPAState
from repro.data.answers import AnswerMatrix
from repro.utils.math import total_variation


@dataclass(frozen=True)
class CommunityLabelRates:
    """Per-community, per-label answering rates relative to the consensus.

    ``sensitivity[m, c]`` estimates ``P(worker of community m includes c |
    the item truly carries c)`` and ``false_rate[m, c]`` the corresponding
    inclusion probability when the item does not carry ``c`` — with the
    cluster consensus ``φ̂`` standing in for the (unobserved) truth.  These
    are the community-level analogue of the two-coin worker model
    (Appendix A) and power the per-item evidence term of prediction
    (DESIGN.md §4.3): both spammer archetypes answer independently of the
    item, so their ``sensitivity ≈ false_rate`` and their answers carry a
    likelihood ratio of 1.
    """

    sensitivity: np.ndarray  # (M, C)
    false_rate: np.ndarray  # (M, C)


@dataclass(frozen=True)
class ClusterConsensus:
    """Output of :func:`estimate_consensus`.

    Attributes
    ----------
    inclusion:
        ``(T, C)`` matrix ``φ̂_tc`` — probability that an item of cluster
        ``t`` truly carries label ``c``; clipped away from {0, 1}.
    cluster_weights:
        ``(T,)`` occupancy-based prior over clusters (used for items
        without any answers).
    community_weights:
        ``(M,)`` reliability weights ``w_m`` (unnormalised).
    discriminability:
        ``(M,)`` the ``D_m`` scores.
    community_sizes:
        ``(M,)`` expected community sizes ``S_m = Σ_u κ_um``.
    label_rates:
        Community answering rates (``None`` when the answers were not
        available to the estimator).
    """

    inclusion: np.ndarray
    cluster_weights: np.ndarray
    community_weights: np.ndarray
    discriminability: np.ndarray
    community_sizes: np.ndarray
    label_rates: Optional[CommunityLabelRates] = None


def community_discriminability(state: CPAState) -> np.ndarray:
    """``D_m``: how strongly community ``m``'s answers track item clusters.

    Uses the posterior-mean answer distributions ``p_tm = E[ψ_tm]``; each
    community's marginal is the cell-mass-weighted average over clusters,
    and ``D_m`` the mass-weighted mean TV distance to it.  Communities with
    no answers at all get ``D_m = 0``.
    """
    p = state.lam / state.lam.sum(axis=-1, keepdims=True)  # (T, M, C)
    mass = state.cell_mass  # (T, M)
    community_mass = mass.sum(axis=0)  # (M,)
    weights = np.divide(
        mass,
        community_mass[None, :],
        out=np.zeros_like(mass),
        where=community_mass[None, :] > 0,
    )
    marginal = np.einsum("tm,tmc->mc", weights, p)  # (M, C)
    tv = total_variation(p, marginal[None, :, :])  # (T, M)
    return np.einsum("tm,tm->m", weights, tv)


def community_label_rates(
    state: CPAState,
    inclusion: np.ndarray,
    answers: AnswerMatrix,
    *,
    pseudo_count: float = 1.0,
) -> CommunityLabelRates:
    """Estimate the two-coin answering rates of every community.

    The soft presence probability of label ``c`` for answer ``n`` on item
    ``i`` is ``q_nc = Σ_t ϕ_it φ̂_tc``; community rates are then
    responsibility-weighted ratios with ``Beta(pseudo_count, pseudo_count)``
    smoothing towards the community's label-pooled rate (which keeps rare
    labels from producing extreme likelihood ratios).
    """
    items, workers, x = answers.to_arrays()
    if items.size == 0:
        shape = (state.n_communities, state.n_labels)
        half = np.full(shape, 0.5)
        return CommunityLabelRates(sensitivity=half, false_rate=half.copy())

    q = state.phi[items] @ inclusion  # (N, C) soft presence per answer
    kappa_rows = state.kappa[workers]  # (N, M)

    pos_num = kappa_rows.T @ (q * x)  # (M, C)
    pos_den = kappa_rows.T @ q
    neg_num = kappa_rows.T @ ((1.0 - q) * x)
    neg_den = kappa_rows.T @ (1.0 - q)

    # Community-pooled rates provide the smoothing centre per community.
    pooled_sens = pos_num.sum(axis=1, keepdims=True) / np.maximum(
        pos_den.sum(axis=1, keepdims=True), 1e-9
    )
    pooled_false = neg_num.sum(axis=1, keepdims=True) / np.maximum(
        neg_den.sum(axis=1, keepdims=True), 1e-9
    )
    sensitivity = (pos_num + pseudo_count * pooled_sens) / (pos_den + pseudo_count)
    false_rate = (neg_num + pseudo_count * pooled_false) / (neg_den + pseudo_count)
    clip = lambda a: np.clip(a, 1e-3, 1.0 - 1e-3)  # noqa: E731 - local helper
    return CommunityLabelRates(
        sensitivity=clip(sensitivity), false_rate=clip(false_rate)
    )


def estimate_consensus(
    state: CPAState,
    config: CPAConfig,
    answers: Optional[AnswerMatrix] = None,
) -> ClusterConsensus:
    """Compute ``φ̂`` and the community reliability weights from ``state``.

    ``answers`` additionally enables the community label-rate estimation
    used by evidence-augmented prediction.  Under a float32 kernel
    (``config.dtype``) κ and ϕ are read as their rows renormalized in
    float64 (:meth:`CPAState.distributions`).
    """
    if config.resolve_dtype() != np.float64:
        kappa, phi = state.distributions()
        state = replace(state, kappa=kappa, phi=phi)
    gamma0 = config.gamma0
    counts = np.maximum(state.lam - gamma0, 0.0)  # (T, M, C) expected label counts
    mass = state.cell_mass  # (T, M) expected answers per cell

    total_mass = float(mass.sum())
    if total_mass > 0:
        global_rate = counts.sum(axis=(0, 1)) / total_mass  # (C,)
    else:
        global_rate = np.full(state.n_labels, 0.5)
    global_rate = np.clip(global_rate, 1e-4, 1.0 - 1e-4)

    smooth = config.consensus_smoothing
    rates = (counts + smooth * global_rate[None, None, :]) / (
        mass[:, :, None] + smooth
    )  # (T, M, C) inclusion rate of label c in cell (t, m)

    sizes = state.kappa.sum(axis=0)  # (M,)
    disc = community_discriminability(state)  # (M,)
    community_weights = sizes * (disc + config.consensus_floor)

    # Cells weighted by (reliability of community) x (answer mass in cell):
    # spam answers contribute only through the floor.
    cell_weight = (disc + config.consensus_floor)[None, :] * mass  # (T, M)
    weight_total = cell_weight.sum(axis=1)  # (T,)
    unsupervised = np.einsum("tm,tmc->tc", cell_weight, rates)
    unsupervised = np.divide(
        unsupervised,
        weight_total[:, None],
        out=np.tile(global_rate, (state.n_clusters, 1)),
        where=weight_total[:, None] > 0,
    )

    # Supervised estimate from zeta (per-label Beta posterior, Eq. 7) and
    # the observed mass per cluster; eta0 pseudo-counts are removed so the
    # blend weight reflects actual observations.
    eta0 = config.eta0
    observed_mass = np.maximum(state.zeta.sum(axis=-1) - 2 * eta0, 0.0)  # (T, C)
    cluster_observed = observed_mass.mean(axis=1)  # (T,)
    supervised = state.zeta[..., 0] / state.zeta.sum(axis=-1)  # Beta mean

    nu = config.consensus_blend
    blend = cluster_observed[:, None] / (cluster_observed[:, None] + nu)
    inclusion = blend * supervised + (1.0 - blend) * unsupervised
    inclusion = np.clip(inclusion, 1e-4, 1.0 - 1e-4)

    occupancy = state.phi.sum(axis=0)
    if occupancy.sum() > 0:
        cluster_weights = occupancy / occupancy.sum()
    else:
        cluster_weights = np.full(state.n_clusters, 1.0 / state.n_clusters)

    rates = None
    if answers is not None:
        rates = community_label_rates(state, inclusion, answers)

    return ClusterConsensus(
        inclusion=inclusion,
        cluster_weights=cluster_weights,
        community_weights=community_weights,
        discriminability=disc,
        community_sizes=sizes,
        label_rates=rates,
    )
