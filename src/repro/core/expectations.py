"""Expectation identities of paper Appendix B, vectorised.

These are the building blocks of both the batch VI (Alg. 1) and the SVI
(Alg. 2) updates:

* ``E[ln ψ_tm]`` and ``E[ln φ_t]`` under their Dirichlet/Beta posteriors
  (digamma identities, :func:`digamma_expectation_dirichlet`);
* ``E[ln π_m]`` and ``E[ln τ_t]`` under truncated stick-breaking Beta
  posteriors;
* the answer log-likelihood matrix
  ``L[n, t, m] = E[ln p(x_n | ψ_tm)] = Σ_c x_nc E[ln ψ_tmc]`` (up to the
  multinomial coefficient, constant in ``(t, m)``).

All functions are pure and allocate their outputs; chunking for very large
answer sets lives in the callers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.special import digamma

from repro.errors import ValidationError
from repro.utils.math import as_floating


def digamma_expectation_dirichlet(concentration: np.ndarray) -> np.ndarray:
    """``E[ln p]`` for ``p ~ Dirichlet(concentration)`` along the last axis.

    This is the Appendix-B identity
    ``E[ln p_c] = ψ(conc_c) - ψ(Σ_c conc_c)`` with ``ψ`` the digamma
    function.  Vectorised over any leading axes.
    """
    concentration = np.asarray(concentration, dtype=float)
    if np.any(concentration <= 0):
        raise ValidationError("Dirichlet concentrations must be strictly positive")
    total = concentration.sum(axis=-1, keepdims=True)
    return digamma(concentration) - digamma(total)


def stick_breaking_expectations(alpha1: np.ndarray, alpha2: np.ndarray) -> np.ndarray:
    """``E[ln w_k]`` for truncated stick-breaking weights with Beta posteriors.

    Given per-stick Beta parameters ``(alpha1_k, alpha2_k)`` for sticks
    ``k = 1..K-1`` (the K-th stick takes all remaining mass), returns the
    K-vector ``E[ln w_k] = E[ln v_k] + Σ_{j<k} E[ln(1 - v_j)]`` from the
    paper's Appendix B, where ``v_k ~ Beta(alpha1_k, alpha2_k)``.

    Parameters are arrays of length ``K-1``; the output has length ``K``.
    """
    alpha1 = as_floating(alpha1)
    alpha2 = as_floating(alpha2)
    if alpha1.shape != alpha2.shape or alpha1.ndim != 1:
        raise ValidationError("stick parameters must be 1-D arrays of equal length")
    if np.any(alpha1 <= 0) or np.any(alpha2 <= 0):
        raise ValidationError("Beta parameters must be strictly positive")
    total = digamma(alpha1 + alpha2)
    e_log_v = digamma(alpha1) - total
    e_log_1mv = digamma(alpha2) - total
    k = alpha1.shape[0] + 1
    out = np.empty(k, dtype=alpha1.dtype)
    cum = np.concatenate([[0.0], np.cumsum(e_log_1mv)])
    out[:-1] = e_log_v + cum[:-1]
    out[-1] = cum[-1]
    return out


def expected_log_psi(lam: np.ndarray) -> np.ndarray:
    """``E[ln ψ_tmc]`` for ``ψ_tm ~ Dir(λ_tm)``; shape ``(T, M, C)``."""
    return digamma(lam) - digamma(lam.sum(axis=-1, keepdims=True))


def expected_log_phi_beta(zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(E[ln φ_tc], E[ln(1 - φ_tc)])`` for per-label Beta posteriors.

    ``zeta`` has shape ``(T, C, 2)`` with ``[..., 0] = a`` (presence) and
    ``[..., 1] = b`` (absence).
    """
    total = digamma(zeta.sum(axis=-1))
    return digamma(zeta[..., 0]) - total, digamma(zeta[..., 1]) - total


def expected_log_pi(rho: np.ndarray) -> np.ndarray:
    """``E[ln π_m]`` from the worker-stick Beta posteriors; shape ``(M,)``."""
    return stick_breaking_expectations(rho[:, 0], rho[:, 1])


def expected_log_tau(ups: np.ndarray) -> np.ndarray:
    """``E[ln τ_t]`` from the item-stick Beta posteriors; shape ``(T,)``."""
    return stick_breaking_expectations(ups[:, 0], ups[:, 1])


def answer_log_likelihood(
    indicators: np.ndarray,
    e_log_psi: np.ndarray,
    chunk_size: int = 8192,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``L[n, t, m] = Σ_c x_nc E[ln ψ_tmc]`` for all answers ``n``.

    ``indicators`` is the ``(N, C)`` 0/1 answer matrix; ``e_log_psi`` is
    ``(T, M, C)``.  Computed as a single matmul per chunk:
    ``(N, C) @ (C, T*M) → (N, T*M)``, reshaped to ``(N, T, M)``.
    """
    n = indicators.shape[0]
    t, m, c = e_log_psi.shape
    flat = e_log_psi.reshape(t * m, c).T  # (C, T*M)
    if out is None:
        out = np.empty((n, t, m), dtype=np.result_type(indicators, e_log_psi))
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        out[start:stop] = (indicators[start:stop] @ flat).reshape(stop - start, t, m)
    return out


def map_estimate_dirichlet(lam: np.ndarray) -> np.ndarray:
    """MAP (mode) of Dirichlet rows along the last axis, with mean fallback.

    The mode ``(λ_c - 1) / (Σλ - C)`` exists only when every ``λ_c > 1``;
    rows violating that (common under a sparse prior) fall back to the
    posterior mean — a standard, well-defined surrogate noted in
    DESIGN.md.  Output rows are valid probability vectors.
    """
    lam = np.asarray(lam, dtype=float)
    c = lam.shape[-1]
    total = lam.sum(axis=-1, keepdims=True)
    mean = lam / total
    with np.errstate(invalid="ignore", divide="ignore"):
        mode = (lam - 1.0) / (total - c)
    use_mode = np.all(lam > 1.0, axis=-1, keepdims=True) & (total > c)
    return np.where(use_mode, mode, mean)
