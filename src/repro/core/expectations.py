"""Expectation identities of paper Appendix B, vectorised.

These are the building blocks of both the batch VI (Alg. 1) and the SVI
(Alg. 2) updates:

* ``E[ln ψ_tm]`` and ``E[ln φ_t]`` under their Dirichlet/Beta posteriors
  (digamma identities);
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

from repro.utils.math import stick_breaking_expectations


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
