"""Numerical helpers used by the CPA inference engine and the baselines.

Log-space normalisation, the stick-breaking expansion of truncated
Chinese-Restaurant-Process weights, and guarded logarithms.  Everything
operates on numpy arrays, is vectorised over leading axes, and needs
numpy alone: a lane loads this module with its kernels, so the digamma
identities of Appendix B live in :mod:`repro.core.expectations`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

# Floor applied to probabilities before taking logarithms; keeps the
# variational updates finite when a component collapses to zero mass.
EPS = 1e-12


def as_floating(a: np.ndarray) -> np.ndarray:
    """View ``a`` as a floating array, preserving float32/float64 inputs.

    Integer/bool inputs are promoted to float64 (the historical behaviour);
    floating inputs keep their dtype so the ``CPAConfig.dtype`` policy
    survives the normalisation helpers.
    """
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.floating):
        return a.astype(np.float64)
    return a


def logsumexp(a: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Numerically stable ``log(sum(exp(a)))`` along ``axis``.

    Unlike :func:`scipy.special.logsumexp` this keeps the semantics needed by
    the inference loop: all-``-inf`` rows reduce to ``-inf`` without warnings.
    """
    a = as_floating(a)
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out


def flush_subnormals(values: np.ndarray) -> np.ndarray:
    """Set entries of ``values`` whose magnitude is below its dtype's
    smallest normal to ``0.0``.

    Works in place and returns ``values``.  In a probability row a
    subnormal entry sits more than ~708 nats (float64; ~87 nats for
    float32) below its row's normaliser, far below the last bit of a row
    sum of one, so zeroing it changes no row sum — yet every BLAS
    contraction that later reads a subnormal runs at the CPU's slow
    subnormal speed (DESIGN.md §6 "Subnormal responsibilities").
    """
    values[np.abs(values) < np.finfo(values.dtype).tiny] = 0.0
    return values


def cast_flushed(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``values`` in ``dtype``, with the entries subnormal there set to ``0.0``.

    A float64 1e-40 is a float32 subnormal, so every downcast is flushed
    (:func:`flush_subnormals`).  An array already in ``dtype`` is returned
    as it is: its producer flushed it.
    """
    values = np.asarray(values)
    if values.dtype == dtype:
        return values
    return flush_subnormals(values.astype(dtype))


def log_normalize_rows(log_weights: np.ndarray) -> np.ndarray:
    """Normalise un-normalised log weights row-wise into probabilities.

    Rows that are entirely ``-inf`` normalise to the uniform distribution —
    an explicit, documented fallback used when an item or worker carries no
    evidence at all (e.g. an empty batch in online learning).  The result
    holds no subnormals (:func:`flush_subnormals`).

    Below double precision the rows are divided by their sums instead of
    shifted by a log-normaliser: that normaliser rounds at the magnitude
    of the row's maximum (a float32 score of -60 carries 4e-6 into every
    entry), while a sum-normalised row sums to one within a few ulps.
    """
    log_weights = as_floating(log_weights)
    if log_weights.dtype != np.float64:
        peak = np.max(log_weights, axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            probs = np.exp(log_weights - peak)
            probs /= probs.sum(axis=-1, keepdims=True)
        bad = ~np.isfinite(peak[..., 0])
        if np.any(bad):
            probs[bad] = 1.0 / log_weights.shape[-1]
        return flush_subnormals(probs)
    norm = logsumexp(log_weights, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        probs = np.exp(log_weights - norm)
    bad = ~np.isfinite(norm[..., 0])
    if np.any(bad):
        probs[bad] = 1.0 / log_weights.shape[-1]
    return flush_subnormals(probs)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax; alias of :func:`log_normalize_rows` for raw scores."""
    return log_normalize_rows(scores)


def normalize_rows(weights: np.ndarray) -> np.ndarray:
    """Normalise non-negative weights row-wise; uniform fallback for zero rows."""
    weights = as_floating(weights)
    if np.any(weights < 0):
        raise ValidationError("normalize_rows requires non-negative weights")
    totals = weights.sum(axis=-1, keepdims=True)
    out = np.divide(weights, totals, out=np.zeros_like(weights), where=totals > 0)
    zero = totals[..., 0] <= 0
    if np.any(zero):
        out[zero] = 1.0 / weights.shape[-1]
    return out


def stick_breaking_weights(sticks: np.ndarray) -> np.ndarray:
    """Expand stick proportions ``v_k`` into mixture weights (paper Eq. 1).

    ``w_1 = v_1``, ``w_k = v_k Π_{j<k}(1 - v_j)``; the final component takes
    the leftover mass so the output sums to one exactly.
    """
    sticks = np.asarray(sticks, dtype=float)
    if sticks.ndim != 1:
        raise ValidationError("sticks must be a 1-D array")
    if np.any(sticks < 0) or np.any(sticks > 1):
        raise ValidationError("stick proportions must lie in [0, 1]")
    remaining = np.concatenate([[1.0], np.cumprod(1.0 - sticks)])
    weights = np.empty(sticks.shape[0] + 1, dtype=float)
    weights[:-1] = sticks * remaining[:-1]
    weights[-1] = remaining[-1]
    return weights


def clip_probability(p: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Clamp probabilities into ``[eps, 1 - eps]`` for safe logarithms."""
    return np.clip(np.asarray(p, dtype=float), eps, 1.0 - eps)


def safe_log(p: np.ndarray, eps: float = EPS) -> np.ndarray:
    """``log(max(p, eps))`` — the standard guarded logarithm."""
    return np.log(np.maximum(np.asarray(p, dtype=float), eps))


def entropy_categorical(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy of categorical rows (nats), treating ``0 log 0 = 0``."""
    probs = np.asarray(probs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=-1)


def total_variation(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total-variation distance ``0.5 Σ|p - q|`` along the last axis."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * np.abs(p - q).sum(axis=-1)
