"""MAP label-set prediction (paper §3.4 and Appendix D).

For item ``i`` with answering workers ``U_i``, the paper's predictive
objective is

``p(y_i, x_{U_i}) = Σ_t w_it · p(y_i | φ̂_t)``  with
``w_it = ϕ_it · Π_{u ∈ U_i} Σ_m κ_um p(x_iu | ψ_tm^MAP)``,

maximised over label sets ``y_i``.  Exhaustive maximisation is ``O(2^C)``
(NP-hard in general, §3.4), so the default is the paper's greedy search:
start from the empty set and repeatedly add the label that most increases
the objective, stopping when no label improves it.  ``p(y | φ̂_t)`` uses
per-label Bernoulli semantics (DESIGN.md §4.3), which makes the greedy
stopping rule well-posed.

All computations run in float64 log space, whatever ``CPAConfig.dtype``:
the per-cluster factor ``ln G_t(y)`` starts at ``Σ_c ln(1 - φ̂_tc)`` and
adding label ``c`` shifts it by the log-odds ``ln φ̂_tc - ln(1 - φ̂_tc)``;
the objective is ``logsumexp_t(ln w_it + ln G_t)``.

The search is independent per item (paper §4.2), so every step runs on
arrays over blocks of at most :data:`BLOCK` answers or items (DESIGN.md §6
"Prediction path"): the cluster weights contract a pattern-keyed
likelihood table against κ, the evidence reads per-worker log-ratio
tables, and the greedy search grows a whole block of label sets one label
per round.  :mod:`repro.core.reference` keeps the per-item loops as the
differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import CPAConfig
from repro.core.consensus import ClusterConsensus
from repro.core.expectations import map_estimate_dirichlet
from repro.core.kernels import SegmentLayout, grouped_matmul, unique_patterns
from repro.core.state import CPAState
from repro.data.answers import AnswerMatrix
from repro.errors import PredictionError, ValidationError
from repro.utils.math import EPS, logsumexp, safe_log

#: answers per likelihood/evidence chunk and items per greedy search.  Bounds
#: the ``(patterns, T, M)`` and ``(answers, T)`` temporaries, so memory
#: stays flat however many items are requested.
BLOCK = 512


@dataclass(frozen=True)
class PredictionDetail:
    """Per-item diagnostics accompanying a predicted label set."""

    labels: FrozenSet[int]
    log_objective: float
    cluster_weights: np.ndarray


def requested_items(
    answers: AnswerMatrix, items: Optional[Sequence[int]] = None
) -> List[int]:
    """``items`` as a list of item indices (default: every answered item).

    Items at or beyond the index space are allowed (they fall back to the
    cluster prior); negative or non-integer entries raise
    :class:`~repro.errors.ValidationError`.
    """
    if items is None:
        return answers.answered_items()
    try:
        out = [int(item) for item in items]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"items must be integer indices: {exc}") from exc
    bad = [item for item in out if not 0 <= item < 2**63]
    if bad:
        raise ValidationError(f"item indices must be non-negative int64, got {bad[:5]}")
    return out


def _gather(
    state: CPAState, answers: AnswerMatrix, items: Optional[Sequence[int]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate a request and find the answers behind it.

    Returns ``(unique, inverse, rows, owner)``: the distinct requested
    items in ascending order, the ``unique`` entry of each requested row,
    the rows of ``answers.to_arrays()`` answering those items (grouped by
    item, in insertion order within an item), and the ``unique`` entry
    each of those answers belongs to.
    """
    if answers.n_workers > state.n_workers or answers.n_labels > state.n_labels:
        raise ValidationError(
            f"answer matrix has {answers.n_workers} workers and "
            f"{answers.n_labels} labels, the fitted state only "
            f"{state.n_workers} workers and {state.n_labels} labels"
        )
    requested = np.asarray(requested_items(answers, items), dtype=np.int64)
    unique, inverse = np.unique(requested, return_inverse=True)
    answered = unique < answers.n_items
    lookup = np.full(answers.n_items, -1, dtype=np.int64)
    lookup[unique[answered]] = np.flatnonzero(answered)
    slot = lookup[answers.to_arrays()[0]]
    rows = np.flatnonzero(slot >= 0)
    order = np.argsort(slot[rows], kind="stable")
    return unique, inverse.reshape(-1), rows[order], slot[rows][order]


def item_cluster_log_weights(
    state: CPAState,
    consensus: ClusterConsensus,
    answers: AnswerMatrix,
    items: Sequence[int],
    *,
    use_phi: bool = True,
) -> np.ndarray:
    """``ln w_it`` (unnormalised) for each requested item; shape ``(len, T)``.

    Follows Appendix D: the fitted responsibility ``ϕ_it`` (or the cluster
    prior for unseen items / ``use_phi=False``) times the product over the
    item's answers of the community-mixture likelihood
    ``Σ_m κ_um p(x_iu | ψ_tm^MAP)``.

    The answers are deduplicated into label-set patterns and walked in
    pattern order, :data:`BLOCK` at a time: ``L[p, t, m] = Σ_{c∈p} ln
    ψ^MAP_tmc`` is built once per pattern (the multinomial coefficient
    cancels in the normalisation), and each answer's ``ln Σ_m κ_um
    e^{L[p,t,m]}`` is a :func:`~repro.core.kernels.grouped_matmul` of
    ``exp(L - max_m L)`` against its worker's κ row (floored at ``EPS``).
    """
    unique, inverse, rows, owner = _gather(state, answers, items)
    out = np.tile(safe_log(consensus.cluster_weights), (unique.size, 1))
    if use_phi:
        fitted = unique < state.n_items
        out[fitted] = safe_log(state.phi[unique[fitted]])
    if rows.size:
        _, workers, indicators = answers.to_arrays()
        patterns, index = unique_patterns(indicators[rows])
        log_psi = safe_log(map_estimate_dirichlet(state.lam))  # (T, M, C)
        t, m, c = log_psi.shape
        table = log_psi.reshape(t * m, c)[:, : patterns.shape[1]].T  # (C, T·M)
        by_pattern = SegmentLayout(index, patterns.shape[0])
        for lo in range(0, index.size, BLOCK):
            chunk = by_pattern.order[lo : lo + BLOCK]
            first = by_pattern.sorted_index[lo]
            local = by_pattern.sorted_index[lo : lo + BLOCK] - first
            n_local = int(local[-1]) + 1
            like = (patterns[first : first + n_local] @ table).reshape(n_local, t, m)
            peak = like.max(axis=2)
            like -= peak[:, :, None]
            np.exp(like, out=like)
            offsets = np.searchsorted(local, np.arange(n_local + 1))
            kappa = np.asarray(state.kappa[workers[rows[chunk]]], dtype=np.float64)
            mix = grouped_matmul(
                like, np.arange(n_local), offsets, np.maximum(kappa, EPS), swap=True
            )
            log_mix = np.log(mix) + peak[local]
            SegmentLayout(owner[chunk], unique.size).add_to(out, log_mix)
    return out[inverse]


def item_evidence(
    state: CPAState,
    consensus: ClusterConsensus,
    answers: AnswerMatrix,
    items: Sequence[int],
) -> np.ndarray:
    """Per-item, per-label log-likelihood-ratio evidence; shape ``(len, C)``.

    For item ``i`` and label ``c`` each answering worker ``u`` contributes
    ``ln P(x_iuc | y_ic = 1) - ln P(x_iuc | y_ic = 0)`` under the worker's
    community-mixed two-coin rates (``s_uc = Σ_m κ_um s_mc`` etc.).  Both
    outcomes are tabulated once per worker as ``(U, C)`` log-ratio tables;
    each answer selects from them by its 0/1 row.  Returns zeros when the
    consensus carries no label rates — prediction then degenerates to the
    paper's literal Appendix-D objective.
    """
    unique, inverse, rows, owner = _gather(state, answers, items)
    out = np.zeros((unique.size, state.n_labels))
    rates = consensus.label_rates
    if rates is not None and rows.size:
        _, workers, indicators = answers.to_arrays()
        sens = state.kappa @ rates.sensitivity  # (U, C): mix probabilities first
        false = state.kappa @ rates.false_rate
        present = safe_log(sens) - safe_log(false)
        absent = safe_log(1.0 - sens) - safe_log(1.0 - false)
        for lo in range(0, rows.size, BLOCK):
            chunk = rows[lo : lo + BLOCK]
            chosen = np.zeros((chunk.size, state.n_labels), dtype=bool)
            chosen[:, : indicators.shape[1]] = indicators[chunk] > 0
            who = workers[chunk]
            contrib = np.where(chosen, present[who], absent[who])
            SegmentLayout(owner[lo : lo + BLOCK], unique.size).add_to(out, contrib)
    return out[inverse]


def greedy_map_labels(
    log_weights: np.ndarray,
    inclusion: np.ndarray,
    *,
    evidence: Optional[np.ndarray] = None,
    max_labels: int = 0,
    min_gain: float = 1e-9,
) -> Union[PredictionDetail, List[PredictionDetail]]:
    """Greedy MAP search (paper §3.4's approximation) for a block of items.

    Every item starts from the empty set.  Each round scores every
    (item, label) candidate of the still-growing items as one
    ``(items, T) @ (T, C)`` matmul, and each item whose best candidate
    improves its objective adds that label; at most ``C`` rounds.

    Parameters
    ----------
    log_weights:
        ``(B, T)`` unnormalised ``ln w_t`` per item.  A ``(T,)`` row is a
        one-item block and returns its :class:`PredictionDetail` alone.
    inclusion:
        ``(T, C)`` consensus inclusion probabilities ``φ̂``.
    evidence:
        Optional ``(B, C)`` (or ``(C,)``) per-label log-likelihood-ratio
        offsets from each item's own answers (see :func:`item_evidence`).
    max_labels:
        Optional cap on the label-set size (0 = up to ``C``).
    min_gain:
        Minimum log-objective improvement to keep growing — guards against
        cycling on ties introduced by floating-point noise.
    """
    log_weights = np.asarray(log_weights)
    if log_weights.ndim == 1:
        return greedy_map_labels(
            log_weights[None, :],
            inclusion,
            evidence=None if evidence is None else np.asarray(evidence)[None, :],
            max_labels=max_labels,
            min_gain=min_gain,
        )[0]
    n_clusters, n_labels = inclusion.shape
    if log_weights.ndim != 2 or log_weights.shape[1] != n_clusters:
        raise PredictionError("log_weights shape disagrees with inclusion matrix")
    n_items = log_weights.shape[0]
    cap = min(max_labels, n_labels) if max_labels > 0 else n_labels

    log_incl = safe_log(inclusion)
    log_excl = safe_log(1.0 - inclusion)
    log_odds = log_incl - log_excl  # (T, C)
    odds = np.exp(log_odds)
    evidence = np.zeros((n_items, n_labels)) if evidence is None else np.asarray(evidence)

    log_g = np.tile(log_excl.sum(axis=1), (n_items, 1))  # ln G_t(∅) per item
    current = logsumexp(log_weights + log_g, axis=1)
    chosen = np.zeros((n_items, n_labels), dtype=bool)
    growing = np.arange(n_items)
    for _ in range(cap):
        if not growing.size:
            break
        # obj[b, c] = logsumexp_t(ln w_bt + ln G_bt + log_odds_tc) + evidence_bc,
        # one (k, T) @ (T, C) matmul with the max over t shifted out.
        scores = log_weights[growing] + log_g[growing]
        peak = scores.max(axis=1, keepdims=True)
        cand = np.log(np.exp(scores - peak) @ odds) + peak + evidence[growing]
        cand[chosen[growing]] = -np.inf
        best = np.argmax(cand, axis=1)
        gain = cand[np.arange(growing.size), best]
        grows = gain > current[growing] + min_gain
        growing, best = growing[grows], best[grows]
        chosen[growing, best] = True
        log_g[growing] += log_odds[:, best].T + evidence[growing, best][:, None]
        current[growing] = gain[grows]

    posterior = np.exp(
        log_weights + log_g - logsumexp(log_weights + log_g, axis=1, keepdims=True)
    )
    label_sets, which = unique_patterns(chosen)
    sets = [frozenset(np.flatnonzero(row).tolist()) for row in label_sets]
    return [
        PredictionDetail(labels=sets[k], log_objective=objective, cluster_weights=weights)
        for k, objective, weights in zip(which.tolist(), current.tolist(), posterior)
    ]


def exhaustive_map_labels(
    log_weights: np.ndarray,
    inclusion: np.ndarray,
    *,
    evidence: Optional[np.ndarray] = None,
    limit: int = 16,
) -> PredictionDetail:
    """Exact ``2^C`` MAP search (tractable for small label spaces only).

    Used by the `No L` ablation study (paper §5.4 runs it on the movie
    dataset only) and by tests validating the greedy approximation.
    """
    n_clusters, n_labels = inclusion.shape
    if n_labels > limit:
        raise PredictionError(
            f"exhaustive search over {n_labels} labels exceeds the limit {limit}"
        )
    log_incl = safe_log(inclusion)
    log_excl = safe_log(1.0 - inclusion)
    log_odds = log_incl - log_excl
    if evidence is not None:
        log_odds = log_odds + np.asarray(evidence)[None, :]

    subsets = np.arange(2**n_labels, dtype=np.uint64)
    bits = (subsets[:, None] >> np.arange(n_labels, dtype=np.uint64)[None, :]) & 1
    bits = bits.astype(np.float64)  # (2^C, C)

    base = log_weights + log_excl.sum(axis=1)  # (T,)
    scores = logsumexp(base[None, :] + bits @ log_odds.T, axis=1)  # (2^C,)
    best = int(np.argmax(scores))
    labels = frozenset(int(c) for c in range(n_labels) if (best >> c) & 1)

    log_g = log_excl.sum(axis=1) + bits[best] @ log_odds.T
    posterior = np.exp(log_weights + log_g - logsumexp(log_weights + log_g))
    return PredictionDetail(
        labels=labels,
        log_objective=float(scores[best]),
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
    """Predict label sets for ``items`` (default: every item with answers).

    A repeated item is predicted once.  The greedy search runs
    :data:`BLOCK` items per call; ``exhaustive`` searches item by item on
    the same weights and evidence.
    """
    items = list(dict.fromkeys(requested_items(answers, items)))
    log_weights = item_cluster_log_weights(state, consensus, answers, items)
    if config.use_item_evidence and consensus.label_rates is not None:
        evidence = config.evidence_weight * item_evidence(
            state, consensus, answers, items
        )
    else:
        evidence = np.zeros((len(items), state.n_labels))

    if exhaustive:
        return {
            item: exhaustive_map_labels(
                log_weights[row],
                consensus.inclusion,
                evidence=evidence[row],
                limit=config.exhaustive_label_limit,
            )
            for row, item in enumerate(items)
        }
    results: Dict[int, PredictionDetail] = {}
    for lo in range(0, len(items), BLOCK):
        details = greedy_map_labels(
            log_weights[lo : lo + BLOCK],
            consensus.inclusion,
            evidence=evidence[lo : lo + BLOCK],
            max_labels=config.max_predicted_labels,
        )
        results.update(zip(items[lo : lo + BLOCK], details))
    return results


def label_probabilities(
    state: CPAState,
    consensus: ClusterConsensus,
    answers: AnswerMatrix,
    config: Optional[CPAConfig] = None,
    items: Optional[Sequence[int]] = None,
    *,
    evidence_weight: Optional[float] = None,
) -> np.ndarray:
    """Marginal per-label posterior inclusion probabilities.

    The cluster-mixture prior ``Σ_t ŵ_it φ̂_tc`` is combined (in log-odds
    space) with the per-item evidence of :func:`item_evidence` when
    available.  A soft alternative to the MAP set — useful for ranking and
    threshold sweeps.  Rows align with ``items`` (default: all items that
    received answers).

    Evidence weighting follows the same rules as :func:`predict_items`:
    with a ``config``, evidence applies iff ``config.use_item_evidence``
    at strength ``config.evidence_weight`` — so ``predict_proba`` and
    ``predict`` agree on whether evidence is used at all.  An explicit
    ``evidence_weight`` overrides the config (``0`` disables evidence);
    without either, evidence applies at weight 1.
    """
    if evidence_weight is None:
        if config is not None:
            evidence_weight = (
                config.evidence_weight if config.use_item_evidence else 0.0
            )
        else:
            evidence_weight = 1.0
    items = requested_items(answers, items)
    log_w = item_cluster_log_weights(state, consensus, answers, items)
    norm = logsumexp(log_w, axis=1, keepdims=True)
    weights = np.exp(log_w - norm)
    prior = np.clip(weights @ consensus.inclusion, 1e-6, 1.0 - 1e-6)
    logits = np.log(prior) - np.log1p(-prior)
    if evidence_weight > 0 and consensus.label_rates is not None:
        logits += evidence_weight * item_evidence(state, consensus, answers, items)
    return 1.0 / (1.0 + np.exp(-logits))
