"""Set-based precision and recall (paper §5.1 "Metrics").

Per item ``i``: precision ``P_i = |Y_i ∩ Y*_i| / |Y*_i|`` (correct
predicted labels over predicted labels) and recall
``R_i = |Y_i ∩ Y*_i| / |Y_i|`` (correct predicted labels over true
labels); dataset-level values are plain averages over items.  Edge cases
are made explicit here because partial-agreement predictions can be empty:
an empty prediction scores precision 1 against an empty truth set and 0
otherwise, mirroring the usual information-retrieval convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Mapping, Optional, Sequence

from repro.data.dataset import CrowdDataset, GroundTruth
from repro.errors import ValidationError


@dataclass(frozen=True)
class EvaluationResult:
    """Dataset-level evaluation of one prediction map."""

    precision: float
    recall: float
    n_items: int

    @property
    def f1(self) -> float:
        """Harmonic mean of the averaged precision and recall."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def item_precision_recall(
    predicted: AbstractSet[int], truth: AbstractSet[int]
) -> tuple[float, float]:
    """``(P_i, R_i)`` for one item (edge cases per module docstring)."""
    correct = len(set(predicted) & set(truth))
    if predicted:
        precision = correct / len(predicted)
    else:
        precision = 1.0 if not truth else 0.0
    if truth:
        recall = correct / len(truth)
    else:
        recall = 1.0 if not predicted else 0.0
    return precision, recall


def evaluate_predictions(
    predictions: Mapping[int, FrozenSet[int]],
    truth: GroundTruth | CrowdDataset,
    items: Optional[Sequence[int]] = None,
) -> EvaluationResult:
    """Average set-based precision/recall of ``predictions`` against truth.

    Only items with *known* truth are scored.  ``items`` restricts scoring
    to a subset (e.g. the answered items of a sparsified dataset); items in
    the restriction that are missing from ``predictions`` are scored as
    empty predictions — a method that declines to answer is penalised, not
    skipped.
    """
    if isinstance(truth, CrowdDataset):
        truth = truth.truth
    if items is None:
        scored_items = truth.known_items()
    else:
        scored_items = [int(i) for i in items if truth.get(int(i)) is not None]
    if not scored_items:
        raise ValidationError("no items with known truth to evaluate")

    total_p = total_r = 0.0
    for item in scored_items:
        true_labels = truth.get(item)
        assert true_labels is not None
        predicted = predictions.get(item, frozenset())
        p, r = item_precision_recall(predicted, true_labels)
        total_p += p
        total_r += r
    n = len(scored_items)
    return EvaluationResult(precision=total_p / n, recall=total_r / n, n_items=n)


def delta_ratio(perturbed: float, baseline: float) -> float:
    """Performance retained under perturbation (Figs 4 and 5's ``Δ`` axis).

    ``perturbed / baseline``, clamped into ``[0, ∞)``; a value of 1 means
    the perturbation cost nothing, 0.5 means half the metric was lost.
    Returns 0 when the unperturbed baseline is itself 0.
    """
    if baseline <= 0:
        return 0.0
    return max(perturbed, 0.0) / baseline


def micro_precision_recall(
    predictions: Mapping[int, FrozenSet[int]],
    truth: GroundTruth | CrowdDataset,
    items: Optional[Sequence[int]] = None,
) -> tuple[float, float]:
    """Micro-averaged (label-occurrence level) precision and recall.

    A secondary metric — not used by the paper's tables, but useful when
    comparing datasets with very different label-set sizes.
    """
    if isinstance(truth, CrowdDataset):
        truth = truth.truth
    scored = items if items is not None else truth.known_items()
    tp = fp = fn = 0
    for item in scored:
        true_labels = truth.get(int(item))
        if true_labels is None:
            continue
        predicted = set(predictions.get(int(item), frozenset()))
        tp += len(predicted & true_labels)
        fp += len(predicted - true_labels)
        fn += len(true_labels - predicted)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return precision, recall


def prediction_size_histogram(
    predictions: Mapping[int, FrozenSet[int]]
) -> Dict[int, int]:
    """Histogram of predicted label-set sizes (diagnostic)."""
    histogram: Dict[int, int] = {}
    for labels in predictions.values():
        histogram[len(labels)] = histogram.get(len(labels), 0) + 1
    return dict(sorted(histogram.items()))
