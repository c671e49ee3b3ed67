"""Dataset statistics mirroring the paper's Table 3, plus structural
descriptors (label correlation, answer-distribution skew) used to verify
that the simulated scenarios exhibit the characteristics the paper reports
for its real datasets (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.data.dataset import CrowdDataset


@dataclass(frozen=True)
class DatasetStatistics:
    """Summary statistics for one dataset (rows of paper Table 3 + extras)."""

    name: str
    n_items: int
    n_labels: int
    n_questions: int
    n_workers_active: int
    n_answers: int
    answers_per_item_mean: float
    answers_per_worker_mean: float
    labels_per_answer_mean: float
    labels_per_item_truth_mean: float
    sparsity: float
    label_correlation: float
    worker_skewness: float

    def as_row(self) -> Tuple[object, ...]:
        """Row for :func:`repro.utils.tables.format_table` (Table-3 layout)."""
        return (
            self.name,
            self.n_items,
            self.n_labels,
            self.n_questions,
            self.n_workers_active,
            self.n_answers,
            self.sparsity,
            self.label_correlation,
        )

    @staticmethod
    def headers() -> Tuple[str, ...]:
        """Column headers matching :meth:`as_row`."""
        return (
            "dataset",
            "#items",
            "#labels",
            "#questions",
            "#workers",
            "#answers",
            "sparsity",
            "label-corr",
        )


def _phi_correlation(indicators: np.ndarray, top_fraction: float = 0.1) -> float:
    """Strength of the strongest label correlations (top-decile mean |phi|).

    Pairwise phi coefficients (Pearson on binaries) are computed over the
    answer-level indicator matrix; the mean of the strongest
    ``top_fraction`` of |phi| values is reported.  Averaging over *all*
    pairs would dilute thematic co-occurrence (most label pairs are
    unrelated in every dataset); the top-decile mean separates datasets
    with coherent label themes from those where labels co-occur only by
    chance — the paper's "strongly correlated" vs "little correlation"
    distinction.
    """
    if indicators.shape[0] < 2:
        return 0.0
    used = indicators.std(axis=0) > 0
    if used.sum() < 2:
        return 0.0
    sub = indicators[:, used]
    corr = np.corrcoef(sub, rowvar=False)
    c = corr.shape[0]
    upper = np.abs(corr[np.triu_indices(c, k=1)])
    upper = upper[np.isfinite(upper)]
    if upper.size == 0:
        return 0.0
    k = max(1, int(round(top_fraction * upper.size)))
    strongest = np.sort(upper)[-k:]
    return float(strongest.mean())


def _skewness(values: np.ndarray) -> float:
    """Sample skewness (Fisher-Pearson); 0 for degenerate distributions."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return 0.0
    centred = values - values.mean()
    std = centred.std()
    if std == 0:
        return 0.0
    return float(np.mean(centred**3) / std**3)


def compute_statistics(dataset: CrowdDataset) -> DatasetStatistics:
    """Compute the full statistics block for ``dataset``."""
    matrix = dataset.answers
    _, workers, indicators = matrix.to_arrays()

    answered_items = matrix.answered_items()
    per_item = np.array(
        [len(matrix.workers_for_item(i)) for i in answered_items], dtype=float
    )
    worker_counts = np.bincount(workers, minlength=matrix.n_workers).astype(float)
    active = worker_counts[worker_counts > 0]

    labels_per_answer = indicators.sum(axis=1) if len(matrix) else np.zeros(0)
    truth_sizes = [len(labels) for _, labels in dataset.truth.items()]

    return DatasetStatistics(
        name=dataset.name,
        n_items=matrix.n_items,
        n_labels=matrix.n_labels,
        n_questions=len(answered_items),
        n_workers_active=int((worker_counts > 0).sum()),
        n_answers=matrix.n_answers,
        answers_per_item_mean=float(per_item.mean()) if per_item.size else 0.0,
        answers_per_worker_mean=float(active.mean()) if active.size else 0.0,
        labels_per_answer_mean=(
            float(labels_per_answer.mean()) if labels_per_answer.size else 0.0
        ),
        labels_per_item_truth_mean=(
            float(np.mean(truth_sizes)) if truth_sizes else 0.0
        ),
        sparsity=matrix.sparsity(),
        label_correlation=_phi_correlation(indicators),
        worker_skewness=_skewness(active) if active.size else 0.0,
    )
