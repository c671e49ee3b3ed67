"""Per-label binary decomposition of partial-agreement answers.

The baseline methods treat "the multi-label problem as several instances of
a single-label problem (each worker giving a Boolean answer for a given
label)" (paper §5.1).  A :class:`BinaryLabelView` is one such instance: for
a fixed label ``c``, every recorded answer ``(i, u)`` becomes a binary vote
— 1 if the worker's label set contains ``c``, else 0.  Note the information
loss the paper highlights: *not* including a label is indistinguishable
from voting against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.answers import AnswerMatrix


@dataclass(frozen=True)
class BinaryLabelView:
    """The single-label binary instance for one label.

    Attributes
    ----------
    label:
        The label index this view binarises.
    items / workers:
        Parallel arrays over all recorded answers.
    votes:
        Parallel 0/1 array: did the answer include the label?
    n_items / n_workers:
        Index-space sizes of the underlying matrix.
    """

    label: int
    items: np.ndarray
    workers: np.ndarray
    votes: np.ndarray
    n_items: int
    n_workers: int

    @property
    def n_answers(self) -> int:
        return int(self.items.size)


def binary_label_views(matrix: AnswerMatrix) -> Iterator[BinaryLabelView]:
    """Yield the binary view of every label, sharing the flat answer arrays."""
    items, workers, indicators = matrix.to_arrays()
    for label in range(matrix.n_labels):
        yield BinaryLabelView(
            label=label,
            items=items,
            workers=workers,
            votes=indicators[:, label],
            n_items=matrix.n_items,
            n_workers=matrix.n_workers,
        )


def assemble_predictions(
    per_label_probability: np.ndarray, matrix: AnswerMatrix, threshold: float = 0.5
) -> dict[int, frozenset[int]]:
    """Combine per-label acceptance probabilities into label sets.

    ``per_label_probability`` is ``(I, C)``; a label enters an item's
    prediction when its probability exceeds ``threshold`` (the paper's 0.5
    rule).  Only items with at least one answer are returned.
    """
    predictions: dict[int, frozenset[int]] = {}
    for item in matrix.answered_items():
        accepted = np.flatnonzero(per_label_probability[item] > threshold)
        predictions[item] = frozenset(int(c) for c in accepted)
    return predictions
