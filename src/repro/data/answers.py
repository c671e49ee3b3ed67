"""The partial-agreement answer matrix (paper §2.2).

An :class:`AnswerMatrix` stores, for item ``i`` and worker ``u``, the label
*set* ``x_iu ⊆ Z`` the worker assigned — or nothing at all if the worker
never saw the item.  The distinction between "answered with the empty set"
and "did not answer" matters: the paper treats only non-empty answers as
observations, and this class enforces that an explicit answer carries at
least one label.

Storage is the flat layout the vectorised inference reads: one row per
answer, in insertion order, held in three arrays (item index, worker index,
0/1 label indicators) that grow by doubling.  :meth:`AnswerMatrix.to_arrays`
returns views of the filled rows, every other view (a pair's label set, an
item's workers, ...) is computed from them, and
:meth:`AnswerMatrix.from_arrays` adopts an export after whole-array checks
(the serving snapshot's answer section).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple

import numpy as np

from repro.errors import ValidationError


@dataclass(frozen=True)
class Answer:
    """One worker's answer to one item: a non-empty set of label indices."""

    item: int
    worker: int
    labels: FrozenSet[int]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValidationError("an explicit answer must carry at least one label")


class AnswerMatrix:
    """Sparse ``I × U`` matrix of label sets, stored as its array export.

    Row ``k`` of the ``items``, ``workers`` and ``indicators`` arrays is one
    answer; rows are in insertion order, an overwrite keeps its row and a
    :meth:`remove` deletes it.  An export (:meth:`to_arrays`) is never
    written afterwards: new answers go to rows past it, and the first
    overwrite after an export moves the label rows to fresh arrays.  Pair
    lookups (:meth:`add`, :meth:`get`, ``in``, :meth:`remove`,
    :meth:`subset`) go through a ``{(item, worker): row}`` index built on
    first use, so a matrix that is only restored and read holds no
    per-answer Python object.

    Parameters
    ----------
    n_items, n_workers, n_labels:
        Sizes of the item, worker, and label index spaces.  Items, workers
        and labels are referred to by integer index throughout the library
        (names live on :class:`repro.data.dataset.CrowdDataset`).
    """

    def __init__(self, n_items: int, n_workers: int, n_labels: int) -> None:
        for name, value in (
            ("n_items", n_items),
            ("n_workers", n_workers),
            ("n_labels", n_labels),
        ):
            if int(value) != value or value <= 0:
                raise ValidationError(f"{name} must be a positive integer, got {value}")
        self.n_items = int(n_items)
        self.n_workers = int(n_workers)
        self.n_labels = int(n_labels)
        self._hold(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, self.n_labels)))

    def _hold(self, items: np.ndarray, workers: np.ndarray, indicators: np.ndarray) -> AnswerMatrix:
        """Make the given arrays, validated and shared with nothing, this
        matrix's rows; returns the matrix."""
        self._items, self._workers, self._indicators = items, workers, indicators
        self._n = items.size
        self._index: Dict[Tuple[int, int], int] | None = None
        self._exported = False
        return self

    @property
    def _sizes(self) -> Tuple[int, int, int]:
        return (self.n_items, self.n_workers, self.n_labels)

    def _filled(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self._n
        return self._items[:n], self._workers[:n], self._indicators[:n]

    def _pair_index(self) -> Dict[Tuple[int, int], int]:
        if self._index is None:
            items, workers, _ = self._filled()
            self._index = dict(zip(zip(items.tolist(), workers.tolist()), range(self._n)))
        return self._index

    def _reserve(self, n: int) -> None:
        """Grow the buffers by doubling to hold ``n`` rows; unfilled rows are zero."""
        if n > len(self._items):
            pad = max(n, 2 * len(self._items), 16) - self._n
            self._items, self._workers, self._indicators = (
                np.concatenate([array, np.zeros((pad,) + array.shape[1:], array.dtype)])
                for array in self._filled()
            )
            self._exported = False

    def _own_labels(self) -> None:
        """Move the label rows off an export before one is overwritten."""
        if self._exported:
            self._indicators = self._indicators.copy()
            self._exported = False

    # ------------------------------------------------------------------ build

    def _check_indices(self, item: int, worker: int) -> Tuple[int, int]:
        item, worker = int(item), int(worker)
        if not 0 <= item < self.n_items:
            raise ValidationError(f"item index {item} out of range [0, {self.n_items})")
        if not 0 <= worker < self.n_workers:
            raise ValidationError(
                f"worker index {worker} out of range [0, {self.n_workers})"
            )
        return item, worker

    def _check_labels(self, labels: Iterable[int]) -> FrozenSet[int]:
        label_set = frozenset(int(label) for label in labels)
        if not label_set:
            raise ValidationError("an answer must contain at least one label")
        bad = [label for label in label_set if not 0 <= label < self.n_labels]
        if bad:
            raise ValidationError(
                f"label indices {sorted(bad)} out of range [0, {self.n_labels})"
            )
        return label_set

    def add(self, item: int, worker: int, labels: Iterable[int]) -> None:
        """Record worker ``worker``'s answer for ``item``.

        Overwrites any previous answer by the same worker for the same item
        (a worker gives one answer per item in the paper's setting), in its
        row; a new pair is appended.
        """
        item, worker = self._check_indices(item, worker)
        label_set = self._check_labels(labels)
        row = self._pair_index().setdefault((item, worker), self._n)
        if row == self._n:
            if row == len(self._items):
                self._reserve(row + 1)
            self._items[row] = item
            self._workers[row] = worker
            self._n += 1
        else:
            self._own_labels()
            self._indicators[row] = 0.0
        indicators = self._indicators
        for label in label_set:
            indicators[row, label] = 1.0

    def update(self, other: "AnswerMatrix") -> None:
        """Record every answer of ``other`` as :meth:`add` would, in its row
        order.  ``other`` may span smaller index spaces than this matrix (a
        serving batch minted before the engine grew), not larger ones."""
        if any(theirs > ours for theirs, ours in zip(other._sizes, self._sizes)):
            raise ValidationError(f"cannot record the answers of {other!r} in {self!r}")
        items, workers, indicators = other.to_arrays()
        index = self._pair_index()
        pairs = zip(items.tolist(), workers.tolist())
        # a new pair takes the next row: the index holds one entry per row
        rows = np.fromiter((index.setdefault(p, len(index)) for p in pairs), np.int64, items.size)
        old, new = self._n, len(index)
        self._reserve(new)
        if new - old < rows.size:
            self._own_labels()
        self._items[old:new] = items[rows >= old]
        self._workers[old:new] = workers[rows >= old]
        self._indicators[rows] = 0.0
        self._indicators[rows, : other.n_labels] = indicators
        self._n = new

    def remove(self, item: int, worker: int) -> None:
        """Delete the answer of ``worker`` for ``item`` (must exist)."""
        item, worker = self._check_indices(item, worker)
        row = self._pair_index().get((item, worker))
        if row is None:
            raise ValidationError(f"no answer recorded for item {item}, worker {worker}")
        self._hold(*(np.delete(array, row, axis=0) for array in self._filled()))

    # ------------------------------------------------------------------ query

    def get(self, item: int, worker: int) -> FrozenSet[int] | None:
        """The label set for ``(item, worker)``, or ``None`` if unanswered."""
        item, worker = self._check_indices(item, worker)
        row = self._pair_index().get((item, worker))
        if row is None:
            return None
        return frozenset(self._indicators[row].nonzero()[0].tolist())

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return tuple(key) in self._pair_index()

    def __len__(self) -> int:
        return self._n

    @property
    def n_answers(self) -> int:
        """Number of (item, worker) pairs with a recorded answer."""
        return self._n

    def workers_for_item(self, item: int) -> List[int]:
        """Workers who answered ``item`` (paper's ``U_i``), in insertion order."""
        items, workers, _ = self._filled()
        return workers[items == int(item)].tolist()

    def items_for_worker(self, worker: int) -> List[int]:
        """Items answered by ``worker``, in insertion order."""
        items, workers, _ = self._filled()
        return items[workers == int(worker)].tolist()

    def answered_items(self) -> List[int]:
        """Sorted list of items with at least one answer."""
        return np.flatnonzero(np.bincount(self._filled()[0], minlength=self.n_items)).tolist()

    def active_workers(self) -> List[int]:
        """Sorted list of workers with at least one answer."""
        return np.flatnonzero(np.bincount(self._filled()[1], minlength=self.n_workers)).tolist()

    def iter_answers(self) -> Iterator[Answer]:
        """Iterate over all answers in insertion order (answers with equal
        label sets share one ``frozenset``)."""
        items, workers, indicators = self._filled()
        codes = np.packbits(indicators != 0.0, axis=1)
        codes = codes.view(np.dtype((np.void, codes.shape[1]))).ravel()
        _, first, which = np.unique(codes, return_index=True, return_inverse=True)
        label_sets = [frozenset(indicators[row].nonzero()[0].tolist()) for row in first]
        for item, worker, k in zip(items.tolist(), workers.tolist(), which.tolist()):
            yield Answer(item=item, worker=worker, labels=label_sets[k])

    def sparsity(self) -> float:
        """Fraction of the full ``I × U`` grid that is *unanswered*."""
        return 1.0 - self.n_answers / (self.n_items * self.n_workers)

    def label_counts(self) -> np.ndarray:
        """How many answers include each label (length-``C`` vector): a
        column sum of the indicator matrix of :meth:`to_arrays`."""
        _, _, indicators = self.to_arrays()
        return indicators.sum(axis=0).astype(np.int64)

    def cooccurrence_counts(self) -> np.ndarray:
        """Symmetric ``C × C`` matrix of within-answer label co-occurrences.

        The diagonal holds per-label answer counts; off-diagonal entry
        ``(a, b)`` counts answers containing both ``a`` and ``b`` (the raw
        statistic behind the paper's Fig 1 graph).  Computed as the Gram
        matrix ``Xᵀ X`` of the 0/1 indicator matrix.
        """
        _, _, indicators = self.to_arrays()
        return np.rint(indicators.T @ indicators).astype(np.int64)

    # --------------------------------------------------------------- export

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten to ``(item_idx, worker_idx, label_indicators)`` arrays.

        One row per answer in insertion order; ``label_indicators`` is an
        ``(n_answers, C)`` float matrix of 0/1 rows — the representation
        consumed by the vectorised inference kernels.  The arrays are
        read-only views of the matrix's rows (no copy), never written
        afterwards, so an earlier result stays valid.
        """
        self._exported = True
        arrays = self._filled()
        for array in arrays:
            array.flags.writeable = False
        return arrays

    # ----------------------------------------------------------- transform

    def take(self, rows: np.ndarray) -> "AnswerMatrix":
        """A new matrix of the given rows (positions in :meth:`to_arrays`,
        each at most once), in that order; builds no pair index."""
        items, workers, indicators = self._filled()
        return AnswerMatrix(*self._sizes)._hold(items[rows], workers[rows], indicators[rows])

    def copy(self) -> "AnswerMatrix":
        """Deep copy."""
        return self.take(np.arange(self._n))

    def subset(self, pairs: Iterable[Tuple[int, int]]) -> "AnswerMatrix":
        """A new matrix containing only the given ``(item, worker)`` pairs.

        Rows follow ``pairs``; a repeated pair keeps its first position.
        """
        index = self._pair_index()
        rows = []
        for item, worker in pairs:
            row = index.get(self._check_indices(item, worker))
            if row is None:
                raise ValidationError(
                    f"cannot subset: pair (item={item}, worker={worker}) not answered"
                )
            rows.append(row)
        rows = np.array(rows, dtype=np.int64)
        _, first = np.unique(rows, return_index=True)
        return self.take(rows[np.sort(first)])

    def resized(self, n_items: int, n_workers: int, n_labels: int) -> "AnswerMatrix":
        """A copy over grown index spaces (each size ≥ the current one).

        The serving layer uses this when new items/workers/labels appear
        mid-stream (see :meth:`repro.core.online.ConsensusEngine.grow`): all
        recorded answers keep their coordinates, the spaces just widen.
        """
        if any(new < old for new, old in zip((n_items, n_workers, n_labels), self._sizes)):
            raise ValidationError(
                f"resized() cannot shrink: have {self._sizes}, "
                f"requested ({n_items}, {n_workers}, {n_labels})"
            )
        clone = AnswerMatrix(n_items, n_workers, n_labels)
        items, workers, indicators = self._filled()
        wide = np.zeros((self._n, clone.n_labels), dtype=np.float64)
        wide[:, : self.n_labels] = indicators
        return clone._hold(items.copy(), workers.copy(), wide)

    def merged_with(self, other: "AnswerMatrix") -> "AnswerMatrix":
        """Union of two matrices over the same index spaces.

        ``other`` wins on conflicting pairs; sizes must match exactly.
        """
        if other._sizes != self._sizes:
            raise ValidationError("cannot merge answer matrices of different shapes")
        clone = self.copy()
        clone.update(other)
        return clone

    @classmethod
    def from_mapping(
        cls,
        n_items: int,
        n_workers: int,
        n_labels: int,
        entries: Mapping[Tuple[int, int], Iterable[int]],
    ) -> "AnswerMatrix":
        """Build from a ``{(item, worker): labels}`` mapping."""
        matrix = cls(n_items, n_workers, n_labels)
        for (item, worker), labels in entries.items():
            matrix.add(item, worker, labels)
        return matrix

    @classmethod
    def from_arrays(
        cls,
        n_items: int,
        n_workers: int,
        n_labels: int,
        items: np.ndarray,
        workers: np.ndarray,
        indicators: np.ndarray,
    ) -> "AnswerMatrix":
        """The inverse of :meth:`to_arrays`: ``from_arrays(*sizes, *m.to_arrays())``.

        Row ``k`` is worker ``workers[k]``'s answer to item ``items[k]``,
        with the labels where ``indicators[k]`` is 1, so every order the
        exported matrix reports is kept.  Whole-array checks (shapes, index
        ranges, 0/1 rows with at least one label, no repeated pair) raise
        :class:`~repro.errors.ValidationError`; the matrix adopts copies of
        the validated arrays.
        """
        matrix = cls(n_items, n_workers, n_labels)
        n_items, n_workers, n_labels = matrix._sizes
        items, workers = np.asarray(items), np.asarray(workers)
        indicators = np.asarray(indicators)
        n = items.size
        if items.ndim != 1 or workers.shape != items.shape or indicators.shape != (n, n_labels):
            raise ValidationError(
                f"from_arrays expects items and workers of shape (N,) and "
                f"indicators of shape (N, {n_labels}); got "
                f"{items.shape}, {workers.shape} and {indicators.shape}"
            )
        if items.dtype.kind not in "iu" or workers.dtype.kind not in "iu":
            raise ValidationError("item and worker indices must be integers")
        if indicators.dtype.kind not in "biuf":
            raise ValidationError("label indicators must be numeric 0/1 values")
        items = items.astype(np.int64)
        workers = workers.astype(np.int64)
        indicators = indicators.astype(np.float64, order="C")
        for name, index, size in (("item", items, n_items), ("worker", workers, n_workers)):
            bad = (index < 0) | (index >= size)
            if bad.any():
                raise ValidationError(
                    f"{name} index {int(index[bad][0])} out of range [0, {size})"
                )
        present = indicators == 1.0
        if not (present | (indicators == 0.0)).all():
            raise ValidationError("label indicators must be 0 or 1")
        empty = ~present.any(axis=1)
        if empty.any():
            raise ValidationError(f"answer row {int(np.argmax(empty))} carries no label")
        pairs, counts = np.unique(items * n_workers + workers, return_counts=True)
        if pairs.size != n:
            item, worker = divmod(int(pairs[np.argmax(counts)]), n_workers)
            raise ValidationError(f"pair (item={item}, worker={worker}) appears more than once")
        return matrix._hold(items, workers, indicators)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnswerMatrix(items={self.n_items}, workers={self.n_workers}, "
            f"labels={self.n_labels}, answers={self.n_answers})"
        )
