"""The partial-agreement answer matrix (paper §2.2).

An :class:`AnswerMatrix` stores, for item ``i`` and worker ``u``, the label
*set* ``x_iu ⊆ Z`` the worker assigned — or nothing at all if the worker
never saw the item.  The distinction between "answered with the empty set"
and "did not answer" matters: the paper treats only non-empty answers as
observations, and this class enforces that an explicit answer carries at
least one label.

Storage is sparse (a dict keyed by ``(item, worker)``) with per-item and
per-worker indices maintained incrementally, plus a cached conversion to the
flat numpy layout used by vectorised inference.  The cached export grows by
appending when new pairs arrive, and :meth:`AnswerMatrix.from_arrays`
rebuilds a matrix from an export (the serving snapshot's answer section).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Collection, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple

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
    """Sparse ``I × U`` matrix of label sets with vectorised export.

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
        self._entries: Dict[Tuple[int, int], FrozenSet[int]] = {}
        self._by_item: Dict[int, List[int]] = {}
        self._by_worker: Dict[int, List[int]] = {}
        self._arrays_cache: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

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
        (a worker gives one answer per item in the paper's setting).  A new
        pair keeps the cached export, which :meth:`to_arrays` extends; an
        overwrite changes an exported row and drops it.
        """
        item, worker = self._check_indices(item, worker)
        label_set = self._check_labels(labels)
        if (item, worker) in self._entries:
            self._arrays_cache = None
        else:
            self._by_item.setdefault(item, []).append(worker)
            self._by_worker.setdefault(worker, []).append(item)
        self._entries[(item, worker)] = label_set

    def remove(self, item: int, worker: int) -> None:
        """Delete the answer of ``worker`` for ``item`` (must exist)."""
        item, worker = self._check_indices(item, worker)
        if (item, worker) not in self._entries:
            raise ValidationError(f"no answer recorded for item {item}, worker {worker}")
        del self._entries[(item, worker)]
        self._by_item[item].remove(worker)
        if not self._by_item[item]:
            del self._by_item[item]
        self._by_worker[worker].remove(item)
        if not self._by_worker[worker]:
            del self._by_worker[worker]
        self._arrays_cache = None

    # ------------------------------------------------------------------ query

    def get(self, item: int, worker: int) -> FrozenSet[int] | None:
        """The label set for ``(item, worker)``, or ``None`` if unanswered."""
        item, worker = self._check_indices(item, worker)
        return self._entries.get((item, worker))

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return tuple(key) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def n_answers(self) -> int:
        """Number of (item, worker) pairs with a recorded answer."""
        return len(self._entries)

    def workers_for_item(self, item: int) -> List[int]:
        """Workers who answered ``item`` (paper's ``U_i``), in insertion order."""
        item = int(item)
        return list(self._by_item.get(item, []))

    def items_for_worker(self, worker: int) -> List[int]:
        """Items answered by ``worker``, in insertion order."""
        worker = int(worker)
        return list(self._by_worker.get(worker, []))

    def answered_items(self) -> List[int]:
        """Sorted list of items with at least one answer."""
        return sorted(self._by_item)

    def active_workers(self) -> List[int]:
        """Sorted list of workers with at least one answer."""
        return sorted(self._by_worker)

    def iter_answers(self) -> Iterator[Answer]:
        """Iterate over all answers in insertion order."""
        for (item, worker), labels in self._entries.items():
            yield Answer(item=item, worker=worker, labels=labels)

    def sparsity(self) -> float:
        """Fraction of the full ``I × U`` grid that is *unanswered*."""
        return 1.0 - self.n_answers / (self.n_items * self.n_workers)

    def label_counts(self) -> np.ndarray:
        """How many answers include each label (length-``C`` vector).

        Derived from the indicator matrix of :meth:`to_arrays` (a column
        sum), so it shares the cached vectorised export.
        """
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
        consumed by the vectorised inference kernels.  Built with array ops
        (one flat pass over the label sets feeding a fancy-index
        assignment) and cached.  New pairs added since the last export are
        appended to the cached arrays, so the Python-level work covers only
        them; an overwrite or :meth:`remove` drops the cache and the next
        call rebuilds.  Either way the result equals a fresh export.  The
        returned arrays are never written afterwards: an append builds new
        arrays, so an earlier result stays valid.
        """
        cache = self._arrays_cache
        n = len(self._entries)
        if cache is not None and cache[0].size == n:
            return cache
        if cache is None:
            self._arrays_cache = self._export_rows(
                self._entries.keys(), self._entries.values(), n
            )
        else:
            # New pairs sit at the end of the insertion-ordered dict.
            tail = list(islice(reversed(self._entries.items()), n - cache[0].size))
            keys, label_sets = zip(*reversed(tail))
            new = self._export_rows(keys, label_sets, len(tail))
            self._arrays_cache = tuple(np.concatenate(parts) for parts in zip(cache, new))
        return self._arrays_cache

    def _export_rows(
        self,
        keys: Iterable[Tuple[int, int]],
        label_sets: Collection[FrozenSet[int]],
        n: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Export arrays of ``n`` answers given as ``(item, worker)`` keys
        and label sets."""
        pairs = np.fromiter(
            (index for pair in keys for index in pair),
            dtype=np.int64,
            count=2 * n,
        ).reshape(n, 2)
        lengths = np.fromiter(
            (len(labels) for labels in label_sets), dtype=np.int64, count=n
        )
        flat_labels = np.fromiter(
            (label for labels in label_sets for label in labels),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        indicators = np.zeros((n, self.n_labels), dtype=np.float64)
        indicators[np.repeat(np.arange(n), lengths), flat_labels] = 1.0
        items = np.ascontiguousarray(pairs[:, 0])
        workers = np.ascontiguousarray(pairs[:, 1])
        return items, workers, indicators

    # ----------------------------------------------------------- transform

    def copy(self) -> "AnswerMatrix":
        """Deep copy (label sets are immutable and shared)."""
        clone = AnswerMatrix(self.n_items, self.n_workers, self.n_labels)
        for (item, worker), labels in self._entries.items():
            clone._entries[(item, worker)] = labels
            clone._by_item.setdefault(item, []).append(worker)
            clone._by_worker.setdefault(worker, []).append(item)
        return clone

    def subset(self, pairs: Iterable[Tuple[int, int]]) -> "AnswerMatrix":
        """A new matrix containing only the given ``(item, worker)`` pairs."""
        clone = AnswerMatrix(self.n_items, self.n_workers, self.n_labels)
        for item, worker in pairs:
            labels = self.get(item, worker)
            if labels is None:
                raise ValidationError(
                    f"cannot subset: pair (item={item}, worker={worker}) not answered"
                )
            clone.add(item, worker, labels)
        return clone

    def resized(self, n_items: int, n_workers: int, n_labels: int) -> "AnswerMatrix":
        """A copy over grown index spaces (each size ≥ the current one).

        The serving layer uses this when new items/workers/labels appear
        mid-stream (see :meth:`repro.serve.ConsensusEngine.grow`): all
        recorded answers keep their coordinates, the spaces just widen.
        """
        if (
            n_items < self.n_items
            or n_workers < self.n_workers
            or n_labels < self.n_labels
        ):
            raise ValidationError(
                f"resized() cannot shrink: have "
                f"({self.n_items}, {self.n_workers}, {self.n_labels}), "
                f"requested ({n_items}, {n_workers}, {n_labels})"
            )
        clone = AnswerMatrix(n_items, n_workers, n_labels)
        for (item, worker), labels in self._entries.items():
            clone._entries[(item, worker)] = labels
            clone._by_item.setdefault(item, []).append(worker)
            clone._by_worker.setdefault(worker, []).append(item)
        return clone

    def merged_with(self, other: "AnswerMatrix") -> "AnswerMatrix":
        """Union of two matrices over the same index spaces.

        ``other`` wins on conflicting pairs; sizes must match exactly.
        """
        if (other.n_items, other.n_workers, other.n_labels) != (
            self.n_items,
            self.n_workers,
            self.n_labels,
        ):
            raise ValidationError("cannot merge answer matrices of different shapes")
        clone = self.copy()
        for answer in other.iter_answers():
            clone.add(answer.item, answer.worker, answer.labels)
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
        with the labels where ``indicators[k]`` is 1.  Rows are inserted in
        order, so every order :meth:`iter_answers`, :meth:`workers_for_item`,
        :meth:`items_for_worker` and :meth:`to_arrays` report is the
        exported matrix's.  Whole-array checks (shapes, index ranges, 0/1
        rows with at least one label, no repeated pair) raise
        :class:`~repro.errors.ValidationError`; copies of the validated
        arrays seed the export.
        """
        matrix = cls(n_items, n_workers, n_labels)
        items, workers = np.asarray(items), np.asarray(workers)
        indicators = np.asarray(indicators)
        n = items.size
        if (
            items.ndim != 1
            or workers.shape != items.shape
            or indicators.shape != (n, matrix.n_labels)
        ):
            raise ValidationError(
                f"from_arrays expects items and workers of shape (N,) and "
                f"indicators of shape (N, {matrix.n_labels}); got "
                f"{items.shape}, {workers.shape} and {indicators.shape}"
            )
        if items.dtype.kind not in "iu" or workers.dtype.kind not in "iu":
            raise ValidationError("item and worker indices must be integers")
        if indicators.dtype.kind not in "biuf":
            raise ValidationError("label indicators must be numeric 0/1 values")
        items = items.astype(np.int64)
        workers = workers.astype(np.int64)
        indicators = indicators.astype(np.float64)
        for name, index, size in (
            ("item", items, matrix.n_items),
            ("worker", workers, matrix.n_workers),
        ):
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
            raise ValidationError(
                f"answer row {int(np.argmax(empty))} carries no label"
            )

        # One frozenset per distinct label set, shared by its answers.
        # Building every dict view in one pass over the rows beats
        # vectorised grouping here.
        codes = np.packbits(present, axis=1)
        codes = codes.view(np.dtype((np.void, codes.shape[1]))).ravel()
        _, first, which = np.unique(codes, return_index=True, return_inverse=True)
        label_sets = [
            frozenset(np.flatnonzero(present[row]).tolist()) for row in first.tolist()
        ]
        entries, by_item, by_worker = matrix._entries, matrix._by_item, matrix._by_worker
        for item, worker, label_set in zip(items.tolist(), workers.tolist(), which.tolist()):
            entries[item, worker] = label_sets[label_set]
            by_item.setdefault(item, []).append(worker)
            by_worker.setdefault(worker, []).append(item)
        if len(entries) != n:
            pairs, counts = np.unique(
                np.stack([items, workers], axis=1), axis=0, return_counts=True
            )
            item, worker = pairs[np.argmax(counts)].tolist()
            raise ValidationError(
                f"pair (item={item}, worker={worker}) appears more than once"
            )
        matrix._arrays_cache = (items, workers, indicators)
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnswerMatrix(items={self.n_items}, workers={self.n_workers}, "
            f"labels={self.n_labels}, answers={self.n_answers})"
        )

