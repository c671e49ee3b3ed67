"""Answer streams: the batched arrival model of paper §4.1.

Online (SVI) inference consumes answers as "a series of batches b = 1, 2,
...; each batch contains the answers of a fixed number of workers U_b for a
set of items N_b".  :class:`AnswerStream` turns a static answer matrix into
such a series, with three batching policies:

* ``by_workers`` — the paper's policy: batches group whole workers.
* ``by_answers`` — fixed answer-count batches in random arrival order (used
  by the Fig-7 runtime study, where batch size is "100 answers").
* ``by_fractions`` — cumulative arrival percentages (the Fig-6 x-axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.data.answers import AnswerMatrix
from repro.errors import ValidationError
from repro.utils.random import RandomState, Seed


@dataclass(frozen=True)
class AnswerBatch:
    """One arrival batch: an answer matrix holding exactly its answers.

    ``matrix`` spans the *full* index spaces, so parameters stay aligned,
    and its rows are the batch's answers in arrival order; :attr:`pairs`,
    :attr:`items`, :attr:`workers` and :attr:`n_answers` are read from it.

    ``index`` numbers batches consecutively within their stream;
    ``sub_index`` distinguishes the sub-batches :func:`split_batch`
    carves out of one stream batch (0 for unsplit batches).  Use
    :attr:`batch_id` — the ``(index, sub_index)`` pair — as the batch's
    identity: sub-batch indices alone would collide with later stream
    batches (parent 3 split in four must not masquerade as batches
    4, 5, 6).
    """

    index: int
    matrix: AnswerMatrix
    sub_index: int = 0

    @property
    def batch_id(self) -> Tuple[int, int]:
        """Collision-free identity: ``(stream index, split offset)``."""
        return (self.index, self.sub_index)

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The ``(item, worker)`` coordinates of the answers, in row order."""
        items, workers, _ = self.matrix.to_arrays()
        return tuple(zip(items.tolist(), workers.tolist()))

    @property
    def items(self) -> Tuple[int, ...]:
        """The distinct items answered, ascending."""
        return tuple(self.matrix.answered_items())

    @property
    def workers(self) -> Tuple[int, ...]:
        """The distinct workers answering, ascending."""
        return tuple(self.matrix.active_workers())

    @property
    def n_answers(self) -> int:
        return self.matrix.n_answers


class AnswerStream:
    """Deterministic, seeded batch decomposition of an answer matrix.

    Every policy call draws one child seed from the stream's generator
    *at call time* and shuffles with a generator derived from that seed.
    The seed path therefore depends only on the order in which policies
    are *called* on the stream — never on when (or whether, or in which
    interleaving) the returned iterators are consumed.  The old lazy
    scheme shuffled with the shared instance generator on first
    ``next()``, so the same seed yielded different batches when two
    iterators were created before either was consumed, or consumed in a
    different order than created — fatal for a serving restart that must
    replay an arrival log bit-for-bit.
    """

    def __init__(self, matrix: AnswerMatrix, seed: Seed = None) -> None:
        self._matrix = matrix
        self._rng = RandomState(seed)

    def _child_rng(self) -> np.random.Generator:
        """A fresh generator seeded now, from this call's position in the
        stream's call sequence (see class docstring)."""
        return RandomState(int(self._rng.integers(2**63)))

    # ------------------------------------------------------------------ policies

    def by_workers(self, workers_per_batch: int) -> Iterator[AnswerBatch]:
        """Batches of whole workers, in a random worker order."""
        if workers_per_batch <= 0:
            raise ValidationError("workers_per_batch must be positive")
        order = np.array(self._matrix.active_workers(), dtype=int)
        self._child_rng().shuffle(order)
        return self._iter_worker_batches(order, workers_per_batch)

    def _iter_worker_batches(
        self, order: np.ndarray, workers_per_batch: int
    ) -> Iterator[AnswerBatch]:
        items, workers, _ = self._matrix.to_arrays()
        # each worker's rows, contiguous and in insertion order
        rows = np.argsort(workers, kind="stable")
        bounds = np.searchsorted(workers[rows], np.arange(self._matrix.n_workers + 1))
        for index, start in enumerate(range(0, order.size, workers_per_batch)):
            chunk = order[start : start + workers_per_batch]
            taken = np.concatenate([rows[bounds[w] : bounds[w + 1]] for w in chunk])
            pairs = zip(items[taken].tolist(), workers[taken].tolist())
            yield self._build_batch(index, list(pairs))

    def by_answers(self, answers_per_batch: int) -> Iterator[AnswerBatch]:
        """Fixed-size batches of individual answers in random arrival order."""
        if answers_per_batch <= 0:
            raise ValidationError("answers_per_batch must be positive")
        pairs = self._pairs()
        order = np.arange(len(pairs))
        self._child_rng().shuffle(order)
        return self._iter_answer_batches(pairs, order, answers_per_batch)

    def _iter_answer_batches(
        self,
        pairs: List[Tuple[int, int]],
        order: np.ndarray,
        answers_per_batch: int,
    ) -> Iterator[AnswerBatch]:
        for index, start in enumerate(range(0, len(pairs), answers_per_batch)):
            chunk = [pairs[i] for i in order[start : start + answers_per_batch]]
            yield self._build_batch(index, chunk)

    def by_fractions(self, fractions: Sequence[float]) -> Iterator[AnswerBatch]:
        """Batches sized to cumulative arrival fractions (e.g. Fig 6's 10%…100%).

        ``fractions`` must be strictly increasing in ``(0, 1]``; batch ``b``
        carries the answers between cumulative cut ``b-1`` and ``b``.

        On small matrices (or very close fractions) adjacent cuts can
        round to the same answer index; such empty arrival windows are
        merged into their successor rather than emitted, so every yielded
        batch has ``n_answers > 0`` and batch indices stay consecutive.
        """
        fracs = [float(f) for f in fractions]
        if not fracs or any(not 0 < f <= 1 for f in fracs):
            raise ValidationError("fractions must lie in (0, 1]")
        if any(b <= a for a, b in zip(fracs, fracs[1:])):
            raise ValidationError("fractions must be strictly increasing")
        pairs = self._pairs()
        order = np.arange(len(pairs))
        self._child_rng().shuffle(order)
        return self._iter_fraction_batches(pairs, order, fracs)

    def _iter_fraction_batches(
        self,
        pairs: List[Tuple[int, int]],
        order: np.ndarray,
        fracs: List[float],
    ) -> Iterator[AnswerBatch]:
        cuts = [0] + [int(round(f * len(pairs))) for f in fracs]
        index = 0
        for lo, hi in zip(cuts, cuts[1:]):
            if lo == hi:
                # collapsed cut: int(round(f * n)) landed on the previous
                # boundary — nothing arrived in this window
                continue
            chunk = [pairs[i] for i in order[lo:hi]]
            yield self._build_batch(index, chunk)
            index += 1

    # ------------------------------------------------------------------ helpers

    def _pairs(self) -> List[Tuple[int, int]]:
        items, workers, _ = self._matrix.to_arrays()
        return list(zip(items.tolist(), workers.tolist()))

    def _build_batch(
        self, index: int, pairs: List[Tuple[int, int]]
    ) -> AnswerBatch:
        return AnswerBatch(index=index, matrix=self._matrix.subset(pairs))


def split_batch(batch: AnswerBatch, max_answers: int) -> List[AnswerBatch]:
    """Split one batch into consecutive sub-batches of ``≤ max_answers``.

    Used to feed large arrival increments to the SVI engine at the paper's
    per-step batch size.  The sub-batches partition the original pairs in
    order; each keeps the parent's ``index`` and takes its split offset as
    ``sub_index``, so the ``(index, sub_index)`` pair
    (:attr:`AnswerBatch.batch_id`) identifies every sub-batch without
    colliding with later batches of the same stream (the old
    ``parent.index + offset`` numbering made parent 3's pieces
    indistinguishable from batches 4, 5, 6).
    """
    if max_answers <= 0:
        raise ValidationError("max_answers must be positive")
    if batch.n_answers <= max_answers:
        return [batch]
    pairs = batch.pairs
    return [
        AnswerBatch(
            index=batch.index,
            matrix=batch.matrix.subset(pairs[start : start + max_answers]),
            sub_index=offset,
        )
        for offset, start in enumerate(range(0, len(pairs), max_answers))
    ]
