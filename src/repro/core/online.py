"""The online engine: paper Alg. 2's fold loop and the posterior it serves.

:class:`ConsensusEngine` folds a stream of
:class:`~repro.data.streams.AnswerBatch` objects into one CPA posterior,
each batch as natural-gradient steps of
:class:`~repro.core.svi.StochasticInference`.  :mod:`repro.serve` puts it
behind a daemon, which answers from the raw SVI posterior;
:class:`~repro.core.model.CPAModel`'s online mode drives it in process and
reads its refreshed view (:meth:`ConsensusEngine.refreshed`, the posterior
regenerated from every folded answer, paper §4.1).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checkpoint import payload_meta
from repro.core.config import CPAConfig
from repro.core.consensus import ClusterConsensus, estimate_consensus
from repro.core.prediction import label_probabilities, predict_items, requested_items
from repro.core.state import CPAState
from repro.core.svi import StochasticInference
from repro.data.answers import AnswerMatrix
from repro.data.dataset import GroundTruth
from repro.data.streams import AnswerBatch, split_batch
from repro.errors import CheckpointError, ValidationError
from repro.utils.parallel import Executor
from repro.utils.random import Seed


class ConsensusEngine:
    """Ingest queue + SVI engine + query surface over one live posterior.

    Thread-safe: every public method takes the engine lock, so a server
    may serve ingest, step, and query requests from concurrent
    connections.  Folding is explicit (:meth:`step`) — the caller decides
    *when* to fold (the daemon by default after every ingest,
    :meth:`CPAModel.partial_fit` always), the engine only keeps the
    books: ``answers_seen`` counts ingested answers, ``answers_applied``
    counts folded ones, and their difference is the staleness metric
    ``answers_behind``.  ``truth`` and ``executor`` go to the
    :class:`~repro.core.svi.StochasticInference` engine.
    """

    def __init__(
        self,
        config: CPAConfig,
        n_items: int,
        n_workers: int,
        n_labels: int,
        *,
        truth: Optional[GroundTruth] = None,
        seed: Seed = None,
        executor: Optional[Executor] = None,
        total_answers_hint: Optional[int] = None,
    ) -> None:
        self.config = config
        self.engine = StochasticInference(
            config,
            n_items,
            n_workers,
            n_labels,
            truth=truth,
            seed=seed,
            executor=executor,
            total_answers_hint=total_answers_hint,
        )
        self.answers = AnswerMatrix(n_items, n_workers, n_labels)
        self._pending: Deque[AnswerBatch] = deque()
        self._lock = threading.RLock()
        self.answers_seen = 0
        self.answers_applied = 0
        self._consensus: Optional[ClusterConsensus] = None
        self._refreshed: Optional[Tuple[CPAState, ClusterConsensus]] = None
        self._query_count = 0
        self._query_seconds_total = 0.0
        self._query_seconds_last = 0.0
        self._steps_since_snapshot = 0
        self._snapshot_clock = time.monotonic()

    # ----------------------------------------------------------- ingest/fold

    def ingest(self, batch: AnswerBatch) -> Dict[str, Any]:
        """Enqueue one arrival batch; grows the index spaces if needed.

        A batch unpickled off the wire ran no constructor, so its arrays get
        :meth:`AnswerMatrix.from_arrays`' checks, and the checked copy is
        queued: a malformed batch raises before anything changes."""
        if not isinstance(batch, AnswerBatch) or not isinstance(batch.matrix, AnswerMatrix):
            raise ValidationError(
                f"ingest expects an AnswerBatch of an AnswerMatrix, got {type(batch).__name__}"
            )
        given = batch.matrix
        matrix = AnswerMatrix.from_arrays(
            given.n_items, given.n_workers, given.n_labels, *given.to_arrays()
        )
        batch = replace(batch, matrix=matrix)
        with self._lock:
            if (
                matrix.n_items > self.engine.n_items
                or matrix.n_workers > self.engine.n_workers
                or matrix.n_labels > self.engine.n_labels
            ):
                self.grow(
                    max(matrix.n_items, self.engine.n_items),
                    max(matrix.n_workers, self.engine.n_workers),
                    max(matrix.n_labels, self.engine.n_labels),
                )
            self._pending.append(batch)
            self.answers_seen += batch.n_answers
            return self.metrics()

    def step_answers(self) -> int:
        """The SVI step size in answers that :meth:`step` splits to.

        ``config.svi_batch_answers`` (the paper's 100), lowered when the
        engine knows the stream's size: a stream of fewer than 20 full
        steps is folded in ``total_answers_hint // 20``-answer steps, never
        below 50.  Robbins-Monro averaging needs enough steps to damp the
        per-step gradient noise, and very small steps are noise-dominated
        too (DESIGN.md §4.4 "Step size").
        """
        size = self.config.svi_batch_answers
        hint = self.engine.total_answers_hint
        if hint:
            size = min(size, max(50, hint // 20))
        return size

    def step(self, max_batches: int = 0) -> int:
        """Fold pending arrival batches into the posterior.

        Each arrival batch is split to :meth:`step_answers` and folded as
        that many natural-gradient steps; its answers join the accumulated
        matrix queries read from.  ``max_batches`` bounds how many
        *arrival* batches are folded (0 = drain the queue).  Returns the
        number of SVI steps taken.
        """
        steps = 0
        folded = 0
        with self._lock:
            size = self.step_answers()
            while self._pending and (max_batches <= 0 or folded < max_batches):
                batch = self._pending.popleft()
                for sub in split_batch(batch, size):
                    self.engine.process_batch(sub)
                    steps += 1
                self.answers.update(batch.matrix)
                self.answers_applied += batch.n_answers
                folded += 1
            if steps:
                self._consensus = None
                self._refreshed = None
                self._steps_since_snapshot += steps
        return steps

    def grow(self, n_items: int, n_workers: int, n_labels: int) -> None:
        """Widen the index spaces mid-stream (state, answers, and engine)."""
        with self._lock:
            self.engine.grow(n_items, n_workers, n_labels)
            self.answers = self.answers.resized(n_items, n_workers, n_labels)
            self._consensus = None
            self._refreshed = None

    # -------------------------------------------------------------- queries

    def consensus(self) -> ClusterConsensus:
        """The cluster consensus of the live posterior (lazily recomputed)."""
        with self._lock:
            if self._consensus is None:
                self._consensus = estimate_consensus(
                    self.engine.state, self.config, self.answers
                )
            return self._consensus

    def refreshed(self) -> Tuple[CPAState, ClusterConsensus]:
        """The refreshed view: ``(state, consensus)`` regenerated from every
        folded answer (:meth:`StochasticInference.refreshed_state`), or the
        raw SVI state before any answer was folded.

        Computed on the first call after a fold, a growth or a restore and
        cached until the next one, so reads between folds share one
        refresh.  The SVI trajectory is untouched: the refresh works on a
        copy of the state.
        """
        with self._lock:
            if self._refreshed is None:
                state = (
                    self.engine.refreshed_state(self.answers)
                    if self.answers.n_answers
                    else self.engine.state
                )
                self._refreshed = (state, estimate_consensus(state, self.config, self.answers))
            return self._refreshed

    def predict(
        self, items: Optional[Sequence[int]] = None
    ) -> Dict[int, List[int]]:
        """MAP label sets from the live posterior (timed for metrics)."""
        with self._lock:
            started = time.perf_counter()
            details = predict_items(
                self.engine.state,
                self.consensus(),
                self.answers,
                self.config,
                items=items,
            )
            self._record_query(time.perf_counter() - started)
            return {item: sorted(d.labels) for item, d in details.items()}

    def label_probabilities(
        self, items: Optional[Sequence[int]] = None
    ) -> Tuple[List[int], np.ndarray]:
        """Per-label inclusion probabilities; returns ``(items, rows)``."""
        with self._lock:
            started = time.perf_counter()
            items = requested_items(self.answers, items)
            probs = label_probabilities(
                self.engine.state,
                self.consensus(),
                self.answers,
                self.config,
                items=items,
            )
            self._record_query(time.perf_counter() - started)
            return items, probs

    def _record_query(self, seconds: float) -> None:
        self._query_count += 1
        self._query_seconds_total += seconds
        self._query_seconds_last = seconds

    def metrics(self) -> Dict[str, Any]:
        """Staleness/latency bookkeeping (the ``status`` wire reply)."""
        with self._lock:
            return {
                "n_items": self.engine.n_items,
                "n_workers": self.engine.n_workers,
                "n_labels": self.engine.n_labels,
                "answers_seen": self.answers_seen,
                "answers_applied": self.answers_applied,
                "answers_behind": self.answers_seen - self.answers_applied,
                "pending_batches": len(self._pending),
                "batches_seen": self.engine.state.batches_seen,
                "queries": self._query_count,
                "query_seconds_total": self._query_seconds_total,
                "query_seconds_last": self._query_seconds_last,
                "snapshot_age_steps": self._steps_since_snapshot,
                "snapshot_age_seconds": time.monotonic() - self._snapshot_clock,
            }

    # ------------------------------------------------------------ snapshots

    def snapshot_payload(self) -> Dict[str, Any]:
        """Serializable snapshot: checkpoint payload + accumulated answers.

        Extends the :mod:`repro.core.checkpoint` payload (whose loader
        ignores unknown keys) with the accumulated answers and the serving
        counters, so a restored replica serves queries about every item
        the snapshot had seen.  The answer section is the answer matrix's
        array export (:meth:`AnswerMatrix.to_arrays`, views of the
        matrix's own rows) written as one record array of ``(item,
        worker, packed label bits)`` rows in insertion order.  It rides
        *after* the parameter arrays, which keep stable
        byte offsets between snapshots, and new answers only append rows,
        so the earlier rows' pickled bytes stay in place as well — that
        is what makes chunk-level dedup effective
        (:func:`repro.serve.ship_checkpoint`).

        A fold writes κ, ϕ and µ in place (ϕ only in the rows it touched),
        so those three are copied: a payload pickled after the lock is
        released still describes one step.  The answer section is built
        fresh, so it shares no memory with the live matrix either.

        Pure construction: the ``snapshot_age_*`` metrics are *not*
        touched — a monitoring pull or a bootstrapping replica reading
        the payload must not make the writer look freshly snapshotted.
        The path that durably captured the snapshot calls
        :meth:`mark_snapshot` afterwards.
        """
        with self._lock:
            payload = self.engine.checkpoint()
            for name in ("kappa", "phi", "mu"):
                if payload[name] is not None:
                    payload[name] = payload[name].copy()
            payload["answers"] = _answer_section(self.answers)
            payload["answers_seen"] = self.answers_seen
            payload["answers_applied"] = self.answers_applied
            return payload

    def mark_snapshot(self) -> None:
        """Reset the snapshot-age clock: a snapshot of this posterior was
        durably captured (shipped to the replica fleet, written to disk).

        Kept separate from :meth:`snapshot_payload` on purpose: any
        connection may *pull* a snapshot read-only, and those pulls must
        not zero ``snapshot_age_steps``/``snapshot_age_seconds`` — the
        metrics answer "how much would a crash lose", which only an
        actually-retained snapshot changes."""
        with self._lock:
            self._steps_since_snapshot = 0
            self._snapshot_clock = time.monotonic()

    def restore(self, payload: Dict[str, Any]) -> None:
        """Adopt a snapshot payload (posterior, answers, counters).

        Accepts both payload shapes — a full serving snapshot
        (:meth:`snapshot_payload`) and a bare :mod:`repro.core.checkpoint`
        payload (the documented ``--checkpoint`` warm-start format).
        The engine ends at the elementwise maximum of its own and the
        snapshot's index-space sizes: a larger snapshot widens it, as a
        wider ingest does, so a replica follows a writer whose spaces grew
        (:meth:`StochasticInference.restore`).  A snapshot's answers are
        rebuilt at those sizes; a bare checkpoint keeps the engine's own
        answers, resized.  When the payload carries no serving counters,
        ``answers_seen``/``answers_applied`` are derived from the answer
        matrix actually being served after the restore, so
        ``answers_behind`` cannot inherit a previous life's counts.

        All or nothing: the header check, the answer matrix
        (:meth:`AnswerMatrix.from_arrays` validates the answer section)
        and the counters are built, then the SVI engine validates (and,
        if smaller, grows) the posterior and swaps it in, and only then
        are the answers and counters committed.  A snapshot rejected by
        any of these checks raises :class:`~repro.errors.CheckpointError`
        and leaves the engine serving what it served before.
        """
        with self._lock:
            meta = payload_meta(payload)
            current = (self.engine.n_items, self.engine.n_workers, self.engine.n_labels)
            sizes = tuple(map(max, current, (meta.n_items, meta.n_workers, meta.n_labels)))
            section = payload.get("answers")
            if section is not None:
                answers = _answers_from_section(section, *sizes)
            else:
                answers = self.answers if sizes == current else self.answers.resized(*sizes)
            answers_seen = int(payload.get("answers_seen", answers.n_answers))
            answers_applied = int(payload.get("answers_applied", answers.n_answers))
            self.engine.restore(payload)
            self.answers = answers
            self.answers_seen = answers_seen
            self.answers_applied = answers_applied
            self._pending.clear()
            self._consensus = None
            self._refreshed = None
            self._steps_since_snapshot = 0
            self._snapshot_clock = time.monotonic()


def _answer_section(answers: AnswerMatrix) -> Dict[str, Any]:
    """A snapshot's answer section: the sizes and one row per answer.

    The rows form a single record array (``item``, ``worker``, then the
    label indicators packed to bits), so appending answers appends bytes.
    """
    items, workers, indicators = answers.to_arrays()
    bits = np.packbits(indicators != 0.0, axis=1)
    fields = [("item", np.int64), ("worker", np.int64), ("labels", np.uint8, bits.shape[1:])]
    rows = np.empty(items.size, dtype=fields)
    rows["item"] = items
    rows["worker"] = workers
    rows["labels"] = bits
    return {
        "n_items": answers.n_items,
        "n_workers": answers.n_workers,
        "n_labels": answers.n_labels,
        "rows": rows,
    }


def _answers_from_section(
    section: Any, n_items: int, n_workers: int, n_labels: int
) -> AnswerMatrix:
    """Rebuild the answer matrix of :func:`_answer_section` over the
    engine's index spaces (a snapshot from before a label-space growth
    has zero bits for the new labels)."""
    rows = section.get("rows") if isinstance(section, dict) else None
    fields = rows.dtype.names if isinstance(rows, np.ndarray) else None
    if fields != ("item", "worker", "labels"):
        raise CheckpointError(
            "the snapshot's answer format changed: this build reads answers "
            "as a record array of (item, worker, label bits) rows, not the "
            "retired 'entries' dict; take the snapshot again with this build"
        )
    indicators = np.unpackbits(rows["labels"], axis=1, count=n_labels)
    try:
        return AnswerMatrix.from_arrays(
            n_items, n_workers, n_labels, rows["item"], rows["worker"], indicators
        )
    except ValidationError as exc:
        raise CheckpointError(f"snapshot answers fail validation: {exc}") from exc
