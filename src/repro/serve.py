"""Always-on consensus serving atop SVI (DESIGN.md §6 "Serving").

Every other entry point in the library is a batch run; this module keeps a
CPA posterior *alive*.  Answers arrive continuously as
:class:`~repro.data.streams.AnswerBatch` objects, the SVI engine
(:class:`~repro.core.svi.StochasticInference`) folds them in as
natural-gradient steps, and item-consensus / label-probability queries are
answered from the live posterior between steps — the paper's own arrival
model (§4.1) turned into a daemon.

Three layers, so each is testable on its own:

* :class:`ConsensusEngine` — the socket-free serving core: an ingest
  queue, the SVI engine, the accumulated answer matrix queries read
  from, lazily recomputed consensus, staleness/latency metrics, and
  snapshot/restore (built on :mod:`repro.core.checkpoint`, extended with
  the accumulated answers so a restored replica can answer queries about
  items it never re-ingested).  Mid-stream growth of the item / worker /
  label spaces is absorbed transparently on ingest, and a restore widens
  the engine to a larger snapshot, so a fleet replica follows its writer.
* :class:`ConsensusServer` — :class:`~repro.utils.transport.WorkerServer`
  whose op table is the lane table (:func:`~repro.utils.transport.lane_ops`:
  same framing, same chunk-store op, same shutdown semantics) plus the
  serving ops below, run by the one dispatcher
  (:func:`~repro.utils.transport.dispatch`).  One daemon thread per
  connection; the engine lock serializes posterior access.
* :class:`ServeClient` / :func:`ship_checkpoint` — the client side.
  ``ship_checkpoint`` refreshes a replica over the content-addressed
  chunk store through the same client as a lane broadcast
  (:func:`~repro.utils.transport.ship_chunks`: the manifest, then the
  missing chunks) and one ``restore_key``, so a refresh after a few SVI
  steps costs chunk-*delta* bytes and three requests, not a full
  posterior.

Wire ops added on top of the worker protocol (all framed like any other
request; see :mod:`repro.utils.transport` for the envelope).
``tests/test_op_tables.py`` drives every client against a writer and a
read replica and checks that the ops sent are exactly the ops served:

==========================================  ===============================
request                                     reply value
==========================================  ===============================
``("ingest", batch)``                       metrics dict (post-ingest)
``("step", max_batches)``                   number of SVI steps folded
``("predict", items_or_None)``              ``{item: [label, ...]}``
``("proba", items_or_None)``                ``(items, ndarray)`` rows
``("status",)``                             metrics dict
``("snapshot",)``                           full snapshot payload (dict)
``("restore", payload)``                    metrics dict (post-restore)
``("restore_key", key)``                    metrics dict — restore from a
                                            chunk-assembled registry
                                            payload (ship_checkpoint path)
==========================================  ===============================

Run a daemon with ``python -m repro.serve --listen host:port --items I
--workers U --labels C`` (see ``--help`` for warm-start and engine
options).
"""

from __future__ import annotations

import argparse
import functools
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checkpoint import payload_meta
from repro.core.config import CPAConfig
from repro.core.consensus import ClusterConsensus, estimate_consensus
from repro.core.prediction import label_probabilities, predict_items, requested_items
from repro.core.svi import StochasticInference
from repro.data.answers import AnswerMatrix
from repro.data.streams import AnswerBatch, split_batch
from repro.errors import CheckpointError, TransportError, ValidationError
from repro.utils.random import Seed
from repro.utils.transport import (
    DEFAULT_CHUNK_CACHE_BYTES,
    DEFAULT_PAYLOAD_CAP,
    Channel,
    OpTable,
    StaleBroadcast,
    WorkerServer,
    chunk_manifest,
    connect,
    dispatch,
    dumps,
    lane_ops,
    parse_address,
    request,
    ship_chunks,
)

#: Registry key a shipped checkpoint is assembled under.
CHECKPOINT_KEY = "consensus-checkpoint"

#: Chunk size for checkpoint shipping.  Far below the 4 MiB broadcast
#: default on purpose: a checkpoint delta after a small SVI step is a
#: scatter of touched ``ϕ``/``µ`` rows (a few hundred bytes each), and a
#: changed byte poisons its whole chunk — at 4 MiB nearly every snapshot
#: chunk would differ, at 2 KiB only the chunks covering touched rows do
#: (a poisoned chunk costs ~2 KiB instead of ~4 KiB, and the extra digest
#: traffic is 16 bytes per chunk — noise next to the array payload).
DEFAULT_CHECKPOINT_CHUNK_BYTES = 2 << 10


class ConsensusEngine:
    """Socket-free serving core: ingest queue + SVI engine + query surface.

    Thread-safe: every public method takes the engine lock, so the
    server may serve ingest, step, and query requests from concurrent
    connections.  Folding is explicit (:meth:`step`) — the server decides
    *when* to fold (by default after every ingest), the engine only keeps
    the books: ``answers_seen`` counts ingested answers, ``answers_applied``
    counts folded ones, and their difference is the staleness metric
    ``answers_behind``.
    """

    def __init__(
        self,
        config: CPAConfig,
        n_items: int,
        n_workers: int,
        n_labels: int,
        *,
        seed: Seed = None,
        total_answers_hint: Optional[int] = None,
    ) -> None:
        self.config = config
        self.engine = StochasticInference(
            config,
            n_items,
            n_workers,
            n_labels,
            seed=seed,
            total_answers_hint=total_answers_hint,
        )
        self.answers = AnswerMatrix(n_items, n_workers, n_labels)
        self._pending: Deque[AnswerBatch] = deque()
        self._lock = threading.RLock()
        self.answers_seen = 0
        self.answers_applied = 0
        self._consensus: Optional[ClusterConsensus] = None
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

    def step(self, max_batches: int = 0) -> int:
        """Fold pending arrival batches into the posterior.

        Each arrival batch is split to the engine's per-step size
        (``config.svi_batch_answers``, the paper's 100) and folded as that
        many natural-gradient steps; its answers join the accumulated
        matrix queries read from.  ``max_batches`` bounds how many
        *arrival* batches are folded (0 = drain the queue).  Returns the
        number of SVI steps taken.
        """
        steps = 0
        folded = 0
        with self._lock:
            while self._pending and (max_batches <= 0 or folded < max_batches):
                batch = self._pending.popleft()
                for sub in split_batch(batch, self.config.svi_batch_answers):
                    self.engine.process_batch(sub)
                    steps += 1
                self.answers.update(batch.matrix)
                self.answers_applied += batch.n_answers
                folded += 1
            if steps:
                self._consensus = None
                self._steps_since_snapshot += steps
        return steps

    def grow(self, n_items: int, n_workers: int, n_labels: int) -> None:
        """Widen the index spaces mid-stream (state, answers, and engine)."""
        with self._lock:
            self.engine.grow(n_items, n_workers, n_labels)
            self.answers = self.answers.resized(n_items, n_workers, n_labels)
            self._consensus = None

    # -------------------------------------------------------------- queries

    def consensus(self) -> ClusterConsensus:
        """The cluster consensus of the live posterior (lazily recomputed)."""
        with self._lock:
            if self._consensus is None:
                self._consensus = estimate_consensus(
                    self.engine.state, self.config, self.answers
                )
            return self._consensus

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
        is what makes chunk-level dedup effective (:func:`ship_checkpoint`).

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


class ConsensusServer(WorkerServer):
    """The serving daemon: consensus ops layered on the worker protocol.

    Inherits the framing loop and the payload registry from
    :class:`~repro.utils.transport.WorkerServer`.  Its op table
    (``ops``, built once here) is the lane table — ping, broadcast and
    the chunk store, shutdown — plus the serving ops of the module
    docstring, and :meth:`handle` runs each request against it.
    ``auto_step`` (default) folds the queue after
    every ingest, so queries always see the freshest posterior; switch it
    off to batch folds explicitly via the ``step`` op and observe
    non-zero ``answers_behind``.

    ``read_only`` turns the daemon into a fleet *read replica*
    (:mod:`repro.fleet`): its table maps ``ingest``/``step`` to a handler
    that refuses them loudly — the
    single writer owns the stream and replicas only ever change state
    through the checkpoint-refresh path (``restore``/``restore_key``),
    which keeps every replica bitwise-identical to the snapshot it was
    last shipped.
    """

    def __init__(
        self,
        engine: ConsensusEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auto_step: bool = True,
        read_only: bool = False,
        payload_cap: int = DEFAULT_PAYLOAD_CAP,
        chunk_cache_bytes: int = DEFAULT_CHUNK_CACHE_BYTES,
    ) -> None:
        super().__init__(
            host, port, payload_cap=payload_cap, chunk_cache_bytes=chunk_cache_bytes
        )
        self.engine = engine
        self.auto_step = auto_step
        self.read_only = read_only
        #: the op table :meth:`handle` dispatches against: the lane table
        #: plus the serving ops of the module docstring.
        self.ops: OpTable = {**lane_ops(self.registry), **self._serving_ops()}

    def _serving_ops(self) -> OpTable:
        engine, registry = self.engine, self.registry

        def ingest(batch: AnswerBatch) -> Dict[str, Any]:
            engine.ingest(batch)
            if self.auto_step:
                engine.step()
            return engine.metrics()

        def restore(payload: Dict[str, Any]) -> Dict[str, Any]:
            engine.restore(payload)
            return engine.metrics()

        ops: OpTable = {
            "ingest": ingest,
            "step": lambda max_batches=0: engine.step(int(max_batches)),
            "predict": lambda items=None: engine.predict(items),
            "proba": lambda items=None: engine.label_probabilities(items),
            "status": engine.metrics,
            "snapshot": engine.snapshot_payload,
            "restore": restore,
            "restore_key": lambda key=CHECKPOINT_KEY: restore(registry.resident(key)),
        }
        if self.read_only:
            for op in ("ingest", "step"):
                ops[op] = functools.partial(_refuse_on_replica, op)
        return ops

    def handle(self, message: Any) -> Tuple:
        return dispatch(message, self.ops)


def _refuse_on_replica(op: str, *args: Any) -> None:
    raise ValidationError(
        f"{op!r} refused: this daemon is a read replica; "
        "answers go to the fleet's writer"
    )


@dataclass(frozen=True)
class ShipReport:
    """Byte accounting of one :func:`ship_checkpoint` refresh."""

    total_bytes: int  # full snapshot blob size
    shipped_bytes: int  # chunk bytes that actually crossed the wire
    n_chunks: int  # chunks in the snapshot
    n_shipped: int  # chunks the replica was missing

    @property
    def delta_ratio(self) -> float:
        """Shipped fraction of the full snapshot (0 = perfect dedup)."""
        return self.shipped_bytes / self.total_bytes if self.total_bytes else 0.0


def ship_checkpoint(
    channel: Channel,
    blob: bytes,
    *,
    key: str = CHECKPOINT_KEY,
    chunk_bytes: int = DEFAULT_CHECKPOINT_CHUNK_BYTES,
    timeout: Optional[float] = None,
    restore: bool = True,
) -> ShipReport:
    """Refresh a replica's checkpoint over the content-addressed chunk store.

    ``blob`` is a pickled snapshot payload (``dumps(snapshot_payload())``).
    :func:`~repro.utils.transport.ship_chunks` assembles it under ``key``
    exactly as a lane broadcast is armed: the replica still holds most
    content chunks from the *previous* snapshot, so only the changed
    chunks cross the wire.  The assembled payload is then adopted via the
    ``restore_key`` op (unless ``restore`` is false, which leaves it
    armed in the registry).  Returns the byte accounting the serving
    benchmark records.
    """
    manifest = chunk_manifest(blob, chunk_bytes)
    n_shipped, shipped_bytes = ship_chunks(
        channel, key, blob, manifest, chunk_bytes, timeout=timeout
    )
    if restore:
        try:
            request(channel, ("restore_key", key), timeout=timeout)
        except StaleBroadcast:
            # The assembled payload was LRU-evicted between assemble and
            # restore (concurrent broadcast churn on a small payload cap).
            # Its eviction forgot the key's manifest but left the chunks
            # to the byte-capped LRU, so the re-assembly is normally one
            # manifest-only request that carries no chunk; a second
            # eviction is a configuration problem and the StaleBroadcast
            # escapes loudly.
            shipped_bytes += ship_chunks(
                channel, key, blob, manifest, chunk_bytes, timeout=timeout
            )[1]
            request(channel, ("restore_key", key), timeout=timeout)
    return ShipReport(
        total_bytes=len(blob),
        shipped_bytes=shipped_bytes,
        n_chunks=len(manifest),
        n_shipped=n_shipped,
    )


class ServeClient:
    """Typed client for one :class:`ConsensusServer` connection."""

    def __init__(self, address: str, timeout: Optional[float] = 30.0) -> None:
        host, port = parse_address(address)
        self.address = address
        self.timeout = timeout
        self._channel = connect(host, port)

    def _request(self, message: Tuple) -> Any:
        return request(self._channel, message, timeout=self.timeout)

    def ingest(self, batch: AnswerBatch) -> Dict[str, Any]:
        return self._request(("ingest", batch))

    def step(self, max_batches: int = 0) -> int:
        return self._request(("step", max_batches))

    def predict(
        self, items: Optional[Sequence[int]] = None
    ) -> Dict[int, List[int]]:
        return self._request(("predict", items))

    def label_probabilities(
        self, items: Optional[Sequence[int]] = None
    ) -> Tuple[List[int], np.ndarray]:
        return self._request(("proba", items))

    def status(self) -> Dict[str, Any]:
        return self._request(("status",))

    def ping(self) -> str:
        """Round-trip the shared ``ping`` op; returns ``"pong"``.

        Liveness probe for supervisors: it exercises the full framed
        request path without touching the engine."""
        return self._request(("ping",))

    def snapshot(self) -> Dict[str, Any]:
        """Pull the full snapshot payload (no chunk dedup — see
        :func:`ship_checkpoint` for the cheap refresh direction)."""
        return self._request(("snapshot",))

    def restore(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._request(("restore", payload))

    def push_checkpoint(
        self,
        blob: bytes,
        *,
        key: str = CHECKPOINT_KEY,
        chunk_bytes: int = DEFAULT_CHECKPOINT_CHUNK_BYTES,
    ) -> ShipReport:
        return ship_checkpoint(
            self._channel,
            blob,
            key=key,
            chunk_bytes=chunk_bytes,
            timeout=self.timeout,
        )

    def shutdown(self) -> None:
        """Ask the daemon to stop.  Best-effort on the ack: a daemon
        exiting right after the shutdown op may reset the connection
        before the reply is drained, which is still a successful stop."""
        try:
            self._request(("shutdown",))
        except TransportError:
            pass

    def close(self) -> None:
        self._channel.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ------------------------------------------------------------------- CLI


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Long-lived consensus serving daemon: folds arriving answer "
            "batches into a stochastic-VI posterior and answers "
            "item-consensus / label-probability queries from the live "
            "posterior between steps.  Speaks the repro worker wire "
            "protocol plus the serving ops (ingest/step/predict/proba/"
            "status/snapshot/restore); checkpoints ship cheaply over the "
            "content-addressed chunk store (see repro.serve.ship_checkpoint)."
        ),
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="host:port to listen on (port 0 = ephemeral; default %(default)s)",
    )
    parser.add_argument(
        "--items", type=int, required=True, help="item index-space size I"
    )
    parser.add_argument(
        "--workers", type=int, required=True, help="worker index-space size U"
    )
    parser.add_argument(
        "--labels", type=int, required=True, help="label index-space size C"
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="warm-start from this checkpoint file (repro.core.checkpoint "
        "format); a checkpoint larger than --items/--workers/--labels widens "
        "the daemon to its sizes",
    )
    parser.add_argument(
        "--save-checkpoint",
        default=None,
        help="write a snapshot to this file on graceful shutdown",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="engine seed (default %(default)s)"
    )
    parser.add_argument(
        "--dtype",
        choices=("float64", "float32"),
        default="float64",
        help="posterior dtype (default %(default)s)",
    )
    parser.add_argument(
        "--step-answers",
        type=int,
        default=100,
        help="SVI step size in answers — arrival batches are split to this "
        "(the paper's 100; default %(default)s)",
    )
    parser.add_argument(
        "--total-answers-hint",
        type=int,
        default=None,
        help="expected total answers of the stream (sets the SVI gradient "
        "scale; recommended for answer-count batching)",
    )
    parser.add_argument(
        "--no-auto-step",
        action="store_true",
        help="do not fold after every ingest; folding then only happens on "
        "explicit 'step' requests (lets answers_behind grow)",
    )
    parser.add_argument(
        "--read-only",
        action="store_true",
        help="serve as a fleet read replica: refuse ingest/step, accept "
        "queries and checkpoint refreshes (see repro.fleet)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound 'host:port' here once listening (lets scripts "
        "use an ephemeral port)",
    )
    parser.add_argument(
        "--payload-cap",
        type=int,
        default=DEFAULT_PAYLOAD_CAP,
        help="resident broadcast payloads kept (default %(default)s)",
    )
    parser.add_argument(
        "--chunk-cache-mb",
        type=int,
        default=DEFAULT_CHUNK_CACHE_BYTES >> 20,
        help="chunk-store cache budget in MiB (default %(default)s)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    host, port = parse_address(args.listen)
    config = CPAConfig(
        seed=args.seed, dtype=args.dtype, svi_batch_answers=args.step_answers
    )
    engine = ConsensusEngine(
        config,
        args.items,
        args.workers,
        args.labels,
        seed=args.seed,
        total_answers_hint=args.total_answers_hint,
    )
    if args.checkpoint:
        with open(args.checkpoint, "rb") as handle:
            import pickle

            engine.restore(pickle.loads(handle.read()))
    server = ConsensusServer(
        engine,
        host,
        port,
        auto_step=not args.no_auto_step,
        read_only=args.read_only,
        payload_cap=args.payload_cap,
        chunk_cache_bytes=args.chunk_cache_mb << 20,
    )
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(server.address)
    print(f"consensus server listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if args.save_checkpoint:
            with open(args.save_checkpoint, "wb") as handle:
                handle.write(dumps(engine.snapshot_payload()))
            engine.mark_snapshot()
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
