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
  label spaces is absorbed transparently on ingest.
* :class:`ConsensusServer` — :class:`~repro.utils.transport.WorkerServer`
  with serving ops layered over the shared wire protocol (same framing,
  same chunk-store ops, same shutdown semantics).  One daemon thread per
  connection; the engine lock serializes posterior access.
* :class:`ServeClient` / :func:`ship_checkpoint` — the client side.
  ``ship_checkpoint`` refreshes a replica over the content-addressed
  chunk store: probe → ship missing chunks → assemble → restore, so a
  refresh after a few SVI steps costs chunk-*delta* bytes, not a full
  posterior (the PR 6 broadcast re-arm path, pointed at checkpoints).

Wire ops added on top of the worker protocol (all framed like any other
request; see :mod:`repro.utils.transport` for the envelope):

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
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
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
    Channel,
    ChunksMissing,
    StaleBroadcast,
    WorkerServer,
    chunk_digest,
    connect,
    dumps,
    handle_request,
    parse_address,
    request,
    split_chunks,
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
        """Enqueue one arrival batch; grows the index spaces if needed."""
        if not isinstance(batch, AnswerBatch):
            raise ValidationError(
                f"ingest expects an AnswerBatch, got {type(batch).__name__}"
            )
        with self._lock:
            matrix = batch.matrix
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
                for item, worker in batch.pairs:
                    labels = batch.matrix.get(item, worker)
                    assert labels is not None
                    self.answers.add(item, worker, labels)
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
        ignores unknown keys) with the accumulated answer matrix and the
        serving counters, so a restored replica serves queries about every
        item the snapshot had seen.  The answer entries ride *after* the
        parameter arrays in insertion order, keeping the big arrays at
        stable byte offsets between snapshots — that is what makes
        chunk-level dedup effective (:func:`ship_checkpoint`).

        Pure construction: the ``snapshot_age_*`` metrics are *not*
        touched — a monitoring pull or a bootstrapping replica reading
        the payload must not make the writer look freshly snapshotted.
        The path that durably captured the snapshot calls
        :meth:`mark_snapshot` afterwards.
        """
        with self._lock:
            payload = self.engine.checkpoint()
            # The checkpoint shares the state's arrays, and a fold writes
            # κ and µ in place (the others it replaces); copy those two so
            # a payload pickled after the lock is released cannot mix a
            # later step's κ/µ with this step's ϕ/λ.
            for name in ("kappa", "mu"):
                if payload[name] is not None:
                    payload[name] = payload[name].copy()
            payload["answers"] = {
                "n_items": self.answers.n_items,
                "n_workers": self.answers.n_workers,
                "n_labels": self.answers.n_labels,
                "entries": {
                    (a.item, a.worker): tuple(sorted(a.labels))
                    for a in self.answers.iter_answers()
                },
            }
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
        Either way the snapshot's index spaces must not exceed the
        engine's; the guard runs up front for both shapes, before any
        serving state is replaced.  When the payload carries no serving
        counters, ``answers_seen``/``answers_applied`` are derived from
        the answer matrix actually being served after the restore, so
        ``answers_behind`` cannot inherit a previous life's counts.
        """
        with self._lock:
            meta = payload_meta(payload)
            if (
                meta.n_items > self.engine.n_items
                or meta.n_workers > self.engine.n_workers
                or meta.n_labels > self.engine.n_labels
            ):
                raise CheckpointError(
                    "snapshot is larger than the serving engine; start "
                    "the daemon with at least the snapshot's index sizes"
                )
            answers_meta = payload.get("answers")
            if answers_meta is not None:
                restored = AnswerMatrix.from_mapping(
                    self.engine.n_items,
                    self.engine.n_workers,
                    self.engine.n_labels,
                    answers_meta["entries"],
                )
                self.answers = restored
            self.engine.restore(payload)
            self.answers_seen = int(
                payload.get("answers_seen", self.answers.n_answers)
            )
            self.answers_applied = int(
                payload.get("answers_applied", self.answers.n_answers)
            )
            self._pending.clear()
            self._consensus = None
            self._steps_since_snapshot = 0
            self._snapshot_clock = time.monotonic()


class ConsensusServer(WorkerServer):
    """The serving daemon: consensus ops layered on the worker protocol.

    Inherits the framing loop, the payload registry, and every base op
    (ping, broadcast/chunk store, shutdown) from
    :class:`~repro.utils.transport.WorkerServer`; adds the serving ops of
    the module docstring.  ``auto_step`` (default) folds the queue after
    every ingest, so queries always see the freshest posterior; switch it
    off to batch folds explicitly via the ``step`` op and observe
    non-zero ``answers_behind``.

    ``read_only`` turns the daemon into a fleet *read replica*
    (:mod:`repro.fleet`): ``ingest``/``step`` are refused loudly — the
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
        payload_cap: int = 8,
        chunk_cache_bytes: int = 256 << 20,
    ) -> None:
        super().__init__(
            host, port, payload_cap=payload_cap, chunk_cache_bytes=chunk_cache_bytes
        )
        self.engine = engine
        self.auto_step = auto_step
        self.read_only = read_only

    def handle(self, message: Any) -> Tuple:
        if not isinstance(message, tuple) or not message:
            return handle_request(message, self.registry)
        op = message[0]
        try:
            if self.read_only and op in ("ingest", "step"):
                raise ValidationError(
                    f"{op!r} refused: this daemon is a read replica; "
                    "answers go to the fleet's writer"
                )
            if op == "ingest":
                self.engine.ingest(message[1])
                if self.auto_step:
                    self.engine.step()
                return ("ok", self.engine.metrics())
            if op == "step":
                max_batches = int(message[1]) if len(message) > 1 else 0
                return ("ok", self.engine.step(max_batches))
            if op == "predict":
                items = message[1] if len(message) > 1 else None
                return ("ok", self.engine.predict(items))
            if op == "proba":
                items = message[1] if len(message) > 1 else None
                return ("ok", self.engine.label_probabilities(items))
            if op == "status":
                return ("ok", self.engine.metrics())
            if op == "snapshot":
                return ("ok", self.engine.snapshot_payload())
            if op == "restore":
                self.engine.restore(message[1])
                return ("ok", self.engine.metrics())
            if op == "restore_key":
                key = message[1] if len(message) > 1 else CHECKPOINT_KEY
                try:
                    payload = self.registry.get(key)
                except KeyError:
                    return ("stale", key)
                self.engine.restore(payload)
                return ("ok", self.engine.metrics())
        except Exception as exc:  # noqa: BLE001 - forwarded to the client
            import traceback

            tb_text = traceback.format_exc()
            try:
                dumps(exc)
                return ("err", exc, tb_text)
            except Exception:  # noqa: BLE001 - unpicklable error ships as repr
                return ("err", repr(exc), tb_text)
        return handle_request(message, self.registry)


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
    The probe → ship-missing → assemble path mirrors the broadcast
    re-arm of :class:`~repro.utils.parallel.RemoteExecutor`: the replica
    reports which content chunks it already holds from the *previous*
    snapshot, only the changed chunks cross the wire, and the assembled
    payload is adopted via the ``restore_key`` op (unless ``restore``
    is false, which leaves it armed in the registry).  Returns the byte
    accounting the serving benchmark records.
    """
    chunks = split_chunks(blob, chunk_bytes)
    digests = [chunk_digest(chunk) for chunk in chunks]
    by_digest = dict(zip(digests, chunks))
    missing = request(channel, ("chunk_probe", digests), timeout=timeout)
    shipped_bytes = 0
    for digest in missing:
        data = by_digest[digest]
        request(channel, ("chunk_put", digest, data), timeout=timeout)
        shipped_bytes += len(data)

    def assemble() -> None:
        nonlocal shipped_bytes
        try:
            request(channel, ("chunk_assemble", key, digests), timeout=timeout)
        except ChunksMissing as exc:
            # evicted between probe and assemble: one bounded re-ship, no loop
            for digest in exc.digests:
                data = by_digest[digest]
                request(channel, ("chunk_put", digest, data), timeout=timeout)
                shipped_bytes += len(data)
            request(channel, ("chunk_assemble", key, digests), timeout=timeout)

    assemble()
    if restore:
        try:
            request(channel, ("restore_key", key), timeout=timeout)
        except StaleBroadcast:
            # The assembled payload was LRU-evicted between assemble and
            # restore (concurrent broadcast churn on a small payload cap).
            # The chunks are still (mostly) resident, so re-assembling and
            # retrying once is cheap; a second eviction is a configuration
            # problem and the StaleBroadcast escapes loudly.
            assemble()
            request(channel, ("restore_key", key), timeout=timeout)
    return ShipReport(
        total_bytes=len(blob),
        shipped_bytes=shipped_bytes,
        n_chunks=len(chunks),
        n_shipped=len(missing),
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
        help="warm-start from this checkpoint file (repro.core.checkpoint format)",
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
        default=8,
        help="resident broadcast payloads kept (default %(default)s)",
    )
    parser.add_argument(
        "--chunk-cache-mb",
        type=int,
        default=256,
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
