"""Always-on consensus serving atop SVI (DESIGN.md §6 "Serving").

Every other entry point in the library is a batch run; this module keeps a
CPA posterior *alive*.  Answers arrive continuously as
:class:`~repro.data.streams.AnswerBatch` objects, the SVI engine
(:class:`~repro.core.svi.StochasticInference`) folds them in as
natural-gradient steps, and item-consensus / label-probability queries are
answered from the live posterior between steps — the paper's own arrival
model (§4.1) turned into a daemon.

Three layers, so each is testable on its own:

* :class:`~repro.core.online.ConsensusEngine` — the socket-free online
  engine (:mod:`repro.core.online`, shared with
  :class:`~repro.core.model.CPAModel`'s online mode): ingest queue, SVI
  folds, the accumulated answers, metrics, snapshot/restore, and growth
  of the index spaces on ingest or restore.  The daemon answers from its
  raw SVI posterior, not its refreshed view.
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
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CPAConfig
from repro.core.online import ConsensusEngine
from repro.data.streams import AnswerBatch
from repro.errors import TransportError, ValidationError
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
        choices=("float32", "float64"),
        default=CPAConfig.dtype,
        help="compute dtype of the sweep kernels; the posterior and every "
        "snapshot stay float64 (default %(default)s)",
    )
    parser.add_argument(
        "--step-answers",
        type=int,
        default=100,
        help="SVI step size: arrival batches are split into steps of at most "
        "this many answers; a --total-answers-hint under 20× this lowers it, "
        "never below 50 (the paper's 100; default %(default)s)",
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
