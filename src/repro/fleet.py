"""Replica-fleet serving: one writer, N read replicas, a staleness-aware
router (DESIGN.md §6 "Replica fleet").

:mod:`repro.serve` keeps a single CPA posterior alive; this module scales
the *read* side out.  The expensive part of consensus serving — folding
the answer stream into the posterior — stays on one writer daemon, while
item-consensus / label-probability queries fan out over N read replicas
that are refreshed from the writer's snapshots over the content-addressed
chunk store (:func:`repro.serve.ship_checkpoint`), so a refresh after a
few SVI steps costs chunk-*delta* bytes, not a full posterior.  Queries
are embarrassingly parallel against a fixed snapshot, which is what makes
consensus tractable at crowd scale (PAPERS.md, Mossel & Tamuz).

Three pieces:

* :class:`FleetManager` — owns the writer :class:`~repro.serve.ConsensusServer`
  plus N read replicas (in-process threads or ``python -m repro.serve
  --read-only`` subprocesses), refreshes every replica via
  :func:`~repro.serve.ship_checkpoint` chunk deltas, and runs a background
  snapshot thread on a timer (``refresh_interval``) — the periodic
  snapshot that PR 7's on-demand ``snapshot`` op lacked.  Only this
  refresh path calls :meth:`~repro.serve.ConsensusEngine.mark_snapshot`,
  so the writer's ``snapshot_age_*`` metrics measure real durability.
* :class:`FleetRouter` — client-side routing policy over the replica set:
  ``round_robin`` or ``least_staleness`` (per-replica ``answers_behind``
  and ``snapshot_age_steps``, tracked from ``status`` replies).  Replica
  failover reuses the live → suspect → excluded
  :class:`~repro.utils.transport.LaneHealth` machine of the PR 6 compute
  lanes: a dead or hung replica is excluded after its reconnect budget
  and its queries re-route — every replica serves the same shipped
  snapshot, so the re-routed answer is bitwise identical.
* :class:`FleetClient` — the user-facing client: ``ingest``/``step`` are
  pinned to the writer, ``predict``/``label_probabilities``/``status``
  are routed to replicas through the router (optionally falling back to
  the writer when every replica is gone).

No new wire ops: the fleet speaks the existing serving protocol
(:mod:`repro.serve` docstring), replicas simply refuse ``ingest``/``step``
(``read_only=True``).

Run a whole fleet with ``python -m repro.fleet --items I --workers U
--labels C --replicas N`` (see ``--help``); the ``--port-file`` lists the
writer address on the first line and one replica address per further line.

One client instance (router included) serves one thread; give each query
thread its own :class:`FleetClient` — channels are not shareable.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CPAConfig
from repro.errors import CheckpointError, ConfigurationError, ReproError, TransportError
from repro.serve import (
    CHECKPOINT_KEY,
    DEFAULT_CHECKPOINT_CHUNK_BYTES,
    ConsensusEngine,
    ConsensusServer,
    ServeClient,
    ShipReport,
    ship_checkpoint,
)
from repro.utils.random import Seed
from repro.utils.transport import (
    Channel,
    LaneHealth,
    LaneTimeout,
    connect,
    dumps,
    format_address,
    parse_address,
)

#: routing policies the router accepts.
POLICIES = ("round_robin", "least_staleness")

#: replica hosting modes the manager accepts.
REPLICA_MODES = ("thread", "process")


# ---------------------------------------------------------------- manager


class _Replica:
    """Manager-side record of one read replica."""

    __slots__ = (
        "index",
        "address",
        "host",
        "port",
        "mode",
        "server",
        "process",
        "port_dir",
        "channel",
        "health",
        "last_report",
    )

    def __init__(self, index: int, mode: str, reconnects: int) -> None:
        self.index = index
        self.address = ""
        self.host = ""
        self.port = 0
        self.mode = mode
        self.server: Optional[ConsensusServer] = None  # thread mode
        self.process: Optional[subprocess.Popen] = None  # process mode
        self.port_dir: Optional[str] = None
        self.channel: Optional[Channel] = None
        self.health = LaneHealth(reconnects)
        self.last_report: Optional[ShipReport] = None


class FleetManager:
    """One writer + N read replicas, refreshed over chunk deltas.

    The writer is a normal :class:`~repro.serve.ConsensusServer` (ingest,
    fold, query) served on an in-process thread with its engine owned by
    the manager; replicas are ``read_only`` daemons, either in-process
    threads (``replica_mode="thread"`` — cheap, shares the GIL; the test
    default) or ``python -m repro.serve --read-only`` subprocesses
    (``"process"`` — real CPU parallelism for read scaling; the benchmark
    default).

    ``refresh_interval > 0`` starts the background snapshot thread: every
    interval the writer's snapshot is shipped to all live replicas (and
    optionally written to ``snapshot_path``), replacing PR 7's
    on-demand-only snapshots.  :meth:`refresh_replicas` runs the same
    path on demand — tests and the CLI call it directly.  A snapshot
    write that fails still ships to the replicas, and the round then
    raises :class:`~repro.errors.CheckpointError` naming the path; the
    timer records it in ``last_errors`` and keeps running.

    Replicas are provisioned at the writer's construction sizes.
    Thread-mode replicas are grown automatically when the writer's index
    spaces grow mid-stream; process-mode replicas cannot be (the snapshot
    would be refused by their restore guard), so size the fleet for the
    stream, or accept that an outgrown process replica is excluded at its
    next refresh.  Process-mode replicas rebuild their ``CPAConfig`` from
    CLI-expressible fields (seed, dtype, step size); use thread mode when
    bitwise parity under a non-default config matters.  Every daemon of
    the fleet keeps the :class:`~repro.serve.ConsensusServer` registry
    limits (:data:`~repro.utils.transport.DEFAULT_PAYLOAD_CAP` payloads,
    :data:`~repro.utils.transport.DEFAULT_CHUNK_CACHE_BYTES` of chunks).
    Every refresh ships under one key, so a replica's chunk store holds
    the chunks of the last snapshot shipped to it, about one snapshot's
    bytes; the byte cap stays the hard bound.
    """

    def __init__(
        self,
        config: CPAConfig,
        n_items: int,
        n_workers: int,
        n_labels: int,
        *,
        n_replicas: int = 2,
        seed: Seed = 0,
        total_answers_hint: Optional[int] = None,
        replica_mode: str = "thread",
        host: str = "127.0.0.1",
        auto_step: bool = True,
        refresh_interval: float = 0.0,
        snapshot_path: Optional[str] = None,
        reconnects: int = 1,
        request_timeout: float = 30.0,
        chunk_bytes: int = DEFAULT_CHECKPOINT_CHUNK_BYTES,
    ) -> None:
        if replica_mode not in REPLICA_MODES:
            raise ConfigurationError(
                f"unknown replica_mode {replica_mode!r}; choose from "
                f"{REPLICA_MODES}"
            )
        if n_replicas < 0:
            raise ConfigurationError(f"n_replicas must be >= 0, got {n_replicas}")
        self.config = config
        self.n_items = int(n_items)
        self.n_workers = int(n_workers)
        self.n_labels = int(n_labels)
        self.seed = seed
        self.total_answers_hint = total_answers_hint
        self.replica_mode = replica_mode
        self.host = host
        self.auto_step = auto_step
        self.refresh_interval = float(refresh_interval)
        self.snapshot_path = snapshot_path
        self._reconnects = int(reconnects)
        self._request_timeout = float(request_timeout)
        self._chunk_bytes = int(chunk_bytes)
        self.engine = ConsensusEngine(
            config,
            n_items,
            n_workers,
            n_labels,
            seed=seed,
            total_answers_hint=total_answers_hint,
        )
        self._writer_server: Optional[ConsensusServer] = None
        self._replicas: List[_Replica] = [
            _Replica(i, replica_mode, self._reconnects) for i in range(n_replicas)
        ]
        self._lock = threading.Lock()
        # Serializes the slow lifecycle paths (start/refresh/close) so
        # they never overlap, without holding ``_lock`` — the state lock
        # is only ever taken for brief snapshot/commit sections, never
        # across subprocess spawns, socket I/O, or process waits.
        self._lifecycle_serial = threading.Lock()
        self._stop = threading.Event()
        self._refresh_thread: Optional[threading.Thread] = None
        self._refresh_count = 0
        self._started = False
        self._closed = False
        self.last_errors: Dict[str, str] = {}

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "FleetManager":
        """Bind the writer, launch every replica, arm the refresh timer."""
        with self._lifecycle_serial:
            return self._start_once()

    def _start_once(self) -> "FleetManager":
        """The body of :meth:`start`, already serialized.

        The writer bind and every replica launch run *outside* ``_lock``;
        the state lock is only taken to publish results.  Every process
        replica is spawned before the first port-file poll, so their
        start-ups overlap.  A failed launch stops every replica spawned
        so far and the writer before it re-raises, and leaves
        ``_started`` false.
        """
        with self._lock:
            if self._started:
                return self
        writer = ConsensusServer(
            self.engine,
            self.host,
            0,
            auto_step=self.auto_step,
        ).serve_in_thread()
        with self._lock:
            self._writer_server = writer
        try:
            for replica in self._replicas:
                self._launch_replica(replica)
            deadline = time.monotonic() + 30.0
            for replica in self._replicas:
                self._await_replica(replica, deadline)
        except BaseException:  # noqa: BLE001 - re-raised once the partial fleet is stopped
            self._teardown()
            raise
        with self._lock:
            self._started = True
            if self.refresh_interval > 0:
                self._refresh_thread = threading.Thread(
                    target=self._refresh_loop,
                    name="fleet-refresh",
                    daemon=True,
                )
                self._refresh_thread.start()
        return self

    def _launch_replica(self, replica: _Replica) -> None:
        """Serve a thread replica, or spawn a process replica (which
        announces its address to :meth:`_await_replica`)."""
        if replica.mode == "thread":
            engine = ConsensusEngine(
                self.config,
                self.n_items,
                self.n_workers,
                self.n_labels,
                seed=self.seed,
                total_answers_hint=self.total_answers_hint,
            )
            replica.server = ConsensusServer(
                engine,
                self.host,
                0,
                auto_step=False,
                read_only=True,
            ).serve_in_thread()
            replica.address = replica.server.address
        else:
            replica.port_dir = tempfile.mkdtemp(prefix="repro-fleet-")
            port_file = os.path.join(replica.port_dir, "port")
            env = dict(os.environ)
            src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            env["PYTHONPATH"] = src + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            command = [
                sys.executable,
                "-m",
                "repro.serve",
                "--listen",
                f"{self.host}:0",
                "--items",
                str(self.n_items),
                "--workers",
                str(self.n_workers),
                "--labels",
                str(self.n_labels),
                "--seed",
                str(int(self.seed) if self.seed is not None else 0),
                "--dtype",
                str(self.config.dtype),
                "--step-answers",
                str(self.config.svi_batch_answers),
                "--no-auto-step",
                "--read-only",
                "--port-file",
                port_file,
            ]
            if self.total_answers_hint is not None:
                command += ["--total-answers-hint", str(self.total_answers_hint)]
            replica.process = subprocess.Popen(
                command,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

    def _await_replica(self, replica: _Replica, deadline: float) -> None:
        if replica.process is not None:
            port_file = os.path.join(replica.port_dir, "port")
            while not (os.path.exists(port_file) and os.path.getsize(port_file) > 0):
                if replica.process.poll() is not None:
                    raise TransportError(
                        f"replica daemon #{replica.index} exited during "
                        f"startup (code {replica.process.returncode})"
                    )
                if time.monotonic() > deadline:
                    raise TransportError(
                        f"replica daemon #{replica.index} did not announce its "
                        "port in time"
                    )
                time.sleep(0.02)
            with open(port_file, "r", encoding="utf-8") as handle:
                replica.address = handle.read().strip()
        replica.host, replica.port = parse_address(replica.address)
        replica.address = format_address(replica.host, replica.port)

    def close(self) -> None:
        """Stop the refresh thread, every replica, and the writer.

        The refresh thread is joined *before* taking
        ``_lifecycle_serial`` (it may be inside a serialized refresh);
        the teardown itself — process terminate/wait, server and channel
        closes — then runs under the serial mutex but outside ``_lock``,
        so status queries keep answering while replicas drain.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        if self._refresh_thread is not None:
            self._refresh_thread.join(timeout=30.0)
        with self._lifecycle_serial:
            self._teardown()

    def _teardown(self) -> None:
        with self._lock:
            replicas = list(self._replicas)
            writer = self._writer_server
        for replica in replicas:
            if replica.channel is not None:
                replica.channel.close()
                replica.channel = None
            if replica.server is not None:
                replica.server.close()
            if replica.process is not None and replica.process.poll() is None:
                replica.process.terminate()
                with contextlib.suppress(subprocess.TimeoutExpired):
                    replica.process.wait(timeout=10.0)
                if replica.process.poll() is None:
                    replica.process.kill()
                    replica.process.wait(timeout=10.0)
            if replica.port_dir is not None:
                with contextlib.suppress(OSError):
                    for name in os.listdir(replica.port_dir):
                        os.unlink(os.path.join(replica.port_dir, name))
                    os.rmdir(replica.port_dir)
                replica.port_dir = None
        if writer is not None:
            writer.close()

    def __enter__(self) -> "FleetManager":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ addresses

    @property
    def writer_address(self) -> str:
        if self._writer_server is None:
            raise ConfigurationError("fleet is not started; call start() first")
        return self._writer_server.address

    def replica_addresses(self, live_only: bool = False) -> List[str]:
        with self._lock:
            return [
                replica.address
                for replica in self._replicas
                if replica.address
                and (not live_only or not replica.health.excluded)
            ]

    def client(self, **kwargs: Any) -> "FleetClient":
        """A fresh :class:`FleetClient` bound to this fleet's addresses."""
        return FleetClient(
            self.writer_address, self.replica_addresses(live_only=True), **kwargs
        )

    # -------------------------------------------------------------- refresh

    def _refresh_loop(self) -> None:
        """Background snapshot timer: refresh every ``refresh_interval``
        seconds until :meth:`close`."""
        while not self._stop.wait(self.refresh_interval):
            try:
                self.refresh_replicas()
            except ReproError:
                # every replica failing in one round must not kill the
                # timer — the writer keeps serving and the next round
                # retries whatever reconnect budget remains.
                continue

    def refresh_replicas(self) -> Dict[str, ShipReport]:
        """Snapshot the writer and ship the chunk delta to live replicas.

        Returns per-address :class:`~repro.serve.ShipReport` accounting.
        The writer's snapshot-age clock is reset (``mark_snapshot``) only
        when the snapshot was durably captured somewhere — shipped to at
        least one replica or written to ``snapshot_path``.  A replica
        whose ship fails beyond its reconnect budget, or that refuses the
        snapshot (outgrown process replica), is excluded and recorded in
        ``last_errors``.  A failed ``snapshot_path`` write is recorded
        there under the path and, once the replicas are shipped, raised
        as :class:`~repro.errors.CheckpointError`.
        """
        with self._lifecycle_serial:
            return self._refresh_once()

    def _refresh_once(self) -> Dict[str, ShipReport]:
        """One serialized refresh round: snapshot under ``_lock``, ship
        over the network with no lock held, commit outcomes under
        ``_lock``."""
        with self._lock:
            if not self._started or self._closed:
                raise ConfigurationError(
                    "fleet is not running; call start() before refresh_replicas()"
                )
            payload = self.engine.snapshot_payload()
            blob = dumps(payload)
            targets = [
                replica
                for replica in self._replicas
                if not replica.health.excluded
            ]
        captured = False
        write_error: Optional[CheckpointError] = None
        if self.snapshot_path:
            try:
                self._write_snapshot(blob)
                captured = True
            except CheckpointError as exc:
                write_error = exc
        # (replica, report, transient error, permanent error) per target
        outcomes = []
        for replica in targets:
            try:
                self._grow_thread_replica(replica)
                report = self._ship(replica, blob)
            except TransportError as exc:
                # _ship exhausted the reconnect budget: transient
                outcomes.append((replica, None, exc, None))
            except ReproError as exc:
                # the replica refused the snapshot (e.g. outgrown
                # process replica): permanent, take it out of rotation
                outcomes.append((replica, None, None, exc))
            else:
                outcomes.append((replica, report, None, None))
        reports: Dict[str, ShipReport] = {}
        with self._lock:
            for replica, report, transient, permanent in outcomes:
                if transient is not None:
                    self.last_errors[replica.address] = str(transient)
                elif permanent is not None:
                    replica.health.exclude()
                    self.last_errors[replica.address] = str(permanent)
                else:
                    replica.last_report = report
                    replica.health.recover()
                    reports[replica.address] = report
                    captured = True
            if write_error is not None:
                self.last_errors[self.snapshot_path] = str(write_error)
            if captured:
                self.engine.mark_snapshot()
            self._refresh_count += 1
        if write_error is not None:
            raise write_error
        return reports

    def _write_snapshot(self, blob: bytes) -> None:
        """Write ``blob`` to ``snapshot_path`` through a ``.tmp`` file and
        a rename; a failed write removes the ``.tmp`` and raises
        :class:`~repro.errors.CheckpointError` naming the path."""
        tmp_path = self.snapshot_path + ".tmp"
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, self.snapshot_path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise CheckpointError(
                f"cannot write the fleet snapshot to {self.snapshot_path!r}: {exc}"
            ) from exc

    def _grow_thread_replica(self, replica: _Replica) -> None:
        """Match a thread-mode replica's index spaces to the writer's."""
        if replica.server is None:
            return
        engine = replica.server.engine
        writer = self.engine.engine
        if (
            writer.n_items > engine.engine.n_items
            or writer.n_workers > engine.engine.n_workers
            or writer.n_labels > engine.engine.n_labels
        ):
            engine.grow(
                max(writer.n_items, engine.engine.n_items),
                max(writer.n_workers, engine.engine.n_workers),
                max(writer.n_labels, engine.engine.n_labels),
            )

    def _ship(self, replica: _Replica, blob: bytes) -> ShipReport:
        """Ship ``blob`` to one replica, reconnecting within its budget.

        Each failed attempt consumes one reconnect; when the budget is
        dry the replica is excluded and the :class:`TransportError`
        propagates to :meth:`refresh_replicas`.
        """
        while True:
            try:
                if replica.channel is None:
                    replica.channel = connect(
                        replica.host, replica.port, timeout=self._request_timeout
                    )
                return ship_checkpoint(
                    replica.channel,
                    blob,
                    chunk_bytes=self._chunk_bytes,
                    timeout=self._request_timeout,
                )
            except TransportError:
                if replica.channel is not None:
                    replica.channel.close()
                    replica.channel = None
                if not replica.health.consume_reconnect():
                    replica.health.exclude()
                    raise

    # ------------------------------------------------------------ telemetry

    def status(self) -> Dict[str, Any]:
        """Writer metrics plus per-replica health and last refresh."""
        with self._lock:
            replicas = []
            for replica in self._replicas:
                report = replica.last_report
                replicas.append(
                    {
                        "address": replica.address,
                        "mode": replica.mode,
                        "health": replica.health.state,
                        "last_delta_ratio": (
                            report.delta_ratio if report is not None else None
                        ),
                        "last_shipped_bytes": (
                            report.shipped_bytes if report is not None else None
                        ),
                    }
                )
            return {
                "writer": {
                    "address": (
                        self._writer_server.address
                        if self._writer_server is not None
                        else None
                    ),
                    **self.engine.metrics(),
                },
                "replicas": replicas,
                "refresh_count": self._refresh_count,
                "refresh_interval": self.refresh_interval,
                "last_errors": dict(self.last_errors),
            }


# ----------------------------------------------------------------- router


class _ReplicaSlot:
    """Router-side record of one read replica."""

    __slots__ = (
        "index",
        "address",
        "client",
        "health",
        "answers_behind",
        "snapshot_age_steps",
        "status_at",
    )

    def __init__(self, index: int, address: str, reconnects: int) -> None:
        self.index = index
        host, port = parse_address(address)
        self.address = format_address(host, port)
        self.client: Optional[ServeClient] = None
        self.health = LaneHealth(reconnects)
        self.answers_behind: Optional[int] = None
        self.snapshot_age_steps: Optional[int] = None
        self.status_at = 0.0


class FleetRouter:
    """Staleness-aware routing policy over the replica set.

    Pure policy plus per-replica health: connections are opened lazily on
    first use, so the policy itself is unit-testable without sockets.
    Two policies:

    * ``round_robin`` — cycle over non-excluded replicas in address
      order; ignores staleness.
    * ``least_staleness`` — prefer the replica with the smallest
      ``(answers_behind, snapshot_age_steps)`` as last reported by its
      ``status`` reply (unreported replicas sort last); ties break on
      registration order, so the choice is deterministic.

    Failure handling reuses the compute-lane
    :class:`~repro.utils.transport.LaneHealth` machine: a timed-out
    replica turns *suspect* and receives no queries until
    ``suspect_grace`` elapses, after which :meth:`choose` revives it
    through a fresh connection (consuming reconnect budget) or excludes
    it; a connection failure is a reconnect-or-exclude immediately.
    Unlike the compute lanes there is nothing to harvest from a hung
    replica — queries are stateless reads and simply re-route.
    """

    def __init__(
        self,
        replica_addresses: Sequence[str],
        *,
        policy: str = "least_staleness",
        timeout: Optional[float] = 30.0,
        reconnects: int = 1,
        suspect_grace: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {policy!r}; choose from {POLICIES}"
            )
        self.policy = policy
        self.timeout = timeout
        self.suspect_grace = float(suspect_grace)
        self._clock = clock
        self._slots = [
            _ReplicaSlot(index, address, reconnects)
            for index, address in enumerate(replica_addresses)
        ]
        self._rr_next = 0

    # ------------------------------------------------------------- plumbing

    def _slot(self, address: str) -> _ReplicaSlot:
        for slot in self._slots:
            if slot.address == address:
                return slot
        raise ConfigurationError(
            f"no replica {address!r} in this router; replicas: "
            f"{[slot.address for slot in self._slots]}"
        )

    def client_for(self, address: str) -> ServeClient:
        """The (lazily connected) client of one replica; may raise
        :class:`~repro.errors.TransportError` on connect."""
        slot = self._slot(address)
        if slot.client is None:
            slot.client = ServeClient(slot.address, timeout=self.timeout)
        return slot.client

    def _drop_client(self, slot: _ReplicaSlot) -> None:
        if slot.client is not None:
            slot.client.close()
            slot.client = None

    # -------------------------------------------------------------- health

    def mark_suspect(self, address: str) -> None:
        """A query deadline expired: shun the replica for the grace
        window, then revive-or-exclude on the next :meth:`choose`."""
        slot = self._slot(address)
        slot.health.mark_suspect(self._clock() + self.suspect_grace)
        self._drop_client(slot)

    def fail(self, address: str) -> None:
        """A connection-level failure: reconnect now or exclude."""
        slot = self._slot(address)
        self._drop_client(slot)
        self._revive(slot)

    def _revive(self, slot: _ReplicaSlot) -> None:
        """Try to bring a slot back to *live* through a fresh connection,
        consuming reconnect budget; exclude when the budget is dry."""
        while slot.health.consume_reconnect():
            try:
                slot.client = ServeClient(slot.address, timeout=self.timeout)
            except TransportError:
                continue
            slot.health.recover()
            return
        slot.health.exclude()

    def _due_suspects(self) -> None:
        now = self._clock()
        for slot in self._slots:
            if slot.health.suspect and now >= slot.health.suspect_deadline:
                self._revive(slot)

    # -------------------------------------------------------------- policy

    def note_status(self, address: str, metrics: Dict[str, Any]) -> None:
        """Record one replica's ``status`` reply for the staleness policy."""
        slot = self._slot(address)
        slot.answers_behind = int(metrics.get("answers_behind", 0))
        slot.snapshot_age_steps = int(metrics.get("snapshot_age_steps", 0))
        slot.status_at = self._clock()

    def poll_status(self) -> Dict[str, Dict[str, Any]]:
        """Fetch ``status`` from every live replica and record it."""
        statuses: Dict[str, Dict[str, Any]] = {}
        for slot in list(self._slots):
            if not slot.health.live:
                continue
            try:
                metrics = self.client_for(slot.address).status()
            except LaneTimeout:
                self.mark_suspect(slot.address)
                continue
            except TransportError:
                self.fail(slot.address)
                continue
            self.note_status(slot.address, metrics)
            statuses[slot.address] = metrics
        return statuses

    def choose(self) -> Optional[str]:
        """The replica address the next query should go to (``None`` when
        no replica is usable)."""
        self._due_suspects()
        live = [slot for slot in self._slots if slot.health.live]
        if not live:
            return None
        if self.policy == "round_robin":
            slot = live[self._rr_next % len(live)]
            self._rr_next += 1
            return slot.address
        slot = min(
            live,
            key=lambda s: (
                s.answers_behind if s.answers_behind is not None else sys.maxsize,
                s.snapshot_age_steps
                if s.snapshot_age_steps is not None
                else sys.maxsize,
                s.index,
            ),
        )
        return slot.address

    def states(self) -> Dict[str, str]:
        """``{address: "live" | "suspect" | "excluded"}`` for telemetry."""
        return {slot.address: slot.health.state for slot in self._slots}

    def close(self) -> None:
        for slot in self._slots:
            self._drop_client(slot)


# ----------------------------------------------------------------- client


class FleetClient:
    """Fleet-facing client: writes to the writer, reads via the router.

    ``ingest``/``step`` go to the writer (the single process folding the
    stream); ``predict``/``label_probabilities`` are routed to a replica
    by the router's policy, failing over — with answers bitwise identical,
    since every replica serves the same shipped snapshot — until a
    replica answers.  When every replica is excluded the client falls
    back to querying the writer directly (``fallback_to_writer=False``
    raises :class:`~repro.errors.TransportError` instead, for callers
    that must never load the writer).

    ``status()`` aggregates the writer's metrics, every replica's
    metrics (which also feeds the ``least_staleness`` policy), and the
    router's health states.  Not thread-safe — one instance per thread.
    """

    def __init__(
        self,
        writer_address: str,
        replica_addresses: Sequence[str],
        *,
        policy: str = "least_staleness",
        timeout: Optional[float] = 30.0,
        reconnects: int = 1,
        suspect_grace: float = 2.0,
        status_max_age: float = 1.0,
        fallback_to_writer: bool = True,
    ) -> None:
        self.router = FleetRouter(
            replica_addresses,
            policy=policy,
            timeout=timeout,
            reconnects=reconnects,
            suspect_grace=suspect_grace,
        )
        self._writer = ServeClient(writer_address, timeout=timeout)
        self._status_max_age = float(status_max_age)
        self._status_polled_at: Optional[float] = None
        self._fallback_to_writer = fallback_to_writer

    # -------------------------------------------------------------- writes

    def ingest(self, batch: Any) -> Dict[str, Any]:
        return self._writer.ingest(batch)

    def step(self, max_batches: int = 0) -> int:
        return self._writer.step(max_batches)

    # --------------------------------------------------------------- reads

    def predict(
        self, items: Optional[Sequence[int]] = None
    ) -> Dict[int, List[int]]:
        return self._route(lambda client: client.predict(items))

    def label_probabilities(
        self, items: Optional[Sequence[int]] = None
    ) -> Tuple[List[int], np.ndarray]:
        return self._route(lambda client: client.label_probabilities(items))

    def status(self) -> Dict[str, Any]:
        """Writer + replica metrics + router health, one round-trip each."""
        replicas = self.router.poll_status()
        self._status_polled_at = time.monotonic()
        return {
            "writer": self._writer.status(),
            "replicas": replicas,
            "router": self.router.states(),
            "policy": self.router.policy,
        }

    def _maybe_poll_status(self) -> None:
        """Refresh the staleness table when it has gone stale itself
        (only the ``least_staleness`` policy reads it)."""
        if self.router.policy != "least_staleness":
            return
        now = time.monotonic()
        if (
            self._status_polled_at is None
            or now - self._status_polled_at >= self._status_max_age
        ):
            self.router.poll_status()
            self._status_polled_at = now

    def _route(self, call: Callable[[ServeClient], Any]) -> Any:
        """Send one read query to a replica chosen by the policy, failing
        over through the health machine until one answers."""
        self._maybe_poll_status()
        while True:
            address = self.router.choose()
            if address is None:
                break
            try:
                client = self.router.client_for(address)
            except TransportError:
                self.router.fail(address)
                continue
            try:
                return call(client)
            except LaneTimeout:
                self.router.mark_suspect(address)
                continue
            except TransportError:
                self.router.fail(address)
                continue
        if self._fallback_to_writer:
            return call(self._writer)
        raise TransportError(
            "no live read replica remains (all excluded after their "
            "reconnect budgets) and writer fallback is disabled"
        )

    def close(self) -> None:
        self.router.close()
        self._writer.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -------------------------------------------------------------------- CLI


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description=(
            "Replica-fleet consensus serving: one writer daemon folding "
            "the answer stream plus N read-only replicas refreshed over "
            "chunk deltas on a timer.  The --port-file lists the writer "
            "address on the first line and one replica address per "
            "further line; point FleetClient (or any ServeClient) at "
            "them."
        ),
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
        "--replicas",
        type=int,
        default=2,
        help="read replicas to run (default %(default)s)",
    )
    parser.add_argument(
        "--replica-mode",
        choices=REPLICA_MODES,
        default="process",
        help="replica hosting: separate processes (real read parallelism) "
        "or in-process threads (default %(default)s)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="host every daemon binds to (default %(default)s)",
    )
    parser.add_argument(
        "--refresh-interval",
        type=float,
        default=2.0,
        help="background snapshot/refresh cadence in seconds; 0 disables "
        "the timer (default %(default)s)",
    )
    parser.add_argument(
        "--snapshot",
        default=None,
        help="also write each periodic snapshot to this file (atomic replace)",
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
        help="SVI step size in answers (default %(default)s)",
    )
    parser.add_argument(
        "--total-answers-hint",
        type=int,
        default=None,
        help="expected total answers of the stream",
    )
    parser.add_argument(
        "--no-auto-step",
        action="store_true",
        help="writer does not fold after every ingest",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write 'writer\\nreplica...' addresses here once listening",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = CPAConfig(
        seed=args.seed, dtype=args.dtype, svi_batch_answers=args.step_answers
    )
    manager = FleetManager(
        config,
        args.items,
        args.workers,
        args.labels,
        n_replicas=args.replicas,
        seed=args.seed,
        total_answers_hint=args.total_answers_hint,
        replica_mode=args.replica_mode,
        host=args.host,
        auto_step=not args.no_auto_step,
        refresh_interval=args.refresh_interval,
        snapshot_path=args.snapshot,
    )
    try:
        manager.start()
        addresses = [manager.writer_address] + manager.replica_addresses()
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write("\n".join(addresses) + "\n")
        print(f"fleet writer listening on {manager.writer_address}", flush=True)
        for address in addresses[1:]:
            print(f"fleet replica listening on {address}", flush=True)
        while True:
            time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        manager.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
