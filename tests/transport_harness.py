"""Loopback harness for the multi-node lane transport tests.

Spawns *real* worker daemons — :class:`~repro.utils.transport.WorkerServer`
on in-process background threads for speed, or ``python -m repro.worker``
subprocesses for full process isolation — and provides deterministic
fault injection at the channel seam:

* :class:`FaultyChannel` wraps a live :class:`~repro.utils.transport.Channel`
  and injects, at exact request indices, connection drops (the frame
  never leaves), truncated frames (the daemon sees a mid-frame EOF), and
  lost replies (the daemon executed the task but the reply dies on the
  wire).  Faults are keyed by per-channel operation counters, so a test
  replays identically every run — no timing races.
* :func:`faulty_lane_factory` turns a fault schedule into the
  ``channel_factory`` hook of :class:`~repro.utils.parallel.RemoteExecutor`,
  targeting specific (lane, connection-attempt) pairs.
* :class:`KillAfterMapOn` kills a chosen daemon after the N-th ``map_on``
  dispatch — the deterministic "worker dies mid-sweep" scenario (a sweep
  issues several ``map_on`` calls, so killing between them interrupts
  the sweep with partial state already merged).

This module is imported by the transport/chaos tests; it is not itself a
test module.
"""

from __future__ import annotations

import contextlib
import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TransportError
from repro.utils.parallel import RemoteExecutor
from repro.utils.transport import Channel, WorkerServer, connect, dumps

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------- in-process pool


@contextlib.contextmanager
def worker_fleet(n: int, payload_cap: int = 8) -> Iterator[List[WorkerServer]]:
    """``n`` in-process worker daemons, each on its own loopback port."""
    servers = [
        WorkerServer(payload_cap=payload_cap).serve_in_thread() for _ in range(n)
    ]
    try:
        yield servers
    finally:
        for server in servers:
            server.close()


@contextlib.contextmanager
def remote_pool(
    n: int, payload_cap: int = 8, **executor_kwargs
) -> Iterator[Tuple[RemoteExecutor, List[WorkerServer]]]:
    """A :class:`RemoteExecutor` over ``n`` fresh in-process daemons."""
    with worker_fleet(n, payload_cap=payload_cap) as servers:
        executor = RemoteExecutor(
            [server.address for server in servers], **executor_kwargs
        )
        try:
            yield executor, servers
        finally:
            executor.close()


# ------------------------------------------------------- subprocess daemons


class SubprocessWorker:
    """One ``python -m repro.worker`` daemon in its own process."""

    def __init__(self, payload_cap: int = 8, startup_timeout: float = 20.0) -> None:
        self._port_dir = tempfile.mkdtemp(prefix="repro-worker-")
        port_file = os.path.join(self._port_dir, "port")
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.worker",
                "--listen",
                "127.0.0.1:0",
                "--port-file",
                port_file,
                "--payload-cap",
                str(payload_cap),
            ],
            env=env,
            # cwd at the repo root so task functions defined in test
            # modules unpickle on the daemon (`tests.` is importable).
            cwd=str(REPO_ROOT),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + startup_timeout
        while time.monotonic() < deadline:
            if os.path.exists(port_file) and os.path.getsize(port_file) > 0:
                break
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"worker daemon exited early (code {self.proc.returncode})"
                )
            time.sleep(0.02)
        else:
            self.kill()
            raise RuntimeError("worker daemon did not announce its port in time")
        self.address = Path(port_file).read_text(encoding="utf-8").strip()

    def kill(self) -> None:
        """SIGKILL — the real thing, not a simulation."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)

    def close(self) -> None:
        self.kill()
        with contextlib.suppress(OSError):
            for name in os.listdir(self._port_dir):
                os.unlink(os.path.join(self._port_dir, name))
            os.rmdir(self._port_dir)

    def __enter__(self) -> "SubprocessWorker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------- fault injection


class FaultSchedule:
    """Deterministic fault plan for one channel (connection attempt).

    Indices count the channel's ``send``/``recv`` calls from 0; the
    matching call fails exactly once, after which the connection is dead
    (as a real broken connection would be).
    """

    def __init__(
        self,
        drop_send_at: Sequence[int] = (),
        truncate_send_at: Sequence[int] = (),
        drop_recv_at: Sequence[int] = (),
    ) -> None:
        self.drop_send_at = frozenset(drop_send_at)
        self.truncate_send_at = frozenset(truncate_send_at)
        self.drop_recv_at = frozenset(drop_recv_at)


class FaultyChannel(Channel):
    """A :class:`Channel` that fails on schedule.

    * *drop* — the socket closes before the frame leaves: the daemon
      never sees the request.
    * *truncate* — half the frame leaves, then the socket closes: the
      daemon reads a mid-frame EOF and must drop the connection without
      corrupting its registry.
    * *recv drop* — the request was delivered and executed, but the
      reply is lost: the client must retry the tasks elsewhere (task
      functions are pure, so recomputing is bitwise-identical).
    """

    def __init__(self, sock, schedule: FaultSchedule) -> None:
        super().__init__(sock)
        self._schedule = schedule
        self._sends = 0
        self._recvs = 0

    def send(self, message: object) -> None:
        index = self._sends
        self._sends += 1
        if index in self._schedule.drop_send_at:
            self.close()
            raise TransportError(f"injected drop before send #{index}")
        if index in self._schedule.truncate_send_at:
            body = dumps(message)
            frame = struct.pack(">Q", len(body)) + body
            with contextlib.suppress(TransportError):
                self.send_raw(frame[: max(4, len(frame) // 2)])
            self.close()
            raise TransportError(f"injected truncation at send #{index}")
        super().send(message)

    def recv(self, timeout=None):
        index = self._recvs
        self._recvs += 1
        if index in self._schedule.drop_recv_at:
            self.close()
            raise TransportError(f"injected drop before recv #{index}")
        return super().recv(timeout=timeout)


def faulty_lane_factory(
    faults: Dict[Tuple[int, int], FaultSchedule],
    connect_timeout: float = 5.0,
):
    """``channel_factory`` injecting faults at (lane, connection-attempt).

    ``faults[(lane_index, attempt)]`` is applied to that lane's
    ``attempt``-th connection (0 = the first); unlisted connections get
    plain channels, so a faulted lane heals on reconnect.
    """
    attempts: Dict[int, int] = {}

    def factory(lane_index: int, host: str, port: int):
        attempt = attempts.get(lane_index, 0)
        attempts[lane_index] = attempt + 1
        channel = connect(host, port, timeout=connect_timeout)
        schedule = faults.get((lane_index, attempt))
        if schedule is None:
            return channel
        sock = channel._sock
        return FaultyChannel(sock, schedule)

    return factory


class _StallingChannel(Channel):
    """Server-side channel that parks the handler thread on a gate just
    after reading a scheduled request — the daemon has *accepted* the
    work but never answers until released."""

    def __init__(self, sock, server: "StallingWorkerServer") -> None:
        super().__init__(sock)
        self._server = server

    def recv_or_eof(self):
        alive, message = super().recv_or_eof()
        if alive:
            self._server._maybe_stall(message)
        return alive, message


class StallingWorkerServer(WorkerServer):
    """A daemon that *hangs* (does not die) on schedule — the straggler.

    ``stall_at`` is a set of ``(op, occurrence)`` pairs: the handler
    thread stalls on an event just after reading the N-th request of
    that op (counting from 0 across all connections), before executing
    or replying.  The accept loop stays alive throughout, so the daemon
    looks perfectly healthy to a connect probe — exactly the failure
    deadlines exist for: without them the client blocks on the reply
    forever.  Each scheduled stall fires once; ``unstall()`` releases
    every stalled handler (the late reply then goes out on the
    still-open channel, which is what the client's harvest path
    consumes).  A *new* connection gets a fresh handler thread, so a
    client that reconnects past a stalled handler computes normally —
    the "hung handler, live daemon" recovery.  ``kill``/``close``
    release stalled handlers so tests can always tear down.
    """

    def __init__(
        self, *args, stall_at: Sequence[Tuple[str, int]] = (), **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self._stall_at = {tuple(entry) for entry in stall_at}
        self._stall_gate = threading.Event()
        self._stall_lock = threading.Lock()
        self._op_seen: Dict[str, int] = {}
        #: handler threads currently parked on the gate.
        self.stalled = 0

    def _make_channel(self, conn) -> Channel:
        return _StallingChannel(conn, self)

    def _maybe_stall(self, message) -> None:
        op = message[0] if isinstance(message, tuple) and message else "?"
        with self._stall_lock:
            occurrence = self._op_seen.get(op, 0)
            self._op_seen[op] = occurrence + 1
            hit = (op, occurrence) in self._stall_at
            if hit:
                self._stall_at.discard((op, occurrence))
                self.stalled += 1
        if hit:
            try:
                self._stall_gate.wait()
            finally:
                with self._stall_lock:
                    self.stalled -= 1

    def unstall(self) -> None:
        """Release every stalled handler (their late replies go out)."""
        self._stall_gate.set()

    def kill(self) -> None:
        self._stall_gate.set()
        super().kill()


# ------------------------------------------------------------ chaos drivers


class KillAfterMapOn(RemoteExecutor):
    """Kill a daemon after the N-th ``map_on`` dispatch (then count on).

    A batch-VI sweep issues two ``map_on`` calls (the κ half, then the
    ϕ half), so a kill after the first call of sweep *k* murders the
    worker between two lane calls of the same sweep — the deterministic
    mid-sweep crash.
    """

    def __init__(self, workers, victim: WorkerServer, kill_after: int, **kwargs):
        super().__init__(workers, **kwargs)
        self._victim = victim
        self._kill_after = int(kill_after)
        self.map_on_calls = 0

    def map_on(self, key, func, tasks):
        if self.map_on_calls == self._kill_after:
            self._victim.kill()
        self.map_on_calls += 1
        return super().map_on(key, func, tasks)
