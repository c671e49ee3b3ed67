"""Execution backends for the MapReduce-style inference of paper Alg. 3.

The paper parallelises the *local* variational updates (the MAP phase) over
workers and reduces the global statistics centrally.  This module provides
interchangeable executors with that exact contract:

* :class:`SerialExecutor` — baseline, zero overhead.
* :class:`ThreadExecutor` — threads; useful when the map function releases
  the GIL (large BLAS calls).
* :class:`ProcessExecutor` — local child processes; true scale-up on
  multicore machines, used by the Fig-7 runtime experiment.
* :class:`RemoteExecutor` — ``python -m repro.worker`` daemons over TCP.

Executors map a function over caller-prepared tasks
(:meth:`Executor.map_tasks`), one task per lane ideally, so per-task
overhead is amortised, mirroring how Alg. 3 shards the answer matrix by
worker key.

Stateful lanes (DESIGN.md §6 "Lane-resident shard state"): every executor
additionally supports :meth:`Executor.broadcast` /
:meth:`Executor.map_on`, the pair the sharded sweep backend uses to keep
large read-only payloads (shard kernels) resident at the lanes so that
per-sweep tasks carry only the small updated posteriors.  Serial and
thread backends hold broadcast state in-process; process and remote
lanes hold it in each lane's
:class:`~repro.utils.transport.PayloadRegistry`.  All broadcast state is
released by :meth:`Executor.close`.

Remote lanes (DESIGN.md §6 "Remote lanes"): :class:`RemoteExecutor`
implements the same contract over TCP against ``python -m repro.worker``
daemons — ``broadcast`` ships a payload once per plan to every lane,
``map_on`` ships only the small per-sweep tasks, ``map_tasks``
round-robins stateless tasks — with per-lane retry/exclusion on
connection loss: a lost lane's pending tasks are reassigned to the
survivors, payloads are re-broadcast to lanes that lost them
(reconnects, LRU eviction on the daemon, replacement workers), and only
when *every* lane is gone does a call fail.  The elastic-fleet layer
(DESIGN.md §6 "Elastic fleet") extends the pair with per-request
deadlines + straggler mitigation (a hung daemon delays, never stalls),
runtime membership (``add_worker`` / ``remove_worker``), and a
content-addressed chunk store so recovering lanes re-fetch only the
broadcast bytes they are actually missing.  :class:`ProcessExecutor` is
the same client, with each lane a local child process that runs the
daemon's request handler over one end of a socketpair.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import random
import socket
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ConfigurationError, TransportError, ValidationError
from repro.utils import transport as _transport

#: executor kinds :func:`make_executor` understands.
EXECUTOR_KINDS = ("serial", "thread", "process", "remote")

#: seam for the reconnect backoff sleeps — tests monkeypatch this to
#: record the exact delay sequence without waiting it out.
_sleep = time.sleep

T = TypeVar("T")
R = TypeVar("R")


def split_chunks(n: int, parts: int) -> List[range]:
    """Split ``range(n)`` into at most ``parts`` contiguous, balanced ranges.

    ``n == 0`` yields **no** chunks (``[]``), so a caller that builds one
    task per chunk gets an empty task list for an empty index range and
    must treat "no pieces" as the identity of its reduction
    (``tests/test_utils_misc.py`` pins the contract so a reduction step
    cannot be dropped silently).
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    if parts <= 0:
        raise ValidationError("parts must be positive")
    parts = min(parts, n) if n > 0 else 0
    chunks: List[range] = []
    base, extra = divmod(n, parts) if parts else (0, 0)
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


class Executor:
    """Maps work over explicit task lists or lane-resident state."""

    #: number of parallel lanes the executor exposes (1 for serial).
    degree: int = 1

    #: executor kind, used by error messages (loud-failure policy).
    kind: str = "abstract"

    def map_tasks(self, func: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        """Apply ``func`` to each prepared task (one task per lane, ideally).

        The caller pre-slices the data so a process backend ships only
        each lane's share — the pattern the frozen SVI MAP phase of
        :mod:`repro.core.reference` uses.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ resident

    def broadcast(self, key: str, payload: object) -> None:
        """Install ``payload`` as lane-resident state under ``key``.

        The payload becomes available to every lane for subsequent
        :meth:`map_on` calls; re-broadcasting a key replaces its payload.
        Process lanes receive the payload **once** (not per task), which
        is the point: a sharded sweep broadcasts its shard kernels once
        per plan and then ships only small per-sweep posteriors.
        """
        raise NotImplementedError

    def map_on(
        self, key: str, func: Callable[[Any, T], R], tasks: Sequence[T]
    ) -> List[R]:
        """Apply ``func(payload, task)`` per task against the resident payload.

        ``payload`` is the object last :meth:`broadcast` under ``key``;
        an unknown key raises :class:`~repro.errors.ConfigurationError`.
        Results preserve task order (the fixed-order merge contract of
        the sharded backend relies on this).
        """
        raise NotImplementedError

    def release(self, key: str) -> None:
        """Drop the resident payload under ``key`` (missing keys are a no-op)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources **and all broadcast state**; idempotent."""

    def _check_open(self) -> None:
        if getattr(self, "_closed", False):
            raise ConfigurationError(
                f"{self.kind} executor has been closed; create a fresh "
                "executor (closed pools evict their broadcast state and "
                "never restart)"
            )

    def _missing_key(self, key: str) -> ConfigurationError:
        return ConfigurationError(
            f"no broadcast state under key {key!r} on this {self.kind} "
            "executor; call broadcast() first (state is evicted on close())"
        )

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every task in the calling thread (the default backend)."""

    degree = 1
    kind = "serial"

    def __init__(self) -> None:
        self._resident: Dict[str, object] = {}
        self._closed = False

    def map_tasks(self, func: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        self._check_open()
        return [func(task) for task in tasks]

    def broadcast(self, key: str, payload: object) -> None:
        self._check_open()
        self._resident[key] = payload

    def map_on(
        self, key: str, func: Callable[[Any, T], R], tasks: Sequence[T]
    ) -> List[R]:
        self._check_open()
        if key not in self._resident:
            raise self._missing_key(key)
        payload = self._resident[key]
        return [func(payload, task) for task in tasks]

    def release(self, key: str) -> None:
        self._resident.pop(key, None)

    def close(self) -> None:
        self._closed = True
        self._resident.clear()


class ThreadExecutor(Executor):
    """Thread-pool backend running tasks on ``degree`` threads.

    The pool is created lazily on first use, so constructing an executor
    that is never exercised cannot leak worker threads.  Broadcast state
    lives in-process (threads share the address space), so :meth:`map_on`
    hands every worker the same payload object by reference.
    """

    kind = "thread"

    def __init__(self, degree: int | None = None) -> None:
        if degree is not None and degree <= 0:
            raise ValidationError("degree must be positive")
        self.degree = int(degree or os.cpu_count() or 1)
        self._pool: ThreadPoolExecutor | None = None
        self._resident: Dict[str, object] = {}
        self._closed = False

    def _ensure_pool(self) -> ThreadPoolExecutor:
        self._check_open()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.degree)
        return self._pool

    def map_tasks(self, func: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        return list(self._ensure_pool().map(func, tasks))

    def broadcast(self, key: str, payload: object) -> None:
        self._check_open()
        self._resident[key] = payload

    def map_on(
        self, key: str, func: Callable[[Any, T], R], tasks: Sequence[T]
    ) -> List[R]:
        self._check_open()
        if key not in self._resident:
            # validate before _ensure_pool: a bad key must not cost a pool
            raise self._missing_key(key)
        payload = self._resident[key]
        return list(self._ensure_pool().map(lambda task: func(payload, task), tasks))

    def release(self, key: str) -> None:
        self._resident.pop(key, None)

    def close(self) -> None:
        self._closed = True
        self._resident.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# -------------------------------------------------------------- remote lanes


class _Lane:
    """Client-side record of one lane: a worker daemon or a process lane.

    ``resident_keys`` tracks which broadcast keys the *daemon* is
    believed to hold; the belief is optimistic — a daemon that lost a
    payload (LRU eviction, restart) replies ``stale`` and the client
    re-broadcasts — so reconnecting never has to guess daemon state.

    ``health`` is the lane's :class:`~repro.utils.transport.LaneHealth`
    machine (DESIGN.md §6 "Elastic fleet"): *live* (usable), *suspect* (a
    per-request deadline expired with a reply still owed; the channel is
    kept — partial frames are buffered client-side — and the lane is
    polled for the late reply until ``health.suspect_deadline``, after
    which it is reconnected or excluded), *excluded* (terminal).  The
    same machine drives read-replica failover in :mod:`repro.fleet`.
    """

    __slots__ = (
        "index",
        "host",
        "port",
        "address",
        "channel",
        "resident_keys",
        "health",
        "outstanding",
    )

    def __init__(self, index: int, address: str, reconnects: int) -> None:
        self.index = index
        self.host, self.port = _transport.parse_address(address)
        self.address = _transport.format_address(self.host, self.port)
        self.channel: Optional[_transport.Channel] = None
        self.resident_keys: set = set()
        self.health = _transport.LaneHealth(reconnects)
        #: (dispatch token, task indices, broadcast key) of the one
        #: request whose reply this suspect lane still owes.
        self.outstanding: Optional[Tuple[int, List[int], Optional[str]]] = None


class RemoteExecutor(Executor):
    """Lane contract over TCP against ``python -m repro.worker`` daemons.

    One persistent framed channel per worker (lazy connect, like the
    local pools).  Transport policy, per call:

    * **broadcast** pickles the payload once, retains the bytes
      client-side, and ships them to every live lane — once per plan.  The
      retained copy is what makes recovery possible: any lane that later
      proves to be missing the key (reconnect after a drop, daemon-side
      LRU eviction, a replacement worker attached via :meth:`add_worker`)
      gets the bytes re-sent before its next ``map_on`` tasks.
    * **map_on / map_tasks** round-robin the task list over the live
      lanes, pipelined (all sends, then all receives), and reassemble
      results by task index — so results are in task order regardless of
      which lane computed what, preserving the fixed-order merge
      contract of the sharded backend bitwise.
    * **failure handling** — a lane whose channel fails (connection
      refused, reset, truncated frame) is reconnected up to
      ``reconnects`` times (jittered exponential backoff under a
      wall-clock budget) and then excluded; its pending tasks rejoin
      the pool and land on the survivors in the next round.  Only when
      every lane is excluded does the call raise
      :class:`~repro.errors.TransportError`.  Worker-side *task*
      exceptions are re-raised as-is — a bug in the task is the caller's
      problem, not a lane failure, and must not trigger retries.
    * **straggler mitigation** (``request_timeout > 0``) — a lane whose
      reply misses its deadline is not failed but marked *suspect*: its
      channel is kept (the partial frame stays buffered client-side, so
      the stream never desyncs), its pending tasks are speculatively
      re-dispatched to the live lanes, and the suspect is polled for the
      late reply.  First result per task wins; task functions are pure,
      so either copy is bitwise identical and results match serial.  A
      suspect silent past its grace window is reconnected (a hung
      *handler* on a live daemon is cured by a fresh connection) or
      excluded.  ``request_timeout=0`` (the default) disables deadlines
      entirely — replies are awaited forever, the pre-elastic behaviour.
    * **membership** — :meth:`add_worker` attaches lanes at runtime,
      :meth:`remove_worker` drains them; ``degree`` tracks the live
      count, which is what lets the sharded backend re-plan between
      sweeps without restarting inference.
    * **chunked broadcast** (``chunk_bytes > 0``) — payloads above the
      chunk size keep a digest manifest next to the retained blob; a
      lane is armed through :func:`~repro.utils.transport.ship_chunks`,
      which sends the manifest and then only the chunks its daemon
      lacks, so a reconnecting or replacement daemon with a warm chunk
      cache costs one manifest request instead of the full blob.

    The executor never owns daemon lifetime: :meth:`close` releases the
    broadcast state it installed and drops its connections, leaving the
    daemons up for the next client.
    """

    kind = "remote"

    def __init__(
        self,
        workers: Sequence[str],
        *,
        connect_timeout: float = 5.0,
        reconnects: int = 1,
        channel_factory: Optional[Callable[[int, str, int], object]] = None,
        request_timeout: float = 0.0,
        straggler_grace: Optional[float] = None,
        chunk_bytes: int = _transport.DEFAULT_BROADCAST_CHUNK_BYTES,
        reconnect_backoff: float = 0.05,
        reconnect_budget: float = 5.0,
    ) -> None:
        if not workers:
            raise ConfigurationError(
                "remote executor needs at least one worker address "
                "('host:port'); start daemons with "
                "`python -m repro.worker --listen host:port`"
            )
        if request_timeout < 0:
            raise ConfigurationError("request_timeout cannot be negative")
        if chunk_bytes < 0:
            raise ConfigurationError("chunk_bytes cannot be negative")
        self._reconnects = int(reconnects)
        self._connect_timeout = float(connect_timeout)
        self._channel_factory = channel_factory
        self._request_timeout = float(request_timeout)
        #: how long a suspect lane may stay silent before it is
        #: reconnected/excluded; defaults to two more request timeouts.
        self._straggler_grace = (
            float(straggler_grace)
            if straggler_grace is not None
            else 2.0 * self._request_timeout
        )
        self._chunk_bytes = int(chunk_bytes)
        self._reconnect_backoff = float(reconnect_backoff)
        self._reconnect_budget = float(reconnect_budget)
        #: jitter desynchronises reconnect storms across clients; seeded
        #: so a test run's delay sequence is reproducible.
        self._backoff_jitter = random.Random(0x5EED)
        self._lanes: List[_Lane] = []
        #: monotonic lane index: never reused after remove_worker, so
        #: (lane, attempt) keying in channel factories stays unambiguous.
        self._next_lane_index = 0
        for address in workers:
            self._attach_lane(address)
        self._payloads: Dict[str, bytes] = {}
        #: chunk digests of the retained blobs that ship chunked.
        self._manifests: Dict[str, List[bytes]] = {}
        #: distinguishes which _dispatch call a harvested late reply
        #: belongs to — replies for finished calls are discarded.
        self._dispatch_token = 0
        self._closed = False
        #: exact frame bytes spent on broadcast requests (including
        #: re-broadcasts after failures) — deterministic, benchmarked.
        self.broadcast_sent_bytes = 0
        self._retired_sent = 0
        self._retired_received = 0

    def _attach_lane(self, address: str) -> _Lane:
        lane = _Lane(self._next_lane_index, address, self._reconnects)
        self._next_lane_index += 1
        self._lanes.append(lane)
        return lane

    # ----------------------------------------------------------- telemetry

    @property
    def degree(self) -> int:  # type: ignore[override]
        """Live lanes.  Excluded lanes stop counting, so shard-count and
        chunk-split decisions taken after a failure see the real capacity
        (``CPAConfig.resolve_backend`` sizes K from this)."""
        return sum(1 for lane in self._lanes if not lane.health.excluded)

    @property
    def sent_bytes(self) -> int:
        """Total frame bytes sent over every channel this executor opened."""
        return self._retired_sent + sum(
            lane.channel.sent_bytes
            for lane in self._lanes
            if lane.channel is not None
        )

    @property
    def received_bytes(self) -> int:
        return self._retired_received + sum(
            lane.channel.received_bytes
            for lane in self._lanes
            if lane.channel is not None
        )

    def live_workers(self) -> List[str]:
        """Addresses of the lanes not (yet) excluded."""
        return [lane.address for lane in self._lanes if not lane.health.excluded]

    # ------------------------------------------------------ lane lifecycle

    def add_worker(self, address: str) -> None:
        """Attach a replacement/extra worker daemon as a new lane.

        The new lane holds no broadcast state; every key it needs is
        re-broadcast from the client's retained copy the first time a
        ``map_on`` task lands on it.
        """
        self._check_open()
        self._attach_lane(address)

    def remove_worker(self, address: str) -> None:
        """Drain and detach the lane for ``address`` at runtime.

        Drain semantics: an in-flight straggler reply is settled first
        (so no result computed for a live call is lost), the daemon's
        resident payloads installed by *this* client are released
        best-effort, and the lane leaves the pool — the daemon itself
        stays up for other clients.  Removing an address this executor
        does not hold, or the last non-excluded lane, raises
        :class:`~repro.errors.ConfigurationError` — a fleet of zero
        lanes cannot make progress and must be refused loudly.
        """
        self._check_open()
        host, port = _transport.parse_address(address)
        normalized = _transport.format_address(host, port)
        lane = next(
            (ln for ln in self._lanes if ln.address == normalized), None
        )
        if lane is None:
            raise ConfigurationError(
                f"no lane for worker {normalized!r} on this {self.kind} "
                f"executor; current lanes: {self.live_workers()}"
            )
        if not lane.health.excluded and all(
            ln.health.excluded for ln in self._lanes if ln is not lane
        ):
            raise ConfigurationError(
                f"cannot remove {normalized!r}: it is the last live lane "
                f"of this {self.kind} executor; attach a replacement with "
                "add_worker() first"
            )
        if lane.health.suspect:
            self._settle_suspects(only=lane)
        if not lane.health.excluded and lane.channel is not None:
            for key in sorted(lane.resident_keys):
                try:
                    _transport.request(
                        lane.channel,
                        ("release", key),
                        timeout=self._request_timeout or None,
                    )
                except TransportError:
                    break  # drain is best-effort; the lane leaves anyway
        self._drop_channel(lane)
        self._lanes.remove(lane)

    def _live_lanes(self) -> List[_Lane]:
        """Member (non-excluded) lanes, suspects included; loud if none."""
        lanes = [lane for lane in self._lanes if not lane.health.excluded]
        if not lanes:
            raise TransportError(
                "all remote workers are gone (every lane was excluded after "
                "its reconnect budget); attach replacements with add_worker() "
                "or restart the daemons and build a fresh executor"
            )
        return lanes

    def _scatter_lanes(self) -> List[_Lane]:
        """Lanes that may be sent new work right now (live, not suspect —
        a suspect's channel still owes a reply, so a new request on it
        would interleave frames)."""
        return [lane for lane in self._lanes if lane.health.live]

    def _connect_lane(self, lane: _Lane) -> None:
        if lane.channel is not None:
            return
        if self._channel_factory is not None:
            lane.channel = self._channel_factory(lane.index, lane.host, lane.port)
        else:
            lane.channel = _transport.connect(
                lane.host, lane.port, timeout=self._connect_timeout
            )

    def _drop_channel(self, lane: _Lane) -> None:
        if lane.channel is not None:
            self._retired_sent += lane.channel.sent_bytes
            self._retired_received += lane.channel.received_bytes
            lane.channel.close()
            lane.channel = None

    def _fail_lane(self, lane: _Lane) -> None:
        """Channel failure: reconnect within budget, else exclude the lane.

        ``resident_keys`` is kept across reconnects — if the daemon
        actually lost state (it died and something respawned it on the
        same address), its ``stale`` replies trigger re-broadcast anyway.

        Reconnect attempts after the first back off exponentially with
        jitter (base ``reconnect_backoff``, capped at 2 s per gap) under
        a total wall-clock budget (``reconnect_budget``) — a refused
        port must not be hammered in a tight loop, and a network that
        stays down must not stall the caller unboundedly.
        """
        self._drop_channel(lane)
        lane.health.recover()
        lane.outstanding = None
        deadline = time.monotonic() + self._reconnect_budget
        attempt = 0
        while lane.health.reconnects_left > 0:
            if attempt > 0:
                gap = min(2.0, self._reconnect_backoff * (2 ** (attempt - 1)))
                gap *= 0.5 + self._backoff_jitter.random()  # [0.5x, 1.5x)
                if time.monotonic() + gap > deadline:
                    break  # out of wall-clock budget: exclude
                _sleep(gap)
            attempt += 1
            lane.health.consume_reconnect()
            try:
                self._connect_lane(lane)
                return
            except TransportError:
                self._drop_channel(lane)
        lane.health.exclude()

    # ----------------------------------------------------------- stragglers

    def _settle_suspects(self, only: Optional[_Lane] = None) -> None:
        """Block until no suspect lane remains (reply harvested, lane
        reconnected, or lane excluded).  Public entry points that write
        to channels (broadcast, remove_worker) call this first — a
        suspect's channel owes a reply, and writing a new request before
        it lands would interleave frames."""
        while True:
            suspects = [
                lane
                for lane in self._lanes
                if lane.health.suspect and (only is None or lane is only)
            ]
            if not suspects:
                return
            self._poll_suspects(block=True, only=only)

    def _poll_suspects(
        self, block: bool = False, only: Optional[_Lane] = None
    ) -> List[Tuple[int, List[int], List]]:
        """Try to collect late replies from suspect lanes.

        Non-blocking by default (one poll per suspect); ``block=True``
        waits up to the request timeout per suspect.  A suspect whose
        grace window has expired is reconnected (fresh channel — which
        cures a hung handler thread on an otherwise-live daemon) or
        excluded by :meth:`_fail_lane`.  Returns the settled replies as
        ``(dispatch token, task indices, values)`` triples; the caller
        decides whether a triple belongs to the dispatch call it is
        currently assembling or is a stale leftover to discard.
        """
        settled: List[Tuple[int, List[int], List]] = []
        for lane in list(self._lanes):
            if not lane.health.suspect:
                continue
            if only is not None and lane is not only:
                continue
            timeout = (self._request_timeout or 1.0) if block else 0.0
            try:
                reply = lane.channel.recv(timeout=timeout)
            except _transport.LaneTimeout:
                if time.monotonic() >= lane.health.suspect_deadline:
                    self._fail_lane(lane)  # resets health/outstanding
                continue
            except TransportError:
                self._fail_lane(lane)
                continue
            outcome = self._settle_reply(lane, reply)
            if outcome is not None:
                settled.append(outcome)
        return settled

    def _settle_reply(
        self, lane: _Lane, reply: object
    ) -> Optional[Tuple[int, List[int], List]]:
        """A suspect lane finally answered: recover it to *live* and
        decide whether the reply's values are usable."""
        token, indices, key = lane.outstanding
        lane.outstanding = None
        lane.health.recover()
        try:
            values = _transport.unwrap_reply(reply)
        except _transport.StaleBroadcast:
            lane.resident_keys.discard(key)
            return None
        except TransportError:
            self._fail_lane(lane)
            return None
        except Exception:  # noqa: BLE001 - late worker task error
            # The task was (or will be) speculatively re-run on a live
            # lane; task functions are pure, so that copy raises the
            # same error deterministically if the call still cares.
            return None
        if not isinstance(values, list) or len(values) != len(indices):
            self._fail_lane(lane)
            return None
        return (token, list(indices), values)

    # ----------------------------------------------------- broadcast store

    def _store_payload(self, key: str, blob: bytes) -> None:
        """Retain ``blob`` client-side, with its chunk manifest when it
        crosses the chunk threshold (small payloads ship monolithically —
        a manifest round-trip would cost more than it saves)."""
        self._payloads[key] = blob
        if self._chunk_bytes > 0 and len(blob) > self._chunk_bytes:
            self._manifests[key] = _transport.chunk_manifest(blob, self._chunk_bytes)
        else:
            self._manifests.pop(key, None)

    def _install_payload(self, lane: _Lane, key: str) -> None:
        """Arm one connected lane with the payload under ``key``,
        accounting the exact broadcast bytes spent."""
        before = lane.channel.sent_bytes
        timeout = self._request_timeout or None
        try:
            if key in self._manifests:
                _transport.ship_chunks(
                    lane.channel,
                    key,
                    self._payloads[key],
                    self._manifests[key],
                    self._chunk_bytes,
                    timeout=timeout,
                )
            else:
                _transport.request(
                    lane.channel,
                    ("broadcast", key, self._payloads[key]),
                    timeout=timeout,
                )
        finally:
            if lane.channel is not None:
                self.broadcast_sent_bytes += lane.channel.sent_bytes - before
        lane.resident_keys.add(key)

    # ------------------------------------------------------------ dispatch

    def _ensure_resident(self, lane: _Lane, key: str) -> None:
        """Connect the lane and (re-)broadcast ``key`` if it lacks it."""
        self._connect_lane(lane)
        if key is None or key in lane.resident_keys:
            return
        self._install_payload(lane, key)

    def _dispatch(
        self,
        make_message: Callable[[List], tuple],
        tasks: Sequence,
        key: Optional[str] = None,
    ) -> List:
        """Scatter ``tasks`` over live lanes, gather results in task order.

        Rounds repeat until every task has a result; each round excludes
        (or reconnects) the lanes that failed, so the loop terminates —
        lane reconnect budgets are finite, suspect grace windows are
        finite, and the stale-broadcast budget bounds daemon-side
        eviction churn.

        Straggler rule: a lane that misses its reply deadline goes
        *suspect* and its tasks stay pending, to be speculatively
        re-dispatched to the live lanes next round.  Harvested late
        replies fill only still-open slots (first result per task wins);
        since task functions are pure, the speculative copy and the late
        original are bitwise identical, so dedup cannot change results.
        """
        results: List = [None] * len(tasks)
        done = [False] * len(tasks)
        pending = list(range(len(tasks)))
        stale_budget = 4 + 2 * len(self._lanes)
        self._dispatch_token += 1
        token = self._dispatch_token
        while pending:
            # settle stragglers first: a late reply may retire pending
            # tasks, and an expired grace reconnects/excludes the lane.
            # Block only when no lane is available for new work —
            # progress then depends entirely on the suspects.
            block = not self._scatter_lanes()
            for s_token, indices, values in self._poll_suspects(block=block):
                if s_token != token:
                    continue  # a finished call's reply: long since recomputed
                for index, value in zip(indices, values):
                    if not done[index]:
                        results[index] = value
                        done[index] = True
            pending = [index for index in pending if not done[index]]
            if not pending:
                break
            lanes = self._scatter_lanes()
            if not lanes:
                # only suspects remain: keep harvesting (raises if none do)
                self._live_lanes()
                continue
            sent: List[Tuple[_Lane, List[int]]] = []
            send_error: Optional[BaseException] = None
            for offset, lane in enumerate(lanes):
                indices = pending[offset :: len(lanes)]
                if not indices:
                    continue
                try:
                    self._ensure_resident(lane, key)
                    lane.channel.send(make_message([tasks[i] for i in indices]))
                except TransportError:
                    self._fail_lane(lane)
                    continue
                except Exception as exc:  # noqa: BLE001 - worker err reply
                    # An in-dispatch re-broadcast can come back ("err", ...)
                    # (the daemon failed to unpickle the payload).  Stop
                    # sending, but the raise must wait until every
                    # already-sent lane has been drained below — an early
                    # raise would leave replies in their sockets and
                    # desync those channels.
                    send_error = exc
                    break
                sent.append((lane, indices))
            # Any error discovered while reading replies is raised only
            # *after* every sent lane has been drained: an early raise
            # would leave the other lanes' replies sitting in their
            # sockets, desyncing those channels (the next request would
            # read this call's leftover reply as its own).
            deferred_error: Optional[BaseException] = None
            for lane, indices in sent:
                try:
                    reply = lane.channel.recv(
                        timeout=self._request_timeout or None
                    )
                except _transport.LaneTimeout:
                    # straggler: channel kept (partial frame buffered),
                    # tasks stay pending for speculative re-dispatch
                    lane.health.mark_suspect(
                        time.monotonic() + self._straggler_grace
                    )
                    lane.outstanding = (token, list(indices), key)
                    continue
                except TransportError:
                    self._fail_lane(lane)
                    continue
                try:
                    values = _transport.unwrap_reply(reply)
                except _transport.StaleBroadcast:
                    # The daemon evicted (or never had) the payload: the
                    # next round re-broadcasts from the retained copy.
                    lane.resident_keys.discard(key)
                    stale_budget -= 1
                    if stale_budget < 0 and deferred_error is None:
                        deferred_error = TransportError(
                            f"broadcast key {key!r} keeps getting evicted by "
                            "the worker daemons; raise their --payload-cap"
                        )
                    continue
                except TransportError:
                    # malformed envelope: the lane is broken/version-skewed,
                    # same treatment as a short reply below
                    self._fail_lane(lane)
                    continue
                except Exception as exc:  # noqa: BLE001 - worker task error
                    # A *task* exception is the caller's bug, not a lane
                    # failure; no retry.
                    if deferred_error is None:
                        deferred_error = exc
                    continue
                if not isinstance(values, list) or len(values) != len(indices):
                    # Reply-shape protocol violation (version-skewed or
                    # buggy daemon): a silent zip-truncation would strand
                    # the surplus tasks in an endless re-dispatch loop, so
                    # distrust the lane instead — its tasks stay pending
                    # and land elsewhere (or the call fails loudly when
                    # no lane survives).
                    self._fail_lane(lane)
                    continue
                for index, value in zip(indices, values):
                    results[index] = value
                    done[index] = True
            if send_error is not None:
                raise send_error
            if deferred_error is not None:
                raise deferred_error
            pending = [index for index in pending if not done[index]]
        return results

    # ------------------------------------------------------- lane contract

    def map_tasks(self, func: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        self._check_open()
        return self._dispatch(
            lambda lane_tasks: ("map_tasks", func, lane_tasks), tasks
        )

    def broadcast(self, key: str, payload: object) -> None:
        blob = _transport.dumps(payload)
        self._check_open()
        # a suspect's channel owes a reply; settle before writing to it
        self._settle_suspects()
        self._store_payload(key, blob)
        for lane in self._lanes:
            # a re-broadcast replaces the payload everywhere: stale lane
            # copies must never be addressed again
            lane.resident_keys.discard(key)
        # Lanes are armed sequentially: the chunked install is a
        # conversation of up to three requests, not a single push, so
        # cross-lane send pipelining would interleave frames.
        # The tradeoff is deliberate — the shared client NIC serialises
        # the bulk transfer anyway, and the dedup typically removes far
        # more wire time than overlap could (DESIGN.md §6).
        deferred_error: Optional[BaseException] = None
        for lane in self._live_lanes():
            if not lane.health.live:
                continue  # settled above; only a freshly-failed race lands here
            try:
                self._connect_lane(lane)
                self._install_payload(lane, key)
            except TransportError:
                self._fail_lane(lane)
                continue
            except Exception as exc:  # noqa: BLE001 - daemon failed to load
                if deferred_error is None:
                    deferred_error = exc
                continue
        if deferred_error is not None:
            raise deferred_error
        self._live_lanes()  # loud if the broadcast left no lane standing

    def map_on(
        self, key: str, func: Callable[[Any, T], R], tasks: Sequence[T]
    ) -> List[R]:
        self._check_open()
        if key not in self._payloads:
            raise self._missing_key(key)
        return self._dispatch(
            lambda lane_tasks: ("map_on", key, func, lane_tasks), tasks, key=key
        )

    def release(self, key: str) -> None:
        """Best-effort: drop the retained copy and the daemons' copies.

        Cleanup must never raise — a lane that fails here is simply left
        for the regular retry path to deal with on next use.
        """
        if self._closed:
            return
        self._payloads.pop(key, None)
        self._manifests.pop(key, None)
        for lane in self._lanes:
            if lane.channel is None or not lane.health.live:
                # a suspect's channel owes a reply — skip the wire op
                # (best-effort cleanup; the daemon LRU reclaims it)
                lane.resident_keys.discard(key)
                continue
            if key in lane.resident_keys:
                try:
                    _transport.request(
                        lane.channel,
                        ("release", key),
                        timeout=self._request_timeout or None,
                    )
                except TransportError:
                    self._drop_channel(lane)
                lane.resident_keys.discard(key)

    def close(self) -> None:
        """Release installed broadcast state, drop connections; idempotent.

        The worker daemons stay up — their lifetime belongs to whoever
        launched them, not to this client.
        """
        if self._closed:
            return
        for key in list(self._payloads):
            self.release(key)
        self._closed = True
        for lane in self._lanes:
            self._drop_channel(lane)


# ------------------------------------------------------------ process lanes


def _serve_lane(sock: socket.socket) -> None:
    """Process-lane child: answer framed lane requests until EOF.

    Module-level so spawn start methods can import it.  The child holds
    its own :class:`~repro.utils.transport.PayloadRegistry` and serves it
    with :func:`~repro.utils.transport.handle_request`, the worker side
    of a ``python -m repro.worker`` daemon.
    """
    channel = _transport.Channel(sock)
    registry = _transport.PayloadRegistry()
    try:
        while True:
            alive, message = channel.recv_or_eof()
            if not alive:
                return
            channel.send(_transport.handle_request(message, registry))
    except TransportError:
        return
    finally:
        channel.close()


def _claim_lane(
    unclaimed: Dict[int, socket.socket], index: int, host: str, port: int
) -> _transport.Channel:
    """``channel_factory`` of :class:`ProcessExecutor`: each lane's parent
    end is handed out once, so a reconnect after its child died fails and
    the client excludes the lane."""
    sock = unclaimed.pop(index, None)
    if sock is None:
        raise TransportError(
            f"process lane {_transport.format_address(host, port)} cannot "
            "reconnect: its child process is gone"
        )
    return _transport.Channel(sock)


def _stop_lanes(
    owner: int,
    children: List[multiprocessing.Process],
    parent_ends: List[socket.socket],
) -> None:
    """Kill and join the lane children; close every parent end, claimed
    or not (closing one its channel already closed is a no-op)."""
    if os.getpid() != owner:
        return  # a forked lane inherited this finalizer; not its children
    for sock in parent_ends:
        sock.close()
    for child in children:
        # SIGKILL, not SIGTERM: a forked child inherits the parent's
        # Python signal handlers, and one of them may ignore SIGTERM
        child.kill()
    for child in children:
        child.join()


class ProcessExecutor(RemoteExecutor):
    """Remote-lane client whose lanes are local child processes.

    Each lane is a daemonic :mod:`multiprocessing` child serving
    :func:`_serve_lane` over one end of a :func:`socket.socketpair`; the
    parent end reaches :class:`RemoteExecutor` through its
    ``channel_factory`` seam, so broadcast, dispatch and lane-failure
    handling are the remote client's.  No port is opened: nothing outside
    this process tree can reach a lane.  A lane cannot reconnect, so a
    child that dies is excluded and its tasks land on the survivors.
    Broadcasts ship whole (``chunk_bytes=0``): a chunk manifest only
    pays for a daemon that outlives its client.

    :meth:`close`, or collecting an executor that was never closed,
    kills and joins the children and closes every parent end.  Closing
    the parent ends alone is not enough: a child forked later holds
    copies of the earlier lanes' parent ends, so those lanes never see
    EOF.
    """

    kind = "process"

    def __init__(self, degree: int | None = None) -> None:
        if degree is not None and degree <= 0:
            raise ValidationError("degree must be positive")
        n_lanes = int(degree or os.cpu_count() or 1)
        children: List[multiprocessing.Process] = []
        parent_ends: List[socket.socket] = []
        self._children = children
        self._finalizer = weakref.finalize(
            self, _stop_lanes, os.getpid(), children, parent_ends
        )
        for index in range(n_lanes):
            parent_end, child_end = socket.socketpair()
            parent_ends.append(parent_end)
            child = multiprocessing.Process(
                target=_serve_lane, args=(child_end,), daemon=True
            )
            child.start()
            child_end.close()
            children.append(child)
        super().__init__(
            [f"local:{index}" for index in range(n_lanes)],
            channel_factory=functools.partial(_claim_lane, dict(enumerate(parent_ends))),
            chunk_bytes=0,
        )

    def close(self) -> None:
        super().close()
        self._finalizer()  # runs once; a second close() is a no-op


def make_executor(
    kind: str = "serial",
    degree: int | None = None,
    workers: Sequence[str] | None = None,
    request_timeout: float | None = None,
) -> Executor:
    """Factory: ``kind`` must be one of :data:`EXECUTOR_KINDS`.

    An unknown ``kind`` raises :class:`~repro.errors.ConfigurationError`
    naming the valid choices — misconfiguration must fail loudly at the
    seam, not surface later as an attribute error on ``None``.  A
    ``degree`` below 1 is rejected the same way for *every* kind (the
    serial backend used to swallow it silently).  ``workers`` (a list of
    ``"host:port"`` daemon addresses) is required by — and only
    meaningful for — the ``"remote"`` kind; ``degree`` there optionally
    caps how many of the listed daemons become lanes, and
    ``request_timeout`` (seconds; 0 disables) sets the per-request reply
    deadline behind the straggler mitigation.
    """
    if degree is not None and degree < 1:
        raise ConfigurationError(
            f"degree must be at least 1 for the {kind!r} executor, got {degree}"
        )
    if workers is not None and kind != "remote":
        raise ConfigurationError(
            f"worker addresses only apply to the 'remote' executor, "
            f"not {kind!r}"
        )
    if request_timeout is not None and kind != "remote":
        raise ConfigurationError(
            f"request_timeout only applies to the 'remote' executor, "
            f"not {kind!r}"
        )
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(degree)
    if kind == "process":
        return ProcessExecutor(degree)
    if kind == "remote":
        if not workers:
            raise ConfigurationError(
                "the 'remote' executor needs worker addresses "
                "(workers=['host:port', ...]); start daemons with "
                "`python -m repro.worker --listen host:port`"
            )
        lanes = list(workers)[:degree] if degree else list(workers)
        if request_timeout is None:
            return RemoteExecutor(lanes)
        return RemoteExecutor(lanes, request_timeout=request_timeout)
    raise ConfigurationError(
        f"unknown executor kind {kind!r}; expected one of {', '.join(EXECUTOR_KINDS)}"
    )
