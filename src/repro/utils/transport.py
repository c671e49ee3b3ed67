"""Multi-node lane transport: framing protocol + worker daemon core.

The lane contract of :class:`~repro.utils.parallel.Executor`
(``broadcast`` / ``map_on`` / ``map_tasks``) is location-transparent: a
remote lane only needs the same three operations over a network channel
plus failure handling (DESIGN.md §6 "Remote lanes").  This module
provides the channel and the worker side of that pair:

* :class:`Channel` — length-prefixed pickle framing over a connected
  TCP socket.  Every frame is an 8-byte big-endian unsigned length
  followed by exactly that many pickle bytes; a peer that disappears
  mid-frame surfaces as :class:`~repro.errors.TransportError`, never as
  a truncated unpickle.
* :class:`PayloadRegistry` — the worker-side broadcast store of every
  out-of-process lane, daemon or process lane: a bounded LRU over
  resident payloads, so a long stream of per-batch broadcasts cannot
  grow a lane's memory without bound.
  An evicted key is reported to the client as ``("stale", key)`` and the
  client re-broadcasts from its retained copy — eviction is a
  performance event, not an error.
* :class:`WorkerServer` — the daemon loop: accept connections, serve
  framed requests against one shared registry.  ``python -m
  repro.worker --listen host:port`` (:mod:`repro.worker`) runs one as a
  standalone process; the loopback test harness runs the same class on
  a background thread in-process.  A process lane
  (:class:`~repro.utils.parallel.ProcessExecutor`) serves the same op
  table over a socketpair instead of a listener.

Wire protocol (client → worker request, worker → client reply).  It is
one op table, :func:`lane_ops`, which :func:`dispatch` runs a request
against; the serving daemon (:class:`repro.serve.ConsensusServer`)
dispatches against the same table plus its serving ops:

==================================  ======================================
request                             reply
==================================  ======================================
``("ping",)``                       ``("ok", "pong")``
``("broadcast", key, blob)``        ``("ok", None)`` (``blob`` = payload
                                    pickled separately by the client, so
                                    re-broadcasts reuse the same bytes)
``("release", key)``                ``("ok", None)`` (missing key: no-op)
``("map_on", key, func, tasks)``    ``("ok", [func(payload, t)...])`` or
                                    ``("stale", key)`` if evicted/unknown
``("map_tasks", func, tasks)``      ``("ok", [func(t)...])``
``("chunk_assemble", key,           ``("ok", None)`` or ``("missing",
  digests, chunks)``                [digest...])`` naming the manifest
                                    chunks neither carried nor held
``("shutdown",)``                   ``("ok", None)``, then the daemon
                                    stops accepting and exits
==================================  ======================================

``chunk_assemble`` is the whole content-addressed store (DESIGN.md §6
"Elastic fleet"): a large payload is split client-side into
content-hashed chunks; ``digests`` is its manifest and ``chunks`` a list
of carried ``(digest, data)`` pairs.  :func:`ship_chunks`, the store's
only client, sends the manifest alone first, then exactly the chunks the
daemon names as missing, and the daemon rebuilds the payload under its
key.  A daemon whose *payload* LRU evicted a key but whose chunk index
still holds the bytes is re-armed by one manifest-only request instead
of the full blob.

A request that raises on the worker replies ``("err", exception,
traceback_text)`` (:func:`error_reply`); the client re-raises the
exception (or :class:`~repro.errors.WorkerFailure` when it does not
pickle) — a *task*
failure is the caller's bug and must not be confused with a *lane*
failure, which is what the retry/exclusion machinery of
:class:`~repro.utils.parallel.RemoteExecutor` handles.  A frame that
does not unpickle is a lane failure: :class:`Channel` raises
:class:`~repro.errors.TransportError` for it.
"""

from __future__ import annotations

import hashlib
import pickle
import socket
import struct
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import TransportError, ValidationError, WorkerFailure

#: frame header: 8-byte big-endian unsigned payload length.
_HEADER = struct.Struct(">Q")

#: refuse frames beyond this many bytes — a corrupt or misaligned header
#: must fail loudly instead of attempting a terabyte allocation.
MAX_FRAME_BYTES = 1 << 36  # 64 GiB

#: resident payloads a lane's registry keeps at once before LRU eviction.
DEFAULT_PAYLOAD_CAP = 8

#: chunk size for the content-addressed broadcast store.  4 MiB keeps
#: the per-chunk round-trip overhead (one digest + one frame header) in
#: the noise at 75 MB payloads while still giving the dedup index
#: enough granularity that a mostly-unchanged payload reuses most bytes.
DEFAULT_BROADCAST_CHUNK_BYTES = 4 << 20

#: worker-side chunk cache budget (bytes, not entries — chunks are
#: uniform-cost only within one payload, not across payload sizes).
DEFAULT_CHUNK_CACHE_BYTES = 256 << 20


def chunk_digest(data: bytes) -> bytes:
    """Content address of one chunk (blake2b-128: fast, no deps)."""
    return hashlib.blake2b(data, digest_size=16).digest()


def split_chunks(blob: bytes, chunk_bytes: int) -> List[memoryview]:
    """Split ``blob`` into fixed-size content chunks (last may be short).

    The chunks are zero-copy views of ``blob``.
    """
    if chunk_bytes < 1:
        raise ValidationError("chunk size must be at least 1 byte")
    view = memoryview(blob)
    return [view[i : i + chunk_bytes] for i in range(0, len(view), chunk_bytes)]


def chunk_manifest(blob: bytes, chunk_bytes: int) -> List[bytes]:
    """The digests of ``blob``'s chunks, in order: what ``chunk_assemble``
    rebuilds a payload from."""
    return [chunk_digest(chunk) for chunk in split_chunks(blob, chunk_bytes)]


def dumps(obj: object) -> bytes:
    """Pickle ``obj`` the way every frame body is pickled."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; loud on malformed input."""
    host, sep, port_text = str(text).rpartition(":")
    if not sep or not host:
        raise ValidationError(
            f"worker address {text!r} must look like 'host:port'"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValidationError(
            f"worker address {text!r} has a non-integer port"
        ) from exc
    if not 0 <= port <= 65535:
        raise ValidationError(f"worker address {text!r} port out of range")
    return host, port


def format_address(host: str, port: int) -> str:
    return f"{host}:{port}"


class Channel:
    """Length-prefixed pickle frames over a connected socket.

    Byte counters (``sent_bytes`` / ``received_bytes``) record the exact
    frame bytes that crossed the socket — deterministic, so the transport
    benchmark can gate on them (``benchmarks/bench_kernels``).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.sent_bytes = 0
        self.received_bytes = 0
        self._closed = False
        # bytes read off the socket but not yet consumed as a full frame.
        # A deadline that expires mid-frame leaves the partial frame here,
        # so a timeout never desynchronises the stream: the next recv()
        # resumes exactly where the last one stopped (DESIGN.md §6).
        self._rx = bytearray()

    # ------------------------------------------------------------- framing

    def send(self, message: object) -> None:
        """Frame and send one message; :class:`TransportError` on failure.

        The header and the pickled body leave as two buffers, never
        joined into a copy of the frame."""
        body = dumps(message)
        self.send_raw(_HEADER.pack(len(body)), body)

    def send_raw(self, *parts: bytes) -> None:
        """Send pre-framed bytes, given as one or more buffers, in order
        (the fault-injection seam uses this)."""
        if self._closed:
            raise TransportError("channel is closed")
        views = [memoryview(part) for part in parts]
        total = sum(view.nbytes for view in views)
        try:
            while views:
                sent = self._sock.sendmsg(views)
                while views and sent >= views[0].nbytes:
                    sent -= views.pop(0).nbytes
                if views:
                    views[0] = views[0][sent:]  # a partial send resumes here
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        self.sent_bytes += total

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Receive one framed message; :class:`TransportError` on EOF/trunc.

        ``timeout`` bounds the *whole frame*, measured from this call:
        expiry raises :class:`LaneTimeout` (a :class:`TransportError`)
        instead of hanging on a peer that accepted but never replies.
        ``timeout=0`` is a non-blocking poll: it returns a frame only if
        one is already fully buffered/readable.  Partial progress is kept
        in an internal buffer, so after a timeout the channel is still
        aligned and a later recv() continues the same frame.
        """
        poll = timeout is not None and timeout <= 0
        deadline = None if timeout is None or poll else time.monotonic() + timeout
        self._fill(_HEADER.size, expect_eof=False, deadline=deadline, poll=poll)
        (length,) = _HEADER.unpack_from(self._rx)
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte "
                "cap; stream is corrupt or misaligned"
            )
        self._fill(
            _HEADER.size + length, expect_eof=False, deadline=deadline, poll=poll
        )
        return self._consume_frame(length)

    def recv_or_eof(self) -> Tuple[bool, Any]:
        """Like :meth:`recv`, but a clean EOF *between* frames returns
        ``(False, None)`` instead of raising — the worker's accept loop
        treats a client hanging up between requests as a normal goodbye.
        Mid-frame EOF still raises (a truncated frame is never normal)."""
        if not self._fill(_HEADER.size, expect_eof=True):
            return False, None
        (length,) = _HEADER.unpack_from(self._rx)
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            )
        self._fill(_HEADER.size + length, expect_eof=False)
        return True, self._consume_frame(length)

    def _consume_frame(self, length: int) -> Any:
        """Pop one fully-buffered frame (header + ``length`` body bytes).

        The body is unpickled from a view of the receive buffer, released
        before the buffer shrinks.  A body that does not unpickle is still
        popped, so the stream stays aligned, and raises
        :class:`TransportError`: the peer is broken, like one that hangs
        up mid-frame.
        """
        end = _HEADER.size + length
        error: Optional[Exception] = None
        with memoryview(self._rx) as buffer, buffer[_HEADER.size : end] as body:
            try:
                message = pickle.loads(body)
            except Exception as exc:  # noqa: BLE001 - any unpickle failure is a bad frame
                error = exc
        del self._rx[:end]
        self.received_bytes += end
        if error is not None:
            raise TransportError(
                f"frame of {length} bytes does not unpickle: {error!r}"
            ) from error
        return message

    def _fill(
        self,
        n: int,
        expect_eof: bool,
        deadline: Optional[float] = None,
        poll: bool = False,
    ) -> bool:
        """Buffer socket bytes until at least ``n`` are held.

        Nothing is ever *consumed* here — a deadline that expires between
        a frame's header and its body must not lose the parse position,
        so frames are only popped from the buffer once complete
        (:meth:`_consume_frame`).  Returns ``False`` on a clean EOF with
        an empty buffer when ``expect_eof`` (a goodbye between frames);
        every other shortfall raises.
        """
        while len(self._rx) < n:
            if self._closed:
                raise TransportError("channel is closed")
            timeout_value: Optional[float] = None
            if poll:
                timeout_value = 0.0
            elif deadline is not None:
                timeout_value = deadline - time.monotonic()
                if timeout_value <= 0:
                    raise LaneTimeout(
                        f"deadline expired awaiting a frame "
                        f"({len(self._rx)}/{n} bytes buffered)"
                    )
            try:
                if timeout_value is not None:
                    self._sock.settimeout(timeout_value)
                try:
                    piece = self._sock.recv(1 << 20)
                finally:
                    if timeout_value is not None:
                        try:
                            self._sock.settimeout(None)
                        except OSError:
                            pass  # closed under us; the recv result decides
            except (TimeoutError, BlockingIOError, socket.timeout) as exc:
                raise LaneTimeout(
                    f"peer sent no complete frame in time "
                    f"({len(self._rx)}/{n} bytes buffered)"
                ) from exc
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not piece:
                if expect_eof and not self._rx:
                    return False  # clean close on a frame boundary
                raise TransportError(
                    f"connection closed mid-frame ({len(self._rx)}/{n} bytes)"
                )
            self._rx += piece
        return True

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass


def connect(host: str, port: int, timeout: float = 5.0) -> Channel:
    """Open a TCP connection to a worker daemon and wrap it in a Channel.

    The connect itself is bounded by ``timeout``; the established socket
    then blocks indefinitely *by default* — a killed daemon closes its
    sockets, which surfaces as EOF.  A daemon that is hung rather than
    dead never closes anything, which is why :meth:`Channel.recv` takes
    a per-call deadline: liveness is the caller's policy
    (``CPAConfig.request_timeout``), not the socket's.
    """
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(
            f"cannot connect to worker {format_address(host, port)}: {exc}"
        ) from exc
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Channel(sock)


def request(
    channel: Channel, message: object, timeout: Optional[float] = None
) -> Any:
    """One request/reply round-trip, unwrapping the reply envelope.

    ``("ok", value)`` returns ``value``; ``("stale", key)`` raises
    :class:`StaleBroadcast` (the client re-broadcasts and retries);
    ``("err", exc, tb)`` re-raises the worker-side exception.  Anything
    else is a framing/protocol bug and raises :class:`TransportError`.
    ``timeout`` bounds the reply frame (see :meth:`Channel.recv`): a
    peer that accepted the request but never answers — or answers with a
    partial frame that stalls — surfaces as :class:`LaneTimeout`.
    """
    channel.send(message)
    reply = channel.recv(timeout=timeout)
    return unwrap_reply(reply)


def unwrap_reply(reply: Any) -> Any:
    """Envelope violations (wrong tag, wrong arity) raise
    :class:`TransportError` — the *lane* is broken or version-skewed, and
    the client treats it like any other lane failure, never as a task
    result or a task error."""
    if not isinstance(reply, tuple) or not reply:
        raise TransportError(f"malformed reply frame: {reply!r}")
    tag = reply[0]
    if tag == "ok" and len(reply) == 2:
        return reply[1]
    if tag == "stale" and len(reply) == 2:
        raise StaleBroadcast(reply[1])
    if tag == "missing" and len(reply) == 2 and _is_digest_list(reply[1]):
        raise ChunksMissing(reply[1])
    if tag == "err" and len(reply) == 3:
        _, exc, tb_text = reply
        if isinstance(exc, BaseException):
            raise exc from WorkerFailure(
                "remote worker raised; remote traceback follows", tb_text
            )
        raise WorkerFailure(f"remote worker raised: {exc}", tb_text)
    raise TransportError(f"malformed reply envelope: {reply!r}")


def _is_digest_list(value: Any) -> bool:
    return isinstance(value, list) and all(
        isinstance(digest, bytes) for digest in value
    )


def error_reply(exc: BaseException) -> Tuple:
    """The ``("err", exc, traceback_text)`` reply to a request that raised;
    an exception that does not pickle ships as its ``repr``."""
    tb_text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        dumps(exc)  # only ship exceptions that survive pickling
        return ("err", exc, tb_text)
    except Exception:  # noqa: BLE001 - unpicklable error ships as repr
        return ("err", repr(exc), tb_text)


def ship_chunks(
    channel: Channel,
    key: str,
    blob: bytes,
    manifest: Sequence[bytes],
    chunk_bytes: int,
    timeout: Optional[float] = None,
) -> Tuple[int, int]:
    """Assemble ``blob`` under ``key`` in the peer's chunk store.

    The store's only client: lane broadcasts
    (:class:`~repro.utils.parallel.RemoteExecutor`) and replica refreshes
    (:func:`repro.serve.ship_checkpoint`) both call it.  ``manifest`` is
    :func:`chunk_manifest` of ``blob`` at ``chunk_bytes``.  At most three
    ``chunk_assemble`` requests:

    1. the manifest alone — a peer that holds every chunk assembles at
       once, otherwise it names the missing ones;
    2. the manifest and exactly the named chunks, which the peer uses
       directly, so only chunks it held at step 1 and evicted since can
       still miss;
    3. only then the manifest and every chunk, which cannot miss.

    Carried chunks are zero-copy slices of ``blob``: the pickled request
    frame is the only copy.  Returns ``(n_missing, carried_bytes)``: the chunks
    missing at step 1, once per occurrence in the manifest, and the chunk
    bytes steps 2 and 3 carried.  A reply naming a chunk the manifest
    lacks, or a miss at step 3, is a broken peer: :class:`TransportError`.
    """
    try:
        request(channel, ("chunk_assemble", key, manifest, []), timeout=timeout)
        return 0, 0
    except ChunksMissing as exc:
        missing = exc.digests
    by_digest = dict(zip(manifest, split_chunks(blob, chunk_bytes)))

    def check_known(named: Sequence[bytes]) -> None:
        if not all(digest in by_digest for digest in named):
            raise TransportError(
                f"chunk_assemble reply for {key!r} names a chunk that is "
                "not in its manifest"
            )

    def carry(named: Sequence[bytes]) -> List[Tuple[bytes, pickle.PickleBuffer]]:
        return [(digest, pickle.PickleBuffer(by_digest[digest])) for digest in named]

    check_known(missing)
    carried_bytes = sum(len(by_digest[digest]) for digest in missing)
    try:
        request(
            channel, ("chunk_assemble", key, manifest, carry(missing)), timeout=timeout
        )
        return len(missing), carried_bytes
    except ChunksMissing as exc:
        check_known(exc.digests)  # held at step 1, evicted since
    try:
        request(
            channel, ("chunk_assemble", key, manifest, carry(manifest)), timeout=timeout
        )
    except ChunksMissing as exc:
        raise TransportError(
            f"peer reports {len(exc.digests)} chunk(s) of {key!r} missing "
            "although every chunk was carried"
        ) from None
    return len(missing), carried_bytes + len(blob)


class LaneTimeout(TransportError):
    """A per-request deadline expired before the peer's reply completed.

    The channel itself stays aligned (partial progress is buffered in
    :class:`Channel`), so the caller may keep the connection and poll for
    the late reply — the lane-health machinery in
    :class:`~repro.utils.parallel.RemoteExecutor` marks such a lane
    *suspect* and speculatively re-dispatches its tasks elsewhere.
    """


class StaleBroadcast(Exception):
    """A worker no longer holds the addressed broadcast key (LRU-evicted
    or a fresh/replacement daemon).  Internal control flow — the client
    executor catches it, re-broadcasts from its retained copy, and
    retries; it never escapes to callers."""

    def __init__(self, key: str) -> None:
        super().__init__(key)
        self.key = key


class ChunksMissing(Exception):
    """A worker's ``chunk_assemble`` lacks some manifest chunks.  Internal
    control flow — :func:`ship_chunks` carries them in its next request
    (bounded: three requests, no loop)."""

    def __init__(self, digests: Sequence[bytes]) -> None:
        super().__init__(f"{len(digests)} chunk(s) missing")
        self.digests = tuple(digests)


class LaneHealth:
    """The live → suspect → excluded state machine of one remote peer.

    One instance tracks one daemon as seen by one client: *live* (usable),
    *suspect* (a per-request deadline expired with a reply still owed;
    queries are routed elsewhere until ``suspect_deadline``), *excluded*
    (terminal — the reconnect budget ran out).  The transitions and the
    bounded reconnect budget live here so every consumer agrees on them:
    :class:`~repro.utils.parallel.RemoteExecutor` lanes drive compute
    fan-out through it, and the serving fleet router
    (:class:`repro.fleet.FleetRouter`) drives read-replica failover
    through the very same machine.
    """

    LIVE = "live"
    SUSPECT = "suspect"
    EXCLUDED = "excluded"

    __slots__ = ("state", "reconnects_left", "suspect_deadline")

    def __init__(self, reconnects: int = 1) -> None:
        self.state = LaneHealth.LIVE
        self.reconnects_left = int(reconnects)
        #: monotonic deadline after which a suspect is reconnected or
        #: excluded; 0.0 whenever the peer is not suspect.
        self.suspect_deadline = 0.0

    @property
    def live(self) -> bool:
        return self.state == LaneHealth.LIVE

    @property
    def suspect(self) -> bool:
        return self.state == LaneHealth.SUSPECT

    @property
    def excluded(self) -> bool:
        return self.state == LaneHealth.EXCLUDED

    def mark_suspect(self, deadline: float) -> None:
        """A reply deadline expired: stop routing new work to the peer."""
        self.state = LaneHealth.SUSPECT
        self.suspect_deadline = float(deadline)

    def recover(self) -> None:
        """The peer answered (or reconnected): back to *live*."""
        self.state = LaneHealth.LIVE
        self.suspect_deadline = 0.0

    def exclude(self) -> None:
        """Terminal: the peer leaves the rotation for good."""
        self.state = LaneHealth.EXCLUDED
        self.suspect_deadline = 0.0

    def consume_reconnect(self) -> bool:
        """Spend one reconnect attempt; ``False`` when the budget is dry
        (the caller should :meth:`exclude`)."""
        if self.reconnects_left <= 0:
            return False
        self.reconnects_left -= 1
        return True


# ------------------------------------------------------------------ worker


class PayloadRegistry:
    """Bounded LRU of broadcast payloads held by one worker daemon or
    process lane.

    Re-addressing a payload moves it to the back; exceeding the cap drops
    the front (oldest).  Thread-safe — a daemon serves each client
    connection on its own thread against this one shared registry.

    Alongside the (count-capped) payload LRU the registry keeps a
    *byte*-capped chunk index: content-addressed raw chunks carried by
    ``chunk_assemble``, keyed by blake2b-128 digest.  The two caches have
    independent lifetimes on purpose — evicting a payload does not drop
    its chunks, which is exactly what lets a re-broadcast after payload
    eviction cost one manifest instead of a re-ship.
    """

    def __init__(
        self,
        cap: int = DEFAULT_PAYLOAD_CAP,
        chunk_cache_bytes: int = DEFAULT_CHUNK_CACHE_BYTES,
    ) -> None:
        if cap < 1:
            raise ValidationError("payload cap must be at least 1")
        if chunk_cache_bytes < 0:
            raise ValidationError("chunk cache budget cannot be negative")
        self.cap = int(cap)
        self.chunk_cache_bytes = int(chunk_cache_bytes)
        self._payloads: Dict[str, object] = {}
        self._chunks: Dict[bytes, bytes] = {}  # dict order = LRU order
        self._chunk_bytes_held = 0
        self._lock = threading.Lock()

    def put(self, key: str, payload: object) -> None:
        with self._lock:
            self._payloads.pop(key, None)  # re-broadcast refreshes recency
            self._payloads[key] = payload
            while len(self._payloads) > self.cap:
                self._payloads.pop(next(iter(self._payloads)))

    def get(self, key: str) -> Any:
        """The payload under ``key`` (LRU-touched), or raise ``KeyError``."""
        with self._lock:
            payload = self._payloads.pop(key)
            self._payloads[key] = payload
            return payload

    def resident(self, key: str) -> Any:
        """:meth:`get`, raising :class:`StaleBroadcast` for a key the
        registry does not hold: the ``("stale", key)`` reply."""
        try:
            return self.get(key)
        except KeyError:
            raise StaleBroadcast(key) from None

    def release(self, key: str) -> None:
        with self._lock:
            self._payloads.pop(key, None)

    def keys(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._payloads)

    def __len__(self) -> int:
        with self._lock:
            return len(self._payloads)

    def drop_payloads(self) -> None:
        """Clear the payload LRU but keep the chunk index — the bench and
        tests use this to model a daemon that lost its armed payloads
        (restart with a warm peer cache, payload-cap churn) and must be
        re-armed from chunks alone."""
        with self._lock:
            self._payloads.clear()

    # ----------------------------------------------------- chunk index

    def assemble(
        self,
        key: str,
        digests: Sequence[bytes],
        chunks: Sequence[Tuple[bytes, bytes]] = (),
    ) -> Tuple[bytes, ...]:
        """Rebuild the payload under ``key`` from its manifest ``digests``.

        Each carried ``(digest, data)`` chunk is digest-verified first, so
        a corrupt frame can never poison the content address space; it
        is then used directly and kept in the chunk LRU.  Manifest chunks
        not carried come from the LRU (and are touched there).  Returns
        the (possibly empty) tuple of digests neither carried nor held,
        once per occurrence in ``digests``; on any miss no payload is
        stored.
        """
        carried: Dict[bytes, bytes] = {}
        for digest, data in chunks:
            if chunk_digest(data) != digest:
                raise ValidationError(
                    "chunk data does not match its digest; refusing to store"
                )
            carried[digest] = data
        with self._lock:
            pieces: List[bytes] = []
            missing: List[bytes] = []
            for digest in digests:
                data = carried.get(digest)
                if data is None:
                    data = self._chunks.pop(digest, None)
                    if data is None:
                        missing.append(digest)
                        continue
                    self._chunks[digest] = data  # refresh recency
                pieces.append(data)
            for digest, data in carried.items():
                held = self._chunks.pop(digest, None)
                if held is not None:
                    self._chunk_bytes_held -= len(held)
                self._chunks[digest] = data
                self._chunk_bytes_held += len(data)
            # byte-capped LRU; the chunk stored last stays, so an
            # undersized cache degrades to single-chunk residency
            while (
                self._chunk_bytes_held > self.chunk_cache_bytes
                and len(self._chunks) > 1
            ):
                oldest = next(iter(self._chunks))
                self._chunk_bytes_held -= len(self._chunks.pop(oldest))
            if missing:
                return tuple(missing)
        self.put(key, pickle.loads(b"".join(pieces)))
        return ()

    def chunk_count(self) -> int:
        with self._lock:
            return len(self._chunks)


#: An op table: each op's handler, called as ``handler(*message[1:])``.
OpTable = Dict[str, Callable[..., Any]]


def dispatch(message: Any, ops: OpTable) -> Tuple:
    """Run one request against the op table ``ops``; returns the reply.

    The handler's return value is the ``("ok", value)`` reply.  A handler
    that raises :class:`StaleBroadcast` or :class:`ChunksMissing` replies
    ``("stale", key)`` or ``("missing", [digest...])``; any other
    exception — a malformed frame, an unknown or non-string op and a
    wrong arity included — is the :func:`error_reply`.
    """
    try:
        if not isinstance(message, tuple) or not message:
            raise ValidationError(f"malformed request frame: {message!r}")
        op = message[0]
        handler = ops.get(op) if isinstance(op, str) else None
        if handler is None:
            raise ValidationError(f"unknown request op {op!r}")
        return ("ok", handler(*message[1:]))
    except StaleBroadcast as exc:
        return ("stale", exc.key)
    except ChunksMissing as exc:
        return ("missing", list(exc.digests))
    except Exception as exc:  # noqa: BLE001 - forwarded to the client
        return error_reply(exc)


def lane_ops(registry: PayloadRegistry) -> OpTable:
    """The lane daemon's op table over ``registry``: the wire protocol of
    the module docstring."""

    def map_on(key: str, func: Callable, tasks: Sequence) -> List:
        payload = registry.resident(key)
        return [func(payload, task) for task in tasks]

    def chunk_assemble(
        key: str, digests: Sequence[bytes], chunks: Sequence[Tuple[bytes, bytes]]
    ) -> None:
        missing = registry.assemble(key, digests, chunks)
        if missing:
            raise ChunksMissing(missing)

    return {
        "ping": lambda: "pong",
        "broadcast": lambda key, blob: registry.put(key, pickle.loads(blob)),
        "release": registry.release,
        "map_on": map_on,
        "map_tasks": lambda func, tasks: [func(task) for task in tasks],
        "chunk_assemble": chunk_assemble,
        "shutdown": lambda: None,
    }


def handle_request(message: Any, registry: PayloadRegistry) -> Tuple:
    """Run one lane request against ``registry``; returns the reply tuple.

    Pure function of (message, registry), for one-off requests; the
    daemons and process lanes build :func:`lane_ops` once and
    :func:`dispatch` every request against it, so protocol behaviour
    cannot drift between deployment shapes.
    """
    return dispatch(message, lane_ops(registry))


class WorkerServer:
    """TCP worker daemon: one shared payload registry, framed requests.

    Each accepted connection is served on its own daemon thread, so a
    client executor can keep one persistent channel per lane while the
    test harness pokes the same daemon from a second connection.
    ``kill()`` closes the listening socket *and* every live connection
    mid-flight — the deterministic stand-in for a crashed node that the
    chaos tests drive.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        payload_cap: int = DEFAULT_PAYLOAD_CAP,
        chunk_cache_bytes: int = DEFAULT_CHUNK_CACHE_BYTES,
    ) -> None:
        self.registry = PayloadRegistry(payload_cap, chunk_cache_bytes)
        #: the op table :meth:`handle` dispatches against, built once.
        self.ops: OpTable = lane_ops(self.registry)
        self._listener = socket.create_server((host, port))
        # accept() with a short timeout: closing a socket does not wake a
        # thread blocked in accept() on Linux, so the loop polls the
        # shutdown flag instead of relying on close-to-interrupt.
        self._listener.settimeout(0.1)
        self.host, self.port = self._listener.getsockname()[:2]
        self.address = format_address(self.host, self.port)
        self._lock = threading.Lock()
        self._connections: List[socket.socket] = []
        self._threads: List[threading.Thread] = []
        self._shutdown = threading.Event()
        #: set when the accept loop has fully exited — only then is the
        #: port actually refusing connections (a thread blocked inside
        #: ``accept(2)`` keeps the kernel socket alive past ``close()``).
        self._accept_done = threading.Event()
        self._accept_done.set()  # no loop running yet
        self._accept_thread: Optional[threading.Thread] = None
        #: requests served, by op — the harness asserts re-broadcasts here.
        self.op_counts: Dict[str, int] = {}

    # ------------------------------------------------------------- serving

    def serve_forever(self) -> None:
        """Accept and serve until :meth:`kill`/:meth:`close`/shutdown op."""
        self._accept_done.clear()
        try:
            while not self._shutdown.is_set():
                try:
                    conn, _ = self._listener.accept()
                except TimeoutError:
                    continue  # poll the shutdown flag
                except OSError:
                    break  # listener closed
                conn.settimeout(None)  # accepted sockets inherit the timeout
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with self._lock:
                    if self._shutdown.is_set():
                        conn.close()
                        break
                    self._connections.append(conn)
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                )
                # prune finished handlers: a long-lived daemon serves many
                # short-lived connections and must not grow without bound
                with self._lock:
                    self._threads = [t for t in self._threads if t.is_alive()]
                    self._threads.append(thread)
                thread.start()
        finally:
            self._close_listener()
            self._accept_done.set()

    def serve_in_thread(self) -> "WorkerServer":
        """Run the accept loop on a background daemon thread (harness mode)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        self._accept_thread.start()
        return self

    def _make_channel(self, conn: socket.socket) -> Channel:
        """Seam for the test harness: wrap accepted sockets (e.g. to
        inject stalls) without touching the serve loop."""
        return Channel(conn)

    def handle(self, message: Any) -> Tuple:
        """Dispatch one request against :attr:`ops`.

        The base daemon serves the lane table (:func:`lane_ops`);
        :class:`repro.serve.ConsensusServer` sets :attr:`ops` to the lane
        table plus the serving ops.
        """
        return dispatch(message, self.ops)

    def _serve_connection(self, conn: socket.socket) -> None:
        channel = self._make_channel(conn)
        try:
            while not self._shutdown.is_set():
                try:
                    alive, message = channel.recv_or_eof()
                except TransportError:
                    break  # truncated frame or reset: drop the connection
                if not alive:
                    break
                op = message[0] if isinstance(message, tuple) and message else None
                op = op if isinstance(op, str) else "?"  # e.g. unhashable
                # one handler thread per connection shares this counter:
                # read-modify-write must not interleave (lost increments)
                with self._lock:
                    self.op_counts[op] = self.op_counts.get(op, 0) + 1
                reply = self.handle(message)
                if op == "shutdown":
                    # stop accepting *before* acknowledging, so a client
                    # that saw the reply can rely on the port being gone;
                    # the accept loop holds the kernel socket alive until
                    # it exits, so wait for it, not just for close()
                    self._shutdown.set()
                    self._close_listener()
                    self._accept_done.wait(timeout=2.0)
                try:
                    channel.send(reply)
                except TransportError:
                    break
                if op == "shutdown":
                    break
        finally:
            channel.close()
            with self._lock:
                if conn in self._connections:
                    self._connections.remove(conn)

    # ----------------------------------------------------------- lifecycle

    def _close_listener(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass

    def kill(self) -> None:
        """Simulate a node crash: drop the listener and every connection
        immediately, mid-frame if one is in flight.  Idempotent."""
        self._shutdown.set()
        self._close_listener()
        # deterministic aftermath: once kill() returns, the port refuses
        self._accept_done.wait(timeout=2.0)
        with self._lock:
            connections, self._connections = self._connections, []
        for conn in connections:
            try:
                # RST rather than FIN-with-grace: a crash, not a goodbye.
                conn.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        """Graceful stop; idempotent, shares the kill path after draining."""
        self.kill()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
