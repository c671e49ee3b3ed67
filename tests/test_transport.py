"""Framing protocol + remote-lane executor tests (DESIGN.md §6 "Remote lanes").

Layers under test, bottom up:

* **Framing** — length-prefixed pickle frames round-trip any payload
  (large arrays, empty payloads, unicode keys) and fail loudly on
  truncation, clean EOF, and corrupt headers.  These run over
  ``socketpair`` — no TCP involved.
* **Worker protocol** — ``handle_request`` + :class:`PayloadRegistry`:
  the daemon-side op semantics, LRU eviction, stale replies, and task
  exceptions, as pure functions.
* **Daemon + RemoteExecutor** (marked ``network``) — real loopback
  daemons: the full lane contract, retry/exclusion on injected faults,
  re-broadcast after daemon-side eviction, and the subprocess daemon
  (``python -m repro.worker``).
"""

import pickle
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.errors import (
    ConfigurationError,
    TransportError,
    ValidationError,
    WorkerFailure,
)
from repro.utils.parallel import RemoteExecutor, SerialExecutor, make_executor
from repro.utils.transport import (
    MAX_FRAME_BYTES,
    Channel,
    ChunksMissing,
    LaneTimeout,
    PayloadRegistry,
    StaleBroadcast,
    WorkerServer,
    chunk_digest,
    connect,
    dumps,
    handle_request,
    parse_address,
    request,
    split_chunks,
    unwrap_reply,
)

from tests.transport_harness import (
    FaultSchedule,
    StallingWorkerServer,
    SubprocessWorker,
    faulty_lane_factory,
    remote_pool,
    worker_fleet,
)

network = pytest.mark.network


# ------------------------------------------------------------ task functions
# module-level so they pickle by reference into worker daemons


def _plus(payload, task):
    return payload + task


def _double(task):
    return task * 2


def _boom(payload, task):
    raise ValueError(f"task {task!r} exploded")


def _dot(payload, task):
    return payload @ task


def _explode():
    raise ValueError("this frame does not unpickle")


class _Unpicklable:
    """Pickles, but unpickling it raises: a corrupt or version-skewed frame."""

    def __reduce__(self):
        return (_explode, ())


# ---------------------------------------------------------------- addresses


class TestParseAddress:
    def test_round_trip(self):
        assert parse_address("127.0.0.1:8123") == ("127.0.0.1", 8123)
        assert parse_address("some.host:0") == ("some.host", 0)

    @pytest.mark.parametrize(
        "bad", ["localhost", ":99", "host:", "host:abc", "host:70000", "host:-1"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_address(bad)


# ------------------------------------------------------------------ framing


def _channel_pair():
    a, b = socket.socketpair()
    return Channel(a), Channel(b)


class TestFraming:
    @pytest.mark.parametrize(
        "payload",
        [
            None,
            b"",
            "",
            (),
            {},
            [],
            0,
            {"κλειδί": [1, 2], "🔑": {"nested": ("ключ", b"\x00\xff")}},
            ("shard-plan-0", list(range(100))),
        ],
        ids=repr,
    )
    def test_round_trip(self, payload):
        a, b = _channel_pair()
        a.send(payload)
        assert b.recv() == payload
        a.close(), b.close()

    def test_large_array_round_trips_bitwise(self):
        import threading

        rng = np.random.default_rng(0)
        array = rng.random(1 << 18)  # 2 MiB of float64
        a, b = _channel_pair()
        # the frame exceeds the kernel socket buffer: send from a helper
        # thread so the same-thread recv can drain it
        sender = threading.Thread(target=a.send, args=(array,))
        sender.start()
        out = b.recv()
        sender.join()
        assert out.dtype == array.dtype
        np.testing.assert_array_equal(out, array)
        # counters record the exact frame bytes
        assert a.sent_bytes == b.received_bytes > array.nbytes
        a.close(), b.close()

    def test_many_frames_in_sequence(self):
        a, b = _channel_pair()
        for i in range(50):
            a.send({"frame": i})
        for i in range(50):
            assert b.recv() == {"frame": i}
        a.close(), b.close()

    def test_mid_frame_eof_raises_transport_error(self):
        a, b = _channel_pair()
        body = dumps({"x": list(range(1000))})
        frame = struct.pack(">Q", len(body)) + body
        a.send_raw(frame[: len(frame) // 2])
        a.close()
        with pytest.raises(TransportError, match="mid-frame"):
            b.recv()
        b.close()

    def test_clean_eof_between_frames_is_a_goodbye(self):
        a, b = _channel_pair()
        a.send("hello")
        a.close()
        assert b.recv_or_eof() == (True, "hello")
        assert b.recv_or_eof() == (False, None)
        b.close()

    def test_mid_frame_eof_raises_even_for_recv_or_eof(self):
        a, b = _channel_pair()
        a.send_raw(struct.pack(">Q", 100) + b"short")
        a.close()
        with pytest.raises(TransportError, match="mid-frame"):
            b.recv_or_eof()
        b.close()

    def test_oversized_frame_header_rejected(self):
        a, b = _channel_pair()
        a.send_raw(struct.pack(">Q", MAX_FRAME_BYTES + 1))
        with pytest.raises(TransportError, match="cap"):
            b.recv()
        a.close(), b.close()

    def test_send_on_closed_channel_raises(self):
        a, b = _channel_pair()
        a.close()
        try:
            with pytest.raises(TransportError, match="closed"):
                a.send("x")
        finally:
            b.close()


class TestFrameThatDoesNotUnpickle:
    def test_is_a_transport_error_and_the_next_frame_still_parses(self):
        a, b = _channel_pair()
        a.send_raw(struct.pack(">Q", 9) + b"not a pkl")
        a.send(_Unpicklable())
        a.send("next")
        for _ in range(2):
            with pytest.raises(TransportError, match="does not unpickle"):
                b.recv(timeout=5.0)
        assert b.recv(timeout=5.0) == "next"
        assert b.received_bytes == a.sent_bytes
        a.close(), b.close()


# ---------------------------------------------------------------- deadlines


class TestRecvDeadlines:
    def test_silent_peer_raises_lane_timeout(self):
        a, b = _channel_pair()
        start = time.monotonic()
        with pytest.raises(LaneTimeout):
            b.recv(timeout=0.1)
        assert time.monotonic() - start < 2.0
        a.close(), b.close()

    def test_lane_timeout_is_a_transport_error(self):
        """Callers that only know the generic lane-failure contract must
        catch a deadline expiry with their existing except clause."""
        assert issubclass(LaneTimeout, TransportError)

    def test_partial_frame_timeout_keeps_the_stream_aligned(self):
        """A deadline that expires mid-frame must not desync the channel:
        the partial bytes stay buffered and a later recv resumes the
        same frame (this is what lets a suspect lane's channel be kept)."""
        a, b = _channel_pair()
        body = dumps({"x": list(range(500))})
        frame = struct.pack(">Q", len(body)) + body
        a.send_raw(frame[: len(frame) // 2])
        with pytest.raises(LaneTimeout):
            b.recv(timeout=0.05)
        a.send_raw(frame[len(frame) // 2 :])
        assert b.recv(timeout=5.0) == {"x": list(range(500))}
        a.send("next")  # and the next frame still parses
        assert b.recv(timeout=5.0) == "next"
        a.close(), b.close()

    def test_zero_timeout_polls_without_blocking(self):
        a, b = _channel_pair()
        start = time.monotonic()
        with pytest.raises(LaneTimeout):
            b.recv(timeout=0)
        assert time.monotonic() - start < 0.5  # a poll, not a wait
        a.send("hello")
        assert b.recv(timeout=0) == "hello"
        a.close(), b.close()

    def test_request_surfaces_a_missing_reply_as_lane_timeout(self):
        a, b = _channel_pair()
        with pytest.raises(LaneTimeout):
            request(a, ("ping",), timeout=0.05)
        a.close(), b.close()


@network
class TestHungPeer:
    def test_accepting_but_silent_peer_times_out_instead_of_hanging(self):
        """The failure deadlines exist for: the TCP connect succeeds (the
        backlog accepts it), the request is sent, and nothing ever comes
        back — only the reply deadline can save the caller."""
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            host, port = listener.getsockname()[:2]
            channel = connect(host, port)
            start = time.monotonic()
            with pytest.raises(LaneTimeout):
                request(channel, ("ping",), timeout=0.2)
            assert time.monotonic() - start < 5.0
            channel.close()
        finally:
            listener.close()

    def test_hung_handler_sends_its_late_reply_after_release(self):
        """A stalled daemon handler holds the reply, not the stream: once
        released, the reply arrives on the same still-aligned channel."""
        server = StallingWorkerServer(stall_at=[("ping", 0)]).serve_in_thread()
        try:
            channel = connect(server.host, server.port)
            with pytest.raises(LaneTimeout):
                request(channel, ("ping",), timeout=0.2)
            server.unstall()
            assert unwrap_reply(channel.recv(timeout=5.0)) == "pong"
            channel.close()
        finally:
            server.close()


# ----------------------------------------------------------- reply envelope


class TestReplyEnvelope:
    def test_ok_unwraps(self):
        assert unwrap_reply(("ok", [1, 2])) == [1, 2]

    def test_stale_raises_control_flow_exception(self):
        with pytest.raises(StaleBroadcast) as excinfo:
            unwrap_reply(("stale", "plan-3"))
        assert excinfo.value.key == "plan-3"

    def test_err_reraises_worker_exception_with_remote_traceback(self):
        reply = handle_request(("map_on", "k", _boom, [7]), _registry_with("k", 0))
        assert reply[0] == "err"
        with pytest.raises(ValueError, match="exploded") as excinfo:
            unwrap_reply(reply)
        assert isinstance(excinfo.value.__cause__, WorkerFailure)
        assert "ValueError" in excinfo.value.__cause__.remote_traceback

    def test_unpicklable_worker_exception_degrades_to_worker_failure(self):
        class LocalError(Exception):  # not importable on the client
            pass

        def _raise_local(payload, task):
            raise LocalError("nope")

        reply = handle_request(
            ("map_on", "k", _raise_local, [1]), _registry_with("k", 0)
        )
        assert reply[0] == "err" and isinstance(reply[1], str)
        with pytest.raises(WorkerFailure, match="LocalError"):
            unwrap_reply(reply)

    def test_malformed_reply_is_a_transport_error(self):
        with pytest.raises(TransportError):
            unwrap_reply("not-a-tuple")
        with pytest.raises(TransportError):
            unwrap_reply(("wat", 1))

    @pytest.mark.parametrize(
        "bad",
        [("ok",), ("ok", 1, 2), ("stale",), ("err", "boom"), ("err", 1, 2, 3)],
        ids=repr,
    )
    def test_wrong_arity_envelopes_are_transport_errors(self, bad):
        """A version-skewed daemon's envelope must read as a broken lane,
        never as a task result or task error."""
        with pytest.raises(TransportError, match="malformed"):
            unwrap_reply(bad)


# ------------------------------------------------------------ worker protocol


def _registry_with(key, payload, cap=8):
    registry = PayloadRegistry(cap)
    registry.put(key, payload)
    return registry


class TestPayloadRegistry:
    def test_lru_evicts_oldest_first(self):
        registry = PayloadRegistry(cap=2)
        registry.put("a", 1)
        registry.put("b", 2)
        registry.put("c", 3)  # a is oldest -> gone
        assert registry.keys() == ("b", "c")

    def test_get_touches_recency(self):
        registry = PayloadRegistry(cap=2)
        registry.put("a", 1)
        registry.put("b", 2)
        assert registry.get("a") == 1  # a is now most recent
        registry.put("c", 3)  # b is oldest -> gone
        assert registry.keys() == ("a", "c")

    def test_rebroadcast_refreshes_recency(self):
        registry = PayloadRegistry(cap=2)
        registry.put("a", 1)
        registry.put("b", 2)
        registry.put("a", 10)  # re-broadcast: newest again
        registry.put("c", 3)  # b evicted, not a
        assert registry.keys() == ("a", "c")
        assert registry.get("a") == 10

    def test_release_is_idempotent(self):
        registry = PayloadRegistry()
        registry.put("a", 1)
        registry.release("a")
        registry.release("a")
        assert len(registry) == 0

    def test_cap_validated(self):
        with pytest.raises(ValidationError):
            PayloadRegistry(cap=0)


class TestHandleRequest:
    def test_ping(self):
        assert handle_request(("ping",), PayloadRegistry()) == ("ok", "pong")

    def test_broadcast_unpickles_blob_and_map_on_uses_it(self):
        registry = PayloadRegistry()
        assert handle_request(
            ("broadcast", "base", dumps(100)), registry
        ) == ("ok", None)
        assert handle_request(("map_on", "base", _plus, [1, 2]), registry) == (
            "ok",
            [101, 102],
        )

    def test_map_on_unknown_key_replies_stale_not_error(self):
        assert handle_request(("map_on", "ghost", _plus, [1]), PayloadRegistry()) == (
            "stale",
            "ghost",
        )

    def test_map_tasks(self):
        assert handle_request(("map_tasks", _double, [1, 2, 3]), PayloadRegistry()) == (
            "ok",
            [2, 4, 6],
        )

    def test_release_missing_key_is_ok(self):
        assert handle_request(("release", "ghost"), PayloadRegistry()) == ("ok", None)

    def test_unknown_op_and_malformed_frames_reply_err(self):
        for bad in (("warp", 1), "just-a-string", (), (["ping"],), ("map_on", "k")):
            reply = handle_request(bad, PayloadRegistry())
            assert reply[0] == "err"


# ----------------------------------------------------- content-addressed store


class TestChunkHelpers:
    def test_split_reassembles_exactly(self):
        blob = bytes(range(256)) * 40
        chunks = split_chunks(blob, 4096)
        assert [len(chunk) for chunk in chunks] == [4096, 4096, 2048]
        assert b"".join(chunks) == blob

    def test_empty_blob_has_no_chunks(self):
        assert split_chunks(b"", 1024) == []

    def test_chunk_size_validated(self):
        with pytest.raises(ValidationError):
            split_chunks(b"abc", 0)

    def test_digest_is_content_addressed(self):
        assert chunk_digest(b"abc") == chunk_digest(b"abc")
        assert chunk_digest(b"abc") != chunk_digest(b"abd")
        assert len(chunk_digest(b"")) == 16


def _carried(blob, chunk_bytes):
    """``(manifest, chunks)`` of ``blob``: its digests and every chunk as a
    carried ``(digest, data)`` pair."""
    chunks = [bytes(chunk) for chunk in split_chunks(blob, chunk_bytes)]
    digests = [chunk_digest(chunk) for chunk in chunks]
    return digests, list(zip(digests, chunks))


class TestChunkIndex:
    def test_put_verifies_the_digest(self):
        """A corrupt frame must never poison the content address space."""
        registry = PayloadRegistry()
        digests, chunks = _carried(dumps("payload"), 4)
        chunks[1] = (chunks[1][0], b"bad!")
        with pytest.raises(ValidationError, match="digest"):
            registry.assemble("plan", digests, chunks)
        assert registry.chunk_count() == 0
        assert registry.keys() == ()

    def test_probe_reports_only_the_missing_digests(self):
        registry = PayloadRegistry()
        held, absent = dumps("held"), b"absent-bytes"
        registry.assemble("other", [chunk_digest(held)], [(chunk_digest(held), held)])
        missing = registry.assemble(
            "plan", [chunk_digest(held), chunk_digest(absent), chunk_digest(absent)]
        )
        # once per occurrence in the manifest
        assert missing == (chunk_digest(absent), chunk_digest(absent))

    def test_assemble_rebuilds_the_payload_under_its_key(self):
        registry = PayloadRegistry()
        digests, chunks = _carried(dumps(list(range(1000))), 64)
        assert registry.assemble("plan", digests, chunks) == ()
        assert registry.get("plan") == list(range(1000))
        assert registry.chunk_count() == len(set(digests))

    def test_assemble_with_missing_chunks_stores_nothing(self):
        registry = PayloadRegistry()
        digests, chunks = _carried(dumps("p" * 40), 4)
        # carry all but the first chunk: the carried ones are kept, but no
        # payload is stored while one is missing
        missing = registry.assemble("plan", digests, chunks[1:])
        assert missing == (digests[0],)
        assert registry.keys() == ()
        assert registry.chunk_count() == len(set(digests[1:]))

    def test_chunk_cache_is_byte_capped_lru(self):
        registry = PayloadRegistry(chunk_cache_bytes=100)
        old, new = dumps(b"x" * 50), dumps(b"y" * 50)
        assert registry.assemble("old", *_carried(old, len(old))) == ()
        assert registry.assemble("new", *_carried(new, len(new))) == ()
        # 2 × ~65 bytes > 100: the older chunk was evicted
        assert registry.assemble("old", [chunk_digest(old)]) == (chunk_digest(old),)
        assert registry.assemble("new", [chunk_digest(new)]) == ()

    def test_cache_never_evicts_the_chunk_just_stored(self):
        """An undersized cache degrades to single-chunk residency rather
        than dropping what was just shipped."""
        registry = PayloadRegistry(chunk_cache_bytes=10)
        big = dumps(b"z" * 64)  # alone over budget
        assert registry.assemble("plan", *_carried(big, len(big))) == ()
        registry.drop_payloads()
        assert registry.assemble("plan", [chunk_digest(big)]) == ()

    def test_drop_payloads_keeps_the_chunk_index(self):
        """The two caches have independent lifetimes on purpose: payload
        churn must leave the chunks behind for the cheap re-arm."""
        registry = PayloadRegistry()
        digests, chunks = _carried(dumps([1, 2, 3]), 8)
        assert registry.assemble("plan", digests, chunks) == ()
        registry.drop_payloads()
        assert len(registry) == 0
        assert registry.chunk_count() == len(set(digests))
        assert registry.assemble("plan", digests) == ()  # re-armed from chunks
        assert registry.get("plan") == [1, 2, 3]

    def test_a_replaced_manifest_drops_what_no_held_manifest_names(self):
        """Assembling under a key replaces its manifest, at the
        manifest-only probe already: the old manifest's chunks go unless
        the new manifest or another key's still names them."""
        registry = PayloadRegistry()
        blobs = {
            name: dumps(first * 64 + second * 64)
            for name, (first, second) in {
                "old": (b"a", b"b"), "side": (b"b", b"c"), "new": (b"c", b"d")
            }.items()
        }
        old, side, new = (set(_carried(blobs[name], 8)[0]) for name in blobs)
        assert registry.assemble("ckpt", *_carried(blobs["old"], 8)) == ()
        assert registry.assemble("side", *_carried(blobs["side"], 8)) == ()
        assert registry.assemble("ckpt", list(new))  # the probe misses...
        # ...and has dropped the chunks only the old manifest named
        assert set(registry._chunks) == side | (old & new)
        assert chunk_digest(b"b" * 8) in registry._chunks  # "side" names it
        assert chunk_digest(b"a" * 8) not in registry._chunks
        assert registry.assemble("ckpt", *_carried(blobs["new"], 8)) == ()
        assert set(registry._chunks) == side | new
        assert registry._chunk_bytes_held == sum(map(len, registry._chunks.values()))

    def test_manifest_table_holds_one_entry_per_resident_payload(self):
        """The bookkeeping bound: a key's manifest is forgotten when its
        payload leaves or a plain put replaces it, so the table never
        outgrows the payload cap; the chunks stay for the byte-capped
        LRU."""
        registry = PayloadRegistry(cap=2)
        for index in range(5):
            assert registry.assemble(f"plan-{index}", *_carried(dumps(index), 4)) == ()
        assert set(registry._manifests) == set(registry.keys()) == {"plan-3", "plan-4"}
        held = registry.chunk_count()
        registry.put("plan-4", "plain broadcast")
        registry.release("plan-3")
        assert registry._manifests == {}
        assert registry.chunk_count() == held


_KEYS = ("a", "b", "c")
_CHUNK = 4


class RegistryMachine(RuleBasedStateMachine):
    """Random traffic against one :class:`PayloadRegistry` with a small
    payload cap and byte cap: assembles that hit and miss, plain puts,
    releases, payload drops, touches and LRU eviction of both caches."""

    @initialize(
        cap=st.integers(1, 3), budget=st.sampled_from([0, 16, 48, 1 << 20])
    )
    def start(self, cap, budget):
        self.registry = PayloadRegistry(cap, budget)
        self.budget = budget
        self.blobs = {}  # key -> the blob of the manifest it holds
        self.present = {}  # key -> its manifest's chunks held when it was set
        self.dropped = set()  # dropped by a replacement, not carried since

    @rule(
        key=st.sampled_from(_KEYS),
        values=st.lists(st.integers(0, 1), max_size=16),
        carry=st.sets(st.integers(0, 7)),
    )
    def assemble(self, key, values, carry):
        registry = self.registry
        blob = dumps(bytes(values))
        digests, chunks = _carried(blob, _CHUNK)
        carried = [chunks[i] for i in sorted(carry) if i < len(chunks)]
        carried_digests = {digest for digest, _ in carried}
        old = registry._manifests.get(key)
        others = set().union(*(m for k, m in registry._manifests.items() if k != key))
        held_before = set(registry._chunks)
        missing = registry.assemble(key, digests, carried)
        assert missing == tuple(
            d for d in digests if d not in carried_digests and d not in held_before
        )
        self.dropped -= carried_digests
        if old is not None:
            orphans = old - set(digests) - others - carried_digests
            assert not orphans & set(registry._chunks)
            self.dropped |= orphans
        if old is not None or not missing:
            assert registry._manifests[key] == frozenset(digests)
            self.blobs[key] = blob
            self.present[key] = set(digests) & set(registry._chunks)
        else:
            assert key not in registry._manifests
        if not missing:
            assert registry.get(key) == bytes(values)

    @rule(key=st.sampled_from(_KEYS))
    def put(self, key):
        self.registry.put(key, "plain")
        assert key not in self.registry._manifests

    @rule(key=st.sampled_from(_KEYS))
    def release(self, key):
        self.registry.release(key)

    @rule()
    def drop_payloads(self):
        self.registry.drop_payloads()

    @rule(key=st.sampled_from(_KEYS))
    def touch(self, key):
        if key in self.registry.keys():
            self.registry.get(key)

    @rule(key=st.sampled_from(_KEYS))
    def rearm_from_the_manifest_alone(self, key):
        manifest = self.registry._manifests.get(key)
        if manifest is None or not manifest <= set(self.registry._chunks):
            return
        blob = self.blobs[key]
        assert self.registry.assemble(key, _carried(blob, _CHUNK)[0]) == ()
        assert dumps(self.registry.get(key)) == blob

    @invariant()
    def held_bytes_match_the_held_chunks(self):
        chunks = self.registry._chunks
        held = self.registry._chunk_bytes_held
        assert held == sum(len(data) for data in chunks.values())
        assert held <= self.budget or len(chunks) == 1
        assert all(chunk_digest(data) == digest for digest, data in chunks.items())

    @invariant()
    def manifests_only_for_resident_payloads(self):
        manifests = self.registry._manifests
        assert set(manifests) <= set(self.registry.keys())
        assert len(manifests) <= self.registry.cap

    @invariant()
    def nothing_held_that_a_replacement_dropped(self):
        assert not self.dropped & set(self.registry._chunks)

    @invariant()
    def a_held_manifest_keeps_its_chunks(self):
        """Only the byte cap may take a chunk that a held manifest names."""
        held = set(self.registry._chunks)
        for key in set(self.present) - set(self.registry._manifests):
            del self.present[key]
        if self.budget >= 1 << 20:
            assert all(chunks <= held for chunks in self.present.values())


TestRegistryStateMachine = RegistryMachine.TestCase
TestRegistryStateMachine.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


class TestHandleRequestChunkOps:
    def test_probe_put_assemble_cycle(self):
        """Manifest alone → ``missing``; the named chunks carried → ok;
        the manifest alone again → ok from the chunk index."""
        registry = PayloadRegistry()
        digests, chunks = _carried(dumps(list(range(64))), 16)
        assert handle_request(("chunk_assemble", "plan", digests, []), registry) == (
            "missing",
            digests,
        )
        assert handle_request(
            ("chunk_assemble", "plan", digests, chunks), registry
        ) == ("ok", None)
        assert registry.get("plan") == list(range(64))
        registry.drop_payloads()
        assert handle_request(("chunk_assemble", "plan", digests, []), registry) == (
            "ok",
            None,
        )
        assert registry.get("plan") == list(range(64))

    def test_assemble_miss_replies_missing_and_unwrap_raises(self):
        registry = PayloadRegistry()
        digests = [chunk_digest(b"gone")]
        reply = handle_request(("chunk_assemble", "plan", digests, []), registry)
        assert reply == ("missing", digests)
        with pytest.raises(ChunksMissing) as excinfo:
            unwrap_reply(reply)
        assert excinfo.value.digests == tuple(digests)

    def test_corrupt_chunk_put_replies_err(self):
        digest = chunk_digest(b"a")
        reply = handle_request(
            ("chunk_assemble", "plan", [digest], [(digest, b"b")]), PayloadRegistry()
        )
        assert reply[0] == "err"
        assert isinstance(reply[1], ValidationError)
        assert "digest" in str(reply[1])


# ------------------------------------------------------- daemons over TCP


@network
class TestWorkerServer:
    def test_ping_broadcast_map_on_release_cycle(self):
        with WorkerServer().serve_in_thread() as server:
            channel = connect(server.host, server.port)
            assert request(channel, ("ping",)) == "pong"
            request(channel, ("broadcast", "base", dumps(10)))
            assert request(channel, ("map_on", "base", _plus, [1, 2])) == [11, 12]
            assert server.registry.keys() == ("base",)
            request(channel, ("release", "base"))
            assert server.registry.keys() == ()
            channel.close()

    def test_partial_frame_does_not_poison_the_daemon(self):
        with WorkerServer().serve_in_thread() as server:
            good = connect(server.host, server.port)
            request(good, ("broadcast", "base", dumps(5)))
            # a client dies mid-frame on a second connection
            evil = connect(server.host, server.port)
            body = dumps(("map_on", "base", _plus, [1]))
            evil.send_raw(struct.pack(">Q", len(body)) + body[: len(body) // 2])
            evil.close()
            # the daemon dropped only that connection; state intact
            assert request(good, ("map_on", "base", _plus, [1])) == [6]
            good.close()

    def test_task_exception_leaves_connection_usable(self):
        with WorkerServer().serve_in_thread() as server:
            channel = connect(server.host, server.port)
            request(channel, ("broadcast", "base", dumps(0)))
            with pytest.raises(ValueError, match="exploded"):
                request(channel, ("map_on", "base", _boom, [1]))
            assert request(channel, ("ping",)) == "pong"
            channel.close()

    def test_shutdown_op_stops_the_daemon(self):
        server = WorkerServer().serve_in_thread()
        channel = connect(server.host, server.port)
        assert request(channel, ("shutdown",)) is None
        channel.close()
        with pytest.raises(TransportError, match="connect"):
            connect(server.host, server.port, timeout=0.5)
        server.close()

    def test_payload_cap_evicts_and_replies_stale(self):
        with WorkerServer(payload_cap=2).serve_in_thread() as server:
            channel = connect(server.host, server.port)
            for index in range(3):
                request(channel, ("broadcast", f"k{index}", dumps(index)))
            assert server.registry.keys() == ("k1", "k2")
            with pytest.raises(StaleBroadcast):
                request(channel, ("map_on", "k0", _plus, [0]))
            channel.close()


@network
class TestSubprocessDaemon:
    def test_python_m_repro_worker_serves_lanes_and_survivors_cover_a_kill(self):
        with SubprocessWorker() as sub, WorkerServer().serve_in_thread() as local:
            executor = RemoteExecutor([sub.address, local.address])
            executor.broadcast("base", 1000)
            assert executor.map_on("base", _plus, list(range(6))) == [
                1000 + i for i in range(6)
            ]
            sub.kill()  # SIGKILL the real process
            assert executor.map_on("base", _plus, list(range(6))) == [
                1000 + i for i in range(6)
            ]
            assert executor.live_workers() == [local.address]
            executor.close()


# ------------------------------------------------------------ remote lanes


@network
class TestRemoteExecutor:
    def test_lane_contract_matches_serial_bitwise(self):
        rng = np.random.default_rng(3)
        payload = rng.random((16, 16))
        tasks = [rng.random(16) for _ in range(10)]
        serial = SerialExecutor()
        serial.broadcast("m", payload)
        expected = serial.map_on("m", _dot, tasks)
        with remote_pool(2) as (executor, _):
            executor.broadcast("m", payload)
            out = executor.map_on("m", _dot, tasks)
        for got, want in zip(out, expected):
            np.testing.assert_array_equal(got, want)

    def test_map_on_preserves_task_order(self):
        with remote_pool(3) as (executor, _):
            executor.broadcast("base", 0)
            tasks = list(range(64))
            assert executor.map_on("base", _plus, tasks) == tasks

    def test_map_tasks_round_robins_and_preserves_order(self):
        with remote_pool(2) as (executor, servers):
            assert executor.map_tasks(_double, list(range(9))) == [
                2 * i for i in range(9)
            ]
            # both lanes actually served tasks
            assert all(s.op_counts.get("map_tasks", 0) >= 1 for s in servers)

    def test_broadcast_ships_once_then_map_on_is_small(self):
        with remote_pool(2) as (executor, servers):
            executor.broadcast("plan", np.zeros(1 << 16))
            first_broadcast = executor.broadcast_sent_bytes
            assert first_broadcast > (1 << 16) * 8  # payload went to both lanes
            for _ in range(5):
                executor.map_on("plan", _shape_of, [0, 1])
            assert executor.broadcast_sent_bytes == first_broadcast
            assert all(s.op_counts.get("broadcast") == 1 for s in servers)

    def test_map_on_unknown_key_raises_before_touching_the_network(self):
        with worker_fleet(1) as servers:
            executor = RemoteExecutor([servers[0].address])
            with pytest.raises(ConfigurationError, match="no broadcast state"):
                executor.map_on("ghost", _plus, [1])
            assert executor.sent_bytes == 0  # never connected
            executor.close()

    def test_rebroadcast_replaces_payload_on_the_daemons(self):
        with remote_pool(2) as (executor, _):
            executor.broadcast("base", 10)
            assert executor.map_on("base", _plus, [0]) == [10]
            executor.broadcast("base", 100)
            assert executor.map_on("base", _plus, [0]) == [100]

    def test_worker_side_eviction_recovers_via_rebroadcast(self):
        with remote_pool(1, payload_cap=1) as (executor, servers):
            executor.broadcast("k1", 1)
            executor.broadcast("k2", 2)  # daemon cap 1: k1 evicted there
            assert executor.map_on("k1", _plus, [0]) == [1]  # stale -> re-send
            assert servers[0].op_counts["broadcast"] == 3

    def test_release_clears_daemon_and_client_state(self):
        with remote_pool(2) as (executor, servers):
            executor.broadcast("base", 1)
            executor.map_on("base", _plus, [1])
            executor.release("base")
            assert all(len(s.registry) == 0 for s in servers)
            with pytest.raises(ConfigurationError, match="no broadcast state"):
                executor.map_on("base", _plus, [1])

    def test_close_releases_worker_state_and_is_idempotent(self):
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([s.address for s in servers])
            executor.broadcast("base", 1)
            executor.map_on("base", _plus, [1, 2])
            executor.close()
            executor.close()  # idempotent
            assert all(len(s.registry) == 0 for s in servers)
            with pytest.raises(ConfigurationError, match="remote executor"):
                executor.map_on("base", _plus, [1])
            with pytest.raises(ConfigurationError, match="remote executor"):
                executor.broadcast("other", 2)

    def test_all_workers_dead_raises_transport_error(self):
        with remote_pool(2) as (executor, servers):
            executor.broadcast("base", 1)
            for server in servers:
                server.kill()
            with pytest.raises(TransportError, match="all remote workers"):
                executor.map_on("base", _plus, list(range(4)))

    # ------------------------------------------------------ injected faults

    def test_connection_drop_reconnects_and_recovers(self):
        """A dropped connection (daemon alive) heals: reconnect, retry."""
        with worker_fleet(2) as servers:
            factory = faulty_lane_factory(
                {(0, 0): FaultSchedule(drop_send_at=[1])}  # lane 0, 1st conn
            )
            executor = RemoteExecutor(
                [s.address for s in servers], channel_factory=factory
            )
            executor.broadcast("base", 10)
            assert executor.map_on("base", _plus, list(range(8))) == [
                10 + i for i in range(8)
            ]
            # the lane healed: both workers stay live
            assert len(executor.live_workers()) == 2
            executor.close()

    def test_truncated_frame_is_retried_without_poisoning_state(self):
        with worker_fleet(2) as servers:
            factory = faulty_lane_factory(
                {(1, 0): FaultSchedule(truncate_send_at=[1])}
            )
            executor = RemoteExecutor(
                [s.address for s in servers], channel_factory=factory
            )
            executor.broadcast("base", 5)
            assert executor.map_on("base", _plus, list(range(8))) == [
                5 + i for i in range(8)
            ]
            assert len(executor.live_workers()) == 2
            executor.close()

    def test_lost_reply_recomputes_on_retry(self):
        """The daemon executed the tasks but the reply died: recompute."""
        with worker_fleet(2) as servers:
            factory = faulty_lane_factory(
                {(0, 0): FaultSchedule(drop_recv_at=[1])}
            )
            executor = RemoteExecutor(
                [s.address for s in servers], channel_factory=factory
            )
            executor.broadcast("base", 0)
            assert executor.map_on("base", _plus, list(range(8))) == list(range(8))
            executor.close()

    def test_task_exception_is_not_retried_as_a_lane_failure(self):
        with remote_pool(2) as (executor, servers):
            executor.broadcast("base", 0)
            with pytest.raises(ValueError, match="exploded"):
                executor.map_on("base", _boom, [1, 2])
            # the lanes survive a task bug
            assert len(executor.live_workers()) == 2

    def test_degree_tracks_live_lanes_through_kills_and_replacements(self):
        """The auto backend sizes shard counts from ``degree``: it must
        reflect real capacity, not the configured lane list."""
        with worker_fleet(3) as servers:
            executor = RemoteExecutor([s.address for s in servers[:2]])
            assert executor.degree == 2
            executor.broadcast("base", 0)
            servers[0].kill()
            executor.map_on("base", _plus, list(range(4)))  # excludes lane 0
            assert executor.degree == 1
            executor.add_worker(servers[2].address)
            assert executor.degree == 2
            executor.close()

    def test_daemon_prunes_finished_connection_threads(self):
        with worker_fleet(1) as servers:
            for _ in range(8):
                channel = connect(servers[0].host, servers[0].port)
                assert request(channel, ("ping",)) == "pong"
                channel.close()
            # give the handler threads a beat to notice the goodbyes
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                alive = [t for t in servers[0]._threads if t.is_alive()]
                if len(servers[0]._threads) <= 2 and not alive:
                    break
                time.sleep(0.02)
            assert len(servers[0]._threads) <= 2  # not one per connection

    def test_short_reply_excludes_the_lane_instead_of_hanging(self, monkeypatch):
        """A daemon violating the reply-shape contract (fewer results than
        tasks) must be distrusted and excluded — never zip-truncated into
        an endless silent re-dispatch loop."""
        with worker_fleet(2) as servers:
            real = servers[0].handle

            def evil(message):
                reply = real(message)
                if (
                    message[0] == "map_tasks"
                    and reply[0] == "ok"
                    and len(reply[1]) > 1
                ):
                    return ("ok", reply[1][:-1])  # drop one result
                return reply

            monkeypatch.setattr(servers[0], "handle", evil)
            executor = RemoteExecutor([s.address for s in servers])
            assert executor.map_tasks(_double, list(range(8))) == [
                2 * i for i in range(8)
            ]
            assert executor.live_workers() == [servers[1].address]
            executor.close()

    def test_malformed_err_envelope_excludes_the_lane(self, monkeypatch):
        with worker_fleet(2) as servers:
            real = servers[0].handle

            def evil(message):
                if message[0] == "map_tasks":
                    return ("err", "boom")  # wrong arity: protocol violation
                return real(message)

            monkeypatch.setattr(servers[0], "handle", evil)
            executor = RemoteExecutor([s.address for s in servers])
            assert executor.map_tasks(_double, list(range(6))) == [
                2 * i for i in range(6)
            ]
            assert executor.live_workers() == [servers[1].address]
            executor.close()

    def test_rebroadcast_err_reply_does_not_desync_other_lanes(self, monkeypatch):
        """A worker 'err' reply to an in-dispatch re-broadcast raises, but
        only after every already-sent lane was drained — the next call on
        those lanes must not read this call's leftover replies."""
        with worker_fleet(2) as servers:
            real = servers[1].handle
            broadcasts = {"count": 0}

            def evil(message):
                if message[0] == "map_on":
                    return ("stale", message[1])  # claim the key is gone
                if message[0] == "broadcast":
                    broadcasts["count"] += 1
                    if broadcasts["count"] > 1:
                        return (
                            "err",
                            ValueError("refusing re-broadcast"),
                            "fake traceback",
                        )
                return real(message)

            monkeypatch.setattr(servers[1], "handle", evil)
            executor = RemoteExecutor([s.address for s in servers])
            executor.broadcast("base", 100)
            with pytest.raises(ValueError, match="refusing re-broadcast"):
                executor.map_on("base", _plus, list(range(8)))
            # lane 0 was mid-pipeline when the error surfaced: its channel
            # must still be frame-aligned
            assert executor.map_tasks(_double, list(range(6))) == [
                2 * i for i in range(6)
            ]
            executor.close()

    def test_add_worker_receives_rebroadcast_lazily(self):
        with worker_fleet(3) as servers:
            executor = RemoteExecutor([s.address for s in servers[:2]])
            executor.broadcast("base", 7)
            servers[0].kill()
            executor.add_worker(servers[2].address)
            assert executor.map_on("base", _plus, list(range(6))) == [
                7 + i for i in range(6)
            ]
            assert servers[2].op_counts.get("broadcast") == 1
            executor.close()


# ------------------------------------------------------- chunked broadcast


@network
class TestChunkedBroadcast:
    def test_chunked_payload_round_trips_bitwise(self):
        rng = np.random.default_rng(5)
        payload = rng.random((64, 64))  # ~32 KiB pickled: several chunks
        tasks = [rng.random(64) for _ in range(6)]
        serial = SerialExecutor()
        serial.broadcast("m", payload)
        expected = serial.map_on("m", _dot, tasks)
        with remote_pool(2, chunk_bytes=4096) as (executor, servers):
            executor.broadcast("m", payload)
            out = executor.map_on("m", _dot, tasks)
            # the payload crossed as content-addressed chunks (manifest,
            # then the carried chunks), never as a monolithic blob
            assert all(s.op_counts.get("chunk_assemble") == 2 for s in servers)
            assert all(s.registry.chunk_count() > 1 for s in servers)
            assert all("broadcast" not in s.op_counts for s in servers)
        for got, want in zip(out, expected):
            np.testing.assert_array_equal(got, want)

    def test_rearm_after_payload_eviction_costs_a_probe_not_a_reship(self):
        payload = np.arange(1 << 15, dtype=np.float64)  # 256 KiB
        with remote_pool(1, chunk_bytes=4096) as (executor, servers):
            executor.broadcast("plan", payload)
            shipped = executor.broadcast_sent_bytes
            assert shipped > (1 << 15) * 8
            assembles = servers[0].op_counts.get("chunk_assemble", 0)
            assert assembles == 2
            # the daemon loses its *payloads* but keeps its chunk index
            # (restart with a warm cache, payload-cap churn)
            servers[0].registry.drop_payloads()
            out = executor.map_on("plan", _shape_of, [0])
            assert out == [1 << 15]
            delta = executor.broadcast_sent_bytes - shipped
            # re-arm = one manifest-only request: no chunk re-ships
            assert 0 < delta < shipped // 10
            assert servers[0].op_counts.get("chunk_assemble", 0) == assembles + 1

    def test_replacement_daemon_with_cold_cache_gets_the_chunks(self):
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([servers[0].address], chunk_bytes=1024)
            payload = list(range(5000))
            executor.broadcast("plan", payload)
            executor.add_worker(servers[1].address)
            assert executor.map_on("plan", _len_of, [0, 1]) == [5000, 5000]
            assert servers[1].op_counts.get("chunk_assemble") == 2
            assert servers[1].registry.chunk_count() > 1
            executor.close()

    def test_undersized_chunk_cache_installs_from_carried_chunks(self):
        """chunk_cache_bytes=0 keeps only the most recent chunk, but the
        daemon assembles from the chunks the request carries: no
        monolithic broadcast, and no third request."""
        server = WorkerServer(chunk_cache_bytes=0).serve_in_thread()
        try:
            executor = RemoteExecutor([server.address], chunk_bytes=512)
            payload = bytes(range(256)) * 32
            executor.broadcast("plan", payload)
            assert executor.map_on("plan", _len_of, [0]) == [8192]
            assert server.op_counts.get("chunk_assemble") == 2
            assert "broadcast" not in server.op_counts
            assert server.registry.chunk_count() == 1
            executor.close()
        finally:
            server.close()

    def test_chunks_evicted_between_requests_are_all_carried(self, monkeypatch):
        """A chunk held at the manifest request but evicted before the
        second one (an undersized cache under concurrent churn) costs one
        third request that carries every chunk — and cannot miss."""
        server = WorkerServer().serve_in_thread()
        real = server.handle
        requests = []

        def evicting(message):
            if message[0] == "chunk_assemble":
                requests.append(len(message[3]))
                if len(requests) == 2:
                    server.registry._chunks.clear()  # churn between steps 1 and 2
            return real(message)

        try:
            payload = bytes(range(256)) * 32
            warm = RemoteExecutor([server.address], chunk_bytes=512)
            warm.broadcast("plan", payload)
            warm.close()
            # half of the chunks change: the daemon holds the other half
            edited = payload[:4096] + bytes(4096)
            monkeypatch.setattr(server, "handle", evicting)
            executor = RemoteExecutor([server.address], chunk_bytes=512)
            executor.broadcast("plan", edited)
            assert executor.map_on("plan", _len_of, [0]) == [8192]
            n_chunks = len(executor._manifests["plan"])
            assert requests[0] == 0  # the manifest alone
            assert 0 < requests[1] < n_chunks  # exactly the named chunks
            assert requests[2] == n_chunks  # every chunk
            assert "broadcast" not in server.op_counts
            executor.close()
        finally:
            server.close()

    def test_chunking_disabled_ships_monolithically(self):
        with remote_pool(1, chunk_bytes=0) as (executor, servers):
            executor.broadcast("plan", bytes(1 << 16))
            assert executor.map_on("plan", _len_of, [0]) == [1 << 16]
            assert servers[0].op_counts.get("broadcast") == 1
            assert "chunk_assemble" not in servers[0].op_counts


@network
class TestMalformedChunkReplies:
    """A ``missing`` reply the client cannot act on is a broken lane: it
    fails (and here excludes) the lane instead of raising a task error."""

    @staticmethod
    def _fleet_with_a_bad_chunk_store(monkeypatch, servers, missing):
        real = servers[0].handle

        def bad(message):
            if message[0] == "chunk_assemble":
                return ("missing", missing)
            return real(message)

        monkeypatch.setattr(servers[0], "handle", bad)
        return RemoteExecutor(
            [s.address for s in servers], chunk_bytes=1024, reconnects=0
        )

    def test_missing_reply_without_a_digest_list_fails_the_lane(self, monkeypatch):
        with pytest.raises(TransportError):
            unwrap_reply(("missing", None))
        with worker_fleet(2) as servers:
            executor = self._fleet_with_a_bad_chunk_store(
                monkeypatch, servers, None
            )
            executor.broadcast("plan", list(range(5000)))
            assert executor.live_workers() == [servers[1].address]
            assert executor.map_on("plan", _len_of, [0, 1]) == [5000, 5000]
            executor.close()

    def test_missing_reply_naming_an_unknown_digest_fails_the_lane(
        self, monkeypatch
    ):
        with worker_fleet(2) as servers:
            executor = self._fleet_with_a_bad_chunk_store(
                monkeypatch, servers, [chunk_digest(b"never sent")]
            )
            executor.broadcast("plan", list(range(5000)))
            assert executor.live_workers() == [servers[1].address]
            assert executor.map_on("plan", _len_of, [0, 1]) == [5000, 5000]
            executor.close()


@network
class TestBadFrames:
    def test_lane_whose_replies_do_not_unpickle_is_excluded(self, monkeypatch):
        with worker_fleet(2) as servers:
            real = servers[0].handle

            def bad(message):
                reply = real(message)
                if message[0] == "map_on":
                    return ("ok", _Unpicklable())
                return reply

            monkeypatch.setattr(servers[0], "handle", bad)
            rng = np.random.default_rng(3)
            matrix = rng.random((16, 16))
            vectors = [rng.random(16) for _ in range(8)]
            expected = [matrix @ vector for vector in vectors]
            executor = RemoteExecutor([s.address for s in servers])
            executor.broadcast("m", matrix)
            for _ in range(2):  # the lane stays out: the next call is served too
                np.testing.assert_array_equal(
                    executor.map_on("m", _dot, vectors), expected
                )
                assert executor.live_workers() == [servers[1].address]
            executor.close()

    def test_daemon_drops_a_frame_that_does_not_unpickle_and_serves_on(
        self, monkeypatch
    ):
        import threading

        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        server = WorkerServer().serve_in_thread()
        try:
            other = connect(server.host, server.port)
            bad = connect(server.host, server.port)
            bad.send(_Unpicklable())
            with pytest.raises(TransportError):
                bad.recv(timeout=5.0)  # the daemon hung up on it
            bad.close()
            assert request(other, ("ping",), timeout=5.0) == "pong"
            fresh = connect(server.host, server.port)
            assert request(fresh, ("ping",), timeout=5.0) == "pong"
            other.close(), fresh.close()
        finally:
            server.close()
        for thread in server._threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert uncaught == []

    def test_non_string_op_gets_an_err_reply_and_the_connection_lives(self):
        server = WorkerServer().serve_in_thread()
        try:
            channel = connect(server.host, server.port)
            with pytest.raises(ValidationError, match="unknown request op"):
                request(channel, (["ping"],), timeout=5.0)
            assert request(channel, ("ping",), timeout=5.0) == "pong"
            assert server.op_counts == {"?": 1, "ping": 1}
            channel.close()
        finally:
            server.close()


# ------------------------------------------------------ straggler mitigation


@network
class TestStragglerMitigation:
    def test_hung_daemon_is_suspected_and_its_tasks_rerouted(self):
        victim = StallingWorkerServer(stall_at=[("map_on", 0)]).serve_in_thread()
        survivor = WorkerServer().serve_in_thread()
        try:
            executor = RemoteExecutor(
                [victim.address, survivor.address],
                request_timeout=0.2,
                straggler_grace=60.0,  # stay suspect: no reconnect here
            )
            executor.broadcast("base", 100)
            tasks = list(range(8))
            assert executor.map_on("base", _plus, tasks) == [
                100 + t for t in tasks
            ]
            # suspect, not excluded: still a fleet member
            assert len(executor.live_workers()) == 2
            assert executor.degree == 2
            # the survivor computed the victim's share too
            assert survivor.op_counts.get("map_on", 0) >= 2
            victim.unstall()
            executor.broadcast("base", 200)  # settles the suspect first
            before = victim.op_counts.get("map_on", 0)
            assert executor.map_on("base", _plus, tasks) == [
                200 + t for t in tasks
            ]
            # the recovered lane serves again
            assert victim.op_counts.get("map_on", 0) > before
            executor.close()
        finally:
            victim.close()
            survivor.close()

    def test_late_reply_from_a_finished_call_is_discarded(self):
        """First result wins; a stale reply harvested during a *later*
        call carries an old dispatch token and must fill nothing."""
        victim = StallingWorkerServer(stall_at=[("map_on", 0)]).serve_in_thread()
        survivor = WorkerServer().serve_in_thread()
        try:
            executor = RemoteExecutor(
                [victim.address, survivor.address],
                request_timeout=0.2,
                straggler_grace=60.0,
            )
            executor.broadcast("base", 0)
            assert executor.map_on("base", _plus, [1, 2, 3, 4]) == [1, 2, 3, 4]
            victim.unstall()  # call #1's reply is now in flight
            # different tasks: a misrouted stale reply would corrupt these
            assert executor.map_on("base", _plus, [10, 20, 30, 40]) == [
                10,
                20,
                30,
                40,
            ]
            executor.close()
        finally:
            victim.close()
            survivor.close()

    def test_map_tasks_also_reroutes_around_a_hung_lane(self):
        victim = StallingWorkerServer(
            stall_at=[("map_tasks", 0)]
        ).serve_in_thread()
        survivor = WorkerServer().serve_in_thread()
        try:
            executor = RemoteExecutor(
                [victim.address, survivor.address],
                request_timeout=0.2,
                straggler_grace=60.0,
            )
            assert executor.map_tasks(_double, list(range(10))) == [
                2 * i for i in range(10)
            ]
            victim.unstall()
            executor.close()
        finally:
            victim.close()
            survivor.close()

    def test_grace_expiry_reconnect_cures_a_hung_handler(self):
        """The daemon is alive but one handler thread is parked: a fresh
        connection gets a fresh handler, so the lane rejoins the fleet."""
        victim = StallingWorkerServer(stall_at=[("map_on", 0)]).serve_in_thread()
        survivor = WorkerServer().serve_in_thread()
        try:
            executor = RemoteExecutor(
                [victim.address, survivor.address],
                request_timeout=0.1,
                straggler_grace=0.0,  # expire immediately: reconnect now
                reconnects=2,
            )
            executor.broadcast("base", 0)
            assert executor.map_on("base", _plus, list(range(6))) == list(
                range(6)
            )
            assert len(executor.live_workers()) == 2
            # the old handler is still parked (its request never reached
            # op_counts); a fresh handler served the retried tasks
            assert victim.stalled == 1
            assert victim.op_counts.get("map_on", 0) >= 1
            executor.close()
        finally:
            victim.close()
            survivor.close()

    def test_suspect_past_grace_with_no_reconnects_is_excluded(self):
        victim = StallingWorkerServer(stall_at=[("map_on", 0)]).serve_in_thread()
        survivor = WorkerServer().serve_in_thread()
        try:
            executor = RemoteExecutor(
                [victim.address, survivor.address],
                request_timeout=0.1,
                straggler_grace=0.5,
                reconnects=0,
            )
            executor.broadcast("base", 0)
            tasks = list(range(6))
            assert executor.map_on("base", _plus, tasks) == tasks
            time.sleep(0.7)  # past the grace window
            assert executor.map_on("base", _plus, tasks) == tasks
            assert executor.live_workers() == [survivor.address]
            executor.close()
        finally:
            victim.close()
            survivor.close()

    def test_zero_timeout_default_never_arms_deadlines(self):
        """Pre-elastic behaviour is the constructor default: no deadline,
        no suspects, replies awaited indefinitely."""
        with remote_pool(1) as (executor, _):
            assert executor._request_timeout == 0.0
            executor.broadcast("base", 1)
            assert executor.map_on("base", _plus, [1]) == [2]
            assert all(lane.health.live for lane in executor._lanes)


# ------------------------------------------------------- reconnect backoff


@network
class TestReconnectBackoff:
    def test_backoff_delays_are_exponential_and_jittered(self, monkeypatch):
        from repro.utils import parallel as parallel_module

        sleeps = []
        monkeypatch.setattr(parallel_module, "_sleep", sleeps.append)
        with worker_fleet(1) as servers:
            executor = RemoteExecutor(
                [servers[0].address],
                reconnects=5,
                reconnect_backoff=0.05,
                reconnect_budget=60.0,
            )
            executor.broadcast("base", 1)
            servers[0].kill()
            with pytest.raises(TransportError, match="all remote workers"):
                executor.map_on("base", _plus, [1, 2])
            executor.close()
        # first attempt is immediate; each later attempt backs off
        assert len(sleeps) == 4
        for index, delay in enumerate(sleeps):
            base = 0.05 * (2**index)
            assert 0.5 * base <= delay < 1.5 * base

    def test_reconnect_budget_bounds_the_retry_storm(self, monkeypatch):
        from repro.utils import parallel as parallel_module

        sleeps = []
        monkeypatch.setattr(parallel_module, "_sleep", sleeps.append)
        with worker_fleet(1) as servers:
            executor = RemoteExecutor(
                [servers[0].address],
                reconnects=50,
                reconnect_backoff=10.0,
                reconnect_budget=0.5,
            )
            executor.broadcast("base", 1)
            servers[0].kill()
            with pytest.raises(TransportError, match="all remote workers"):
                executor.map_on("base", _plus, [1])
            executor.close()
        # a 10 s gap never fits the 0.5 s budget: one immediate attempt,
        # zero sleeps — the tight reconnect loop is gone for good
        assert sleeps == []


# ------------------------------------------------------- runtime membership


@network
class TestRuntimeMembership:
    def test_remove_worker_drains_and_detaches(self):
        with remote_pool(2) as (executor, servers):
            executor.broadcast("base", 3)
            executor.map_on("base", _plus, [1, 2])
            executor.remove_worker(servers[0].address)
            assert executor.degree == 1
            assert executor.live_workers() == [servers[1].address]
            # drain released this client's payloads on the leaving daemon
            assert len(servers[0].registry) == 0
            assert len(servers[1].registry) == 1
            assert executor.map_on("base", _plus, [1, 2]) == [4, 5]

    def test_remove_unknown_worker_is_loud(self):
        with remote_pool(1) as (executor, _):
            with pytest.raises(ConfigurationError, match="no lane"):
                executor.remove_worker("127.0.0.1:1")

    def test_remove_last_live_worker_is_refused(self):
        with remote_pool(1) as (executor, servers):
            with pytest.raises(ConfigurationError, match="last live lane"):
                executor.remove_worker(servers[0].address)
            # the refusal changed nothing
            assert executor.live_workers() == [servers[0].address]

    def test_removing_an_excluded_lane_is_allowed(self):
        with remote_pool(2) as (executor, servers):
            executor.broadcast("base", 0)
            servers[0].kill()
            executor.map_on("base", _plus, [1])  # excludes lane 0
            assert executor.degree == 1
            executor.remove_worker(servers[0].address)
            assert executor.live_workers() == [servers[1].address]

    def test_remove_then_add_back_rearms_lazily(self):
        with remote_pool(2) as (executor, servers):
            executor.broadcast("base", 9)
            executor.remove_worker(servers[0].address)
            executor.add_worker(servers[0].address)
            assert executor.degree == 2
            assert executor.map_on("base", _plus, [0, 1]) == [9, 10]
            assert servers[0].op_counts.get("broadcast") == 2  # re-armed

    def test_membership_ops_on_closed_executor_are_loud(self):
        """A closed executor names its kind in the refusal — the caller
        holding a stale handle learns *which* pool is gone."""
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([servers[0].address])
            executor.close()
            with pytest.raises(ConfigurationError, match="remote executor"):
                executor.add_worker(servers[1].address)
            with pytest.raises(ConfigurationError, match="remote executor"):
                executor.remove_worker(servers[0].address)


# --------------------------------------------------------- factory plumbing


@network
class TestRemoteFactory:
    def test_make_executor_remote_builds_lanes(self):
        with worker_fleet(2) as servers:
            executor = make_executor(
                "remote", workers=[s.address for s in servers]
            )
            assert isinstance(executor, RemoteExecutor)
            assert executor.degree == 2
            executor.close()

    def test_degree_caps_the_worker_list(self):
        with worker_fleet(2) as servers:
            executor = make_executor(
                "remote", 1, workers=[s.address for s in servers]
            )
            assert executor.degree == 1
            executor.close()

    def test_request_timeout_reaches_the_lanes(self):
        with worker_fleet(1) as servers:
            executor = make_executor(
                "remote", workers=[servers[0].address], request_timeout=7.5
            )
            assert executor._request_timeout == 7.5
            executor.close()


class TestRemoteFactoryValidation:
    def test_remote_without_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="worker address"):
            make_executor("remote")
        with pytest.raises(ConfigurationError, match="worker address"):
            RemoteExecutor([])

    def test_workers_on_local_kinds_rejected(self):
        with pytest.raises(ConfigurationError, match="remote"):
            make_executor("thread", 2, workers=["h:1"])

    def test_request_timeout_on_local_kinds_rejected(self):
        with pytest.raises(ConfigurationError, match="request_timeout"):
            make_executor("thread", 2, request_timeout=1.0)

    def test_negative_elastic_knobs_rejected(self):
        with pytest.raises(ConfigurationError, match="request_timeout"):
            RemoteExecutor(["h:1"], request_timeout=-1.0)
        with pytest.raises(ConfigurationError, match="chunk_bytes"):
            RemoteExecutor(["h:1"], chunk_bytes=-1)

    def test_bad_addresses_rejected_eagerly(self):
        with pytest.raises(ValidationError):
            RemoteExecutor(["no-port"])


def _len_of(payload, task):
    return len(payload)


def _shape_of(payload, task):
    return payload.shape[0] + task


# ------------------------------------------------- handler-thread locking


@network
class TestServerCounterLocking:
    """Regression pin for the ``op_counts`` lost-update race (R2).

    Each accepted connection runs its handler on its own thread, and all
    of them bump the shared ``op_counts`` dict.  Before the fix the
    read-modify-write was unlocked, so concurrent pings could lose
    increments; the static pass (``repro.analysis`` R2) flags the
    pattern, and this test holds the behavioural contract: every served
    request is counted exactly once.
    """

    def test_concurrent_pings_all_counted(self):
        import threading

        n_threads, pings_each = 8, 40
        server = WorkerServer().serve_in_thread()
        try:
            barrier = threading.Barrier(n_threads)
            errors = []

            def hammer():
                try:
                    channel = connect(server.host, server.port)
                    barrier.wait(timeout=10.0)
                    for _ in range(pings_each):
                        assert (
                            request(channel, ("ping",), timeout=10.0) == "pong"
                        )
                    channel.close()
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, daemon=True)
                for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors
            assert server.op_counts["ping"] == n_threads * pings_each
        finally:
            server.close()
