"""Tests for RNG plumbing, validation helpers, executors, and tables."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.utils.parallel import (
    EXECUTOR_KINDS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    split_chunks,
)
from repro.utils.random import RandomState, choice_without_replacement, spawn_rngs
from repro.utils.tables import format_kv_block, format_table
from repro.utils.validation import (
    check_fraction,
    check_in_range,
    check_positive,
    check_probability_matrix,
    check_type,
)


class TestRandomState:
    def test_int_seed_deterministic(self):
        a = RandomState(42).random(5)
        b = RandomState(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert RandomState(gen) is gen

    def test_spawn_rngs_independent_and_stable(self):
        first = [g.random() for g in spawn_rngs(7, 3)]
        second = [g.random() for g in spawn_rngs(7, 3)]
        assert first == second
        assert len(set(first)) == 3

    def test_spawn_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_choice_without_replacement_all_when_oversized(self):
        rng = RandomState(0)
        out = choice_without_replacement(rng, range(3), 10)
        assert sorted(out.tolist()) == [0, 1, 2]

    def test_choice_without_replacement_distinct(self):
        rng = RandomState(0)
        out = choice_without_replacement(rng, range(100), 10)
        assert len(set(out.tolist())) == 10


class TestValidation:
    def test_check_type_passes_and_fails(self):
        assert check_type("x", 3, int) == 3
        with pytest.raises(ValidationError):
            check_type("x", "3", int)

    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ValidationError):
            check_positive("x", 0.0)
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(ValidationError):
            check_positive("x", float("nan"))

    def test_check_fraction(self):
        assert check_fraction("x", 0.0) == 0.0
        with pytest.raises(ValidationError):
            check_fraction("x", 1.5)
        with pytest.raises(ValidationError):
            check_fraction("x", 0.0, inclusive=False)

    def test_check_in_range(self):
        assert check_in_range("x", 2, 1, 3) == 2
        with pytest.raises(ValidationError):
            check_in_range("x", 2.5, 1, 3, integral=True)

    def test_check_probability_matrix(self):
        check_probability_matrix("p", np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            check_probability_matrix("p", np.array([[0.5, 0.6]]))


class TestSplitChunks:
    def test_balanced(self):
        chunks = split_chunks(10, 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [c.start for c in chunks] == [0, 4, 7]

    def test_more_parts_than_items(self):
        chunks = split_chunks(2, 5)
        assert len(chunks) == 2

    def test_zero_items(self):
        assert split_chunks(0, 3) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            split_chunks(-1, 2)
        with pytest.raises(ValidationError):
            split_chunks(3, 0)


def _square_chunk(chunk):
    return [i * i for i in chunk]


def _double_task(x):
    return x * 2


class TestExecutors:
    def test_thread_matches_serial(self):
        chunks = split_chunks(7, 2)
        with ThreadExecutor(2) as ex:
            out = ex.map_tasks(_square_chunk, chunks)
        with SerialExecutor() as ex:
            assert out == ex.map_tasks(_square_chunk, chunks)
        flat = sorted(v for piece in out for v in piece)
        assert flat == sorted(i * i for i in range(7))

    def test_process_map_tasks(self):
        with ProcessExecutor(2) as ex:
            out = ex.map_tasks(_double_task, [1, 2, 3])
        assert out == [2, 4, 6]

    def test_serial_map_tasks(self):
        with SerialExecutor() as ex:
            assert ex.map_tasks(_double_task, [5]) == [10]

    def test_factory(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("thread", 2), ThreadExecutor)

    def test_factory_rejects_unknown_kind_with_clear_error(self):
        """Unknown kinds must raise ConfigurationError naming the choices,
        never fall through to an implicit default."""
        with pytest.raises(ConfigurationError) as excinfo:
            make_executor("gpu")
        message = str(excinfo.value)
        assert "gpu" in message
        for kind in EXECUTOR_KINDS:
            assert kind in message
        # still catchable as ValidationError for existing callers
        with pytest.raises(ValidationError):
            make_executor("spark")

    def test_degree_validation(self):
        with pytest.raises(ValidationError):
            ThreadExecutor(0)


def _payload_plus(payload, task):
    return payload + task


class TestStatefulLanes:
    """broadcast/map_on: the lane-resident state contract of DESIGN.md §6."""

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_broadcast_then_map_on(self, kind):
        with make_executor(kind, 2) as ex:
            ex.broadcast("base", 10)
            assert ex.map_on("base", _payload_plus, [1, 2, 3]) == [11, 12, 13]

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_rebroadcast_replaces_payload(self, kind):
        with make_executor(kind, 2) as ex:
            ex.broadcast("base", 10)
            assert ex.map_on("base", _payload_plus, [0]) == [10]
            lanes_before = _lane_workers(ex)
            ex.broadcast("base", 100)
            assert ex.map_on("base", _payload_plus, [0]) == [100]
            # re-broadcasting must not recycle the lanes
            assert _lane_workers(ex) == lanes_before

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_map_on_unknown_key_raises_loudly(self, kind):
        with make_executor(kind, 2) as ex:
            with pytest.raises(ConfigurationError, match="no broadcast state"):
                ex.map_on("never-sent", _payload_plus, [1])
            # the error path must not have touched the lanes
            if kind == "thread":
                assert ex._pool is None
            elif kind == "process":
                assert all(lane.channel is None for lane in ex._lanes)

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_release_then_map_on_raises(self, kind):
        with make_executor(kind, 2) as ex:
            ex.broadcast("base", 1)
            ex.release("base")
            ex.release("base")  # idempotent
            with pytest.raises(ConfigurationError):
                ex.map_on("base", _payload_plus, [1])

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_closed_executor_refuses_broadcast_and_map_on(self, kind):
        ex = make_executor(kind, 2)
        ex.broadcast("base", 1)
        ex.close()
        with pytest.raises(ConfigurationError, match=f"{kind} executor"):
            ex.broadcast("other", 2)
        with pytest.raises(ConfigurationError, match=f"{kind} executor"):
            ex.map_on("base", _payload_plus, [1])

    def test_map_on_preserves_task_order(self):
        """The fixed-order merge contract of the sharded backend."""
        tasks = list(range(64))
        with ThreadExecutor(4) as ex:
            ex.broadcast("base", 0)
            assert ex.map_on("base", _payload_plus, tasks) == tasks


def _lane_workers(ex):
    """What a re-broadcast must leave in place: the thread pool, or the
    pids of the live process lanes (``None`` for serial)."""
    if isinstance(ex, ProcessExecutor):
        return [child.pid for child in ex._children if child.is_alive()]
    return getattr(ex, "_pool", None)


class TestFactoryDegreeValidation:
    """make_executor must reject degree < 1 loudly for *every* kind.

    The serial backend used to swallow a nonsensical degree silently (it
    ignores the argument), so misconfiguration only surfaced when the
    same flags were later pointed at a pool backend."""

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    @pytest.mark.parametrize("bad_degree", [0, -3])
    def test_degree_below_one_rejected_naming_the_kind(self, kind, bad_degree):
        workers = ["127.0.0.1:9"] if kind == "remote" else None
        with pytest.raises(ConfigurationError) as excinfo:
            make_executor(kind, bad_degree, workers=workers)
        message = str(excinfo.value)
        assert kind in message and "degree" in message

    def test_valid_degree_still_builds(self):
        with make_executor("thread", 1) as ex:
            assert ex.degree == 1


class TestCloseIdempotency:
    """Executor.close() must be safe to call any number of times."""

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_close_twice_after_broadcast(self, kind):
        ex = make_executor(kind, 2)
        ex.broadcast("base", [1, 2, 3])
        ex.close()
        ex.close()  # second close: no raise, no double-free
        with pytest.raises(ConfigurationError, match=f"{kind} executor"):
            ex.broadcast("other", 1)

    def test_thread_close_twice_after_pool_use(self):
        ex = ThreadExecutor(2)
        assert ex.map_tasks(_double_task, [1, 2]) == [2, 4]
        ex.close()
        ex.close()
        assert ex._pool is None

    def test_process_close_twice_stops_children_once(self):
        ex = ProcessExecutor(2)
        ex.broadcast("base", {"k": 1})
        children = list(ex._children)
        ex.close()
        assert not any(child.is_alive() for child in children)
        ex.close()  # finalizer already ran; must not raise
        assert not ex._finalizer.alive

    def test_remote_close_twice_without_ever_connecting(self):
        from repro.utils.parallel import RemoteExecutor

        ex = RemoteExecutor(["127.0.0.1:9"])  # lazy: no connection made
        ex.close()
        ex.close()
        with pytest.raises(ConfigurationError, match="remote executor"):
            ex.map_tasks(_double_task, [1])


class TestBroadcastStateCleanup:
    """Process lanes are reaped on garbage collection, and double/late
    releases stay silent."""

    def test_gc_without_close_reaps_children(self):
        import gc

        ex = ProcessExecutor(2)
        ex.broadcast("plan", list(range(50)))
        ex.broadcast("plan", list(range(60)))  # re-broadcast
        assert ex.map_on("plan", _payload_plus, [[1]]) == [list(range(60)) + [1]]
        children = list(ex._children)
        del ex
        gc.collect()
        assert not any(child.is_alive() for child in children)

    def test_release_broadcast_with_already_evicted_key_is_silent(self):
        """sharding._release_broadcast hits executors whose state may be
        long gone (closed pools, keys already released) — every combination
        must stay a no-op, because finalizers run at unpredictable times."""
        import weakref

        from repro.core.sharding import _release_broadcast

        live = SerialExecutor()
        live.broadcast("plan", 1)
        evicted = SerialExecutor()  # never held the key
        closed = SerialExecutor()
        closed.broadcast("plan", 2)
        closed.close()
        executors = weakref.WeakSet((live, evicted, closed))
        _release_broadcast(executors, "plan")
        assert live._resident == {}
        _release_broadcast(executors, "plan")  # double release: still silent
        _release_broadcast(weakref.WeakSet(), "plan")  # empty set: silent

    def test_release_on_closed_process_executor_is_silent(self):
        ex = ProcessExecutor(2)
        ex.broadcast("plan", 1)
        ex.close()
        ex.release("plan")  # state already evicted by close()
        ex.release("never-was")


class TestTables:
    def test_basic_layout(self):
        out = format_table(("a", "bb"), [(1, 2.5), (10, 0.125)])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "2.500" in out and "0.125" in out

    def test_title_and_bool(self):
        out = format_table(("x",), [(True,)], title="T")
        assert out.startswith("T\n")
        assert "yes" in out

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValidationError):
            format_table(("a", "b"), [(1,)])

    def test_custom_float_format(self):
        out = format_table(("v",), [(0.123456,)], float_format=".1f")
        assert "0.1" in out and "0.12" not in out

    def test_kv_block(self):
        out = format_kv_block([("key", 1), ("longer-key", "v")])
        assert "key" in out and "longer-key" in out
        assert format_kv_block([]) == ""
