"""Lane-resident shard transport (DESIGN.md §6 "Lane-resident shard state").

Contracts under test:

* **Bitwise parity** — a plan run on an executor (shard kernels
  broadcast once per plan, per-sweep tasks carrying only posteriors)
  executes the same task functions in the same order as the same plan
  run with no executor, so their results are bitwise equal for every
  executor kind and shard count, on both engines.
* **Transport shape** — after the one broadcast, no shard kernel ever
  rides inside a ``map_on`` task payload, however many sweeps run.
* **Held rows** — a batch-VI sweep is two ``map_on`` calls, and its κ
  half names the ϕ rows each lane already holds by token instead of
  sending them; a lane that lost them costs one resend with the rows and
  changes no bit of the fit.
* **Eviction** — broadcast state is released on ``Executor.close()``
  (and on plan retirement via ``ShardedSweepKernel.evict``): no leaked
  lane memory between fits, and no process lane outlives its executor.
* **Auto backend** — ``CPAConfig.backend = "auto"`` picks fused below
  the measured volume crossover and sharded above it, sizing K from the
  volume and executor degree.
"""

import contextlib
import os
import signal

import numpy as np
import pytest

from repro.core.config import CPAConfig
from repro.core.inference import VariationalInference
from repro.core.kernels import (
    SHARDED_MIN_ANSWERS,
    SHARDED_MIN_ANSWERS_PARALLEL,
    SweepKernel,
    auto_shard_count,
    sharded_pays_off,
)
from repro.core.sharding import ShardedSweepKernel, build_sweep_kernel
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.errors import ConfigurationError
from repro.utils.parallel import (
    ProcessExecutor,
    RemoteExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)

from repro.utils.transport import WorkerServer

from tests.test_sharded import (
    _assert_states_close,
    _random_problem,
    _wide_sparse_matrix,
)
from tests.transport_harness import worker_fleet

SHARD_COUNTS = [1, 2, 7]
EXECUTOR_KINDS = [
    "serial",
    "thread",
    "process",
    # loopback TCP daemons: the multi-node transport must sit in the same
    # parity matrix as the in-process lanes (skip with -m "not network")
    pytest.param("remote", marks=pytest.mark.network),
]


@contextlib.contextmanager
def _pool(kind, degree=2):
    """An executor of ``kind`` — for ``"remote"``, over fresh loopback
    worker daemons whose lifetime is scoped to the context."""
    if kind == "remote":
        with worker_fleet(degree) as servers:
            executor = make_executor(
                "remote", workers=[server.address for server in servers]
            )
            try:
                yield executor
            finally:
                executor.close()
    else:
        with make_executor(kind, degree) as executor:
            yield executor


def _kernel(seed, n_shards, **kwargs):
    items, workers, x, phi, kappa, e_log_psi = _random_problem(seed, **kwargs)
    kernel = ShardedSweepKernel(
        items, workers, x, n_items=40, n_workers=25, n_shards=n_shards
    )
    return kernel, phi, kappa, e_log_psi


@pytest.fixture
def no_executor(monkeypatch):
    """Engines built in this test without an explicit executor hand their
    kernels ``executor=None`` — the in-process path every lane must match."""
    monkeypatch.setattr(CPAConfig, "resolve_executor", lambda self: None)


# ------------------------------------------------------------ kernel bitwise


class TestResidentKernelBitwise:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_all_consumers_bitwise_equal(self, kind, n_shards):
        lanes, phi, kappa, e_log_psi = _kernel(21, n_shards)
        local, *_ = _kernel(21, n_shards)
        with _pool(kind) as pool:
            for kernel in (lanes, local):
                kernel.begin_sweep(e_log_psi)
            for method, args, shape in (
                ("add_worker_scores", (phi,), (25, 4)),
                ("add_item_scores", (kappa,), (40, 5)),
            ):
                out_a = getattr(lanes, method)(np.zeros(shape), *args, pool)
                out_b = getattr(local, method)(np.zeros(shape), *args)
                np.testing.assert_array_equal(out_a, out_b)
            counts_a, mass_a = lanes.cell_statistics(phi, kappa, pool)
            counts_b, mass_b = local.cell_statistics(phi, kappa)
            np.testing.assert_array_equal(counts_a, counts_b)
            np.testing.assert_array_equal(mass_a, mass_b)
            assert lanes.data_elbo(phi, kappa, e_log_psi, pool) == local.data_elbo(
                phi, kappa, e_log_psi
            )
            assert len(lanes._installed) == 1  # broadcast once, then map_on
        assert len(local._installed) == 0

    def test_no_executor_broadcasts_nothing(self):
        """Calls without an executor run the task functions in-process and
        install the plan nowhere."""
        kernel, phi, _, e_log_psi = _kernel(22, 3)
        kernel.begin_sweep(e_log_psi)
        kernel.add_worker_scores(np.zeros((25, 4)), phi)  # no executor arg
        assert len(kernel._installed) == 0


# -------------------------------------------------------------- engine parity


class TestResidentEngineParity:
    """Every executor kind is bitwise equal to the no-executor path."""

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_batch_vi_trajectories(self, tiny_dataset, no_executor, kind, n_shards):
        config = CPAConfig(seed=4, max_iterations=6, backend="sharded", n_shards=n_shards)
        local = VariationalInference(config, tiny_dataset.answers)
        assert local.executor is None
        with _pool(kind) as pool:
            lanes = VariationalInference(config, tiny_dataset.answers, executor=pool)
            for _ in range(3):
                assert lanes.sweep() == local.sweep()
                _assert_states_close(lanes.state, local.state, dict(atol=0, rtol=0))
            assert lanes.elbo() == local.elbo()

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_svi_stream_trajectories(self, tiny_dataset, no_executor, kind, n_shards):
        config = CPAConfig(
            seed=6, svi_iterations=1, backend="sharded", n_shards=n_shards
        )
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=80, seed=9)
        local = StochasticInference(config, *sizes)
        assert local.executor is None
        with _pool(kind) as pool:
            lanes = StochasticInference(config, *sizes, executor=pool)
            for batch in batches:
                lanes.process_batch(batch)
                local.process_batch(batch)
            _assert_states_close(lanes.state, local.state, dict(atol=0, rtol=0))


# ----------------------------------------------------------- transport shape


class _RecordingExecutor(SerialExecutor):
    """Serial executor that records broadcast/map_on traffic."""

    def __init__(self):
        super().__init__()
        self.broadcasts = []
        self.map_on_tasks = []

    def broadcast(self, key, payload):
        self.broadcasts.append((key, payload))
        super().broadcast(key, payload)

    def map_on(self, key, func, tasks):
        self.map_on_tasks.extend(tasks)
        return super().map_on(key, func, tasks)


def _contains_kernel(obj) -> bool:
    if isinstance(obj, (SweepKernel, ShardedSweepKernel)):
        return True
    if isinstance(obj, (tuple, list)):
        return any(_contains_kernel(part) for part in obj)
    return False


class TestTransportShape:
    def test_kernels_ship_once_per_plan_and_never_per_sweep(self, tiny_dataset):
        pool = _RecordingExecutor()
        config = CPAConfig(seed=1, backend="sharded", n_shards=3)
        engine = VariationalInference(config, tiny_dataset.answers, executor=pool)
        for _ in range(4):
            engine.sweep()
        engine.elbo()
        # exactly one broadcast, carrying every shard kernel
        assert len(pool.broadcasts) == 1
        assert all(_contains_kernel((s.kernel,)) for s in pool.broadcasts[0][1])
        # per-sweep tasks carry shard indices + posterior arrays, no kernels
        assert pool.map_on_tasks, "sweeps must route through the resident path"
        assert not any(_contains_kernel(task) for task in pool.map_on_tasks)


# ------------------------------------------------------------------ eviction


class TestEviction:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_close_releases_in_process_state(self, kind):
        kernel, phi, _, e_log_psi = _kernel(23, 2)
        pool = make_executor(kind, 2)
        kernel.begin_sweep(e_log_psi)
        kernel.add_worker_scores(np.zeros((25, 4)), phi, pool)
        assert pool._resident  # plan is lane-resident
        pool.close()
        assert pool._resident == {}  # evicted with the pool
        with pytest.raises(ConfigurationError, match=f"{kind} executor"):
            kernel.add_worker_scores(np.zeros((25, 4)), phi, pool)

    def test_close_releases_process_state_and_children(self):
        kernel, phi, _, e_log_psi = _kernel(24, 2)
        pool = ProcessExecutor(2)
        kernel.begin_sweep(e_log_psi)
        kernel.add_worker_scores(np.zeros((25, 4)), phi, pool)
        assert pool._payloads  # plan is lane-resident
        children = list(pool._children)
        assert all(child.is_alive() for child in children)
        pool.close()
        assert pool._payloads == {}
        assert not any(child.is_alive() for child in children)

    def test_kernel_evict_releases_between_fits(self):
        """Two successive plans on one executor: retiring the first must
        leave no trace of it behind (the SVI per-batch pattern)."""
        pool = SerialExecutor()
        first, phi, _, e_log_psi = _kernel(25, 2)
        first.begin_sweep(e_log_psi)
        first.add_worker_scores(np.zeros((25, 4)), phi, pool)
        assert len(pool._resident) == 1
        first.evict()
        assert pool._resident == {}
        second, phi2, _, e_log_psi2 = _kernel(26, 3)
        second.begin_sweep(e_log_psi2)
        second.add_worker_scores(np.zeros((25, 4)), phi2, pool)
        assert len(pool._resident) == 1  # only the live plan remains
        pool.close()
        assert pool._resident == {}

    def test_svi_stream_retires_previous_batch_plans(self, tiny_dataset):
        config = CPAConfig(seed=2, svi_iterations=1, backend="sharded", n_shards=2)
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        pool = SerialExecutor()
        engine = StochasticInference(config, *sizes, executor=pool)
        for batch in stream_from_matrix(
            tiny_dataset.answers, answers_per_batch=60, seed=3
        ):
            engine.process_batch(batch)
            # at most the current batch's plan is resident
            assert len(pool._resident) <= 1

    def test_auto_stream_retires_sharded_plan_when_tail_goes_fused(self, tiny_dataset):
        """Auto mode: a bulk sharded batch must not stay lane-resident
        through a fused-only tail of the stream."""
        import repro.core.kernels as kernels

        config = CPAConfig(seed=2, svi_iterations=1, backend="auto")
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        pool = SerialExecutor()
        engine = StochasticInference(config, *sizes, executor=pool)
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=60, seed=3)
        # force the first batch over the crossover so it runs sharded
        original = kernels.SHARDED_MIN_ANSWERS
        kernels.SHARDED_MIN_ANSWERS = 1
        try:
            engine.process_batch(batches[0])
            assert isinstance(engine._batch_kernel_cache[1], ShardedSweepKernel)
            assert len(pool._resident) == 1
        finally:
            kernels.SHARDED_MIN_ANSWERS = original
        engine.process_batch(batches[1])  # resolves fused at real thresholds
        # sharded plan retired...
        assert not isinstance(engine._batch_kernel_cache[1], ShardedSweepKernel)
        assert pool._resident == {}  # ...and released from the lanes

    def test_abandoned_process_executor_reaps_its_children(self):
        """A ProcessExecutor dropped without close() must not leak its
        lane processes (or the payloads they hold)."""
        import gc

        ex = ProcessExecutor(2)
        ex.broadcast("plan", {"big": list(range(100))})
        children = list(ex._children)
        assert all(child.is_alive() for child in children)
        del ex
        gc.collect()
        assert not any(child.is_alive() for child in children)

    def test_dead_kernels_are_retired_by_their_finalizer(self):
        """Successive offline fits on one long-lived executor must not
        accumulate dead plans: collecting a kernel releases its state."""
        import gc

        pool = SerialExecutor()
        for _ in range(3):
            kernel, phi, _, e_log_psi = _kernel(29, 2)
            kernel.begin_sweep(e_log_psi)
            kernel.add_worker_scores(np.zeros((25, 4)), phi, pool)
            assert len(pool._resident) == 1
            del kernel
            gc.collect()
            assert pool._resident == {}
        pool.close()

    def test_rebroadcast_after_eviction_recovers(self):
        """A kernel whose state was evicted re-installs on next use."""
        kernel, phi, _, e_log_psi = _kernel(27, 2)
        pool = SerialExecutor()
        kernel.begin_sweep(e_log_psi)
        out_a = kernel.add_worker_scores(np.zeros((25, 4)), phi, pool)
        kernel.evict()
        out_b = kernel.add_worker_scores(np.zeros((25, 4)), phi, pool)
        np.testing.assert_array_equal(out_a, out_b)
        assert len(pool._resident) == 1


# --------------------------------------------------------- process-lane faults


def _kill_lane(executor, index=0):
    """SIGKILL one process lane and wait until it is gone."""
    child = executor._children[index]
    os.kill(child.pid, signal.SIGKILL)
    child.join(timeout=10)
    assert not child.is_alive()


class TestProcessLaneFaults:
    """A process lane that dies is excluded like a remote daemon that
    stays down: its tasks land on the survivor, and results stay bitwise
    equal to the serial executor."""

    def test_batch_vi_survives_a_lane_kill_between_sweeps(self, tiny_dataset):
        config = CPAConfig(seed=4, max_iterations=6, backend="sharded", n_shards=2)
        serial = VariationalInference(
            config, tiny_dataset.answers, executor=SerialExecutor()
        )
        with make_executor("process", 2) as pool:
            lanes = VariationalInference(config, tiny_dataset.answers, executor=pool)
            for _ in range(3):
                assert lanes.sweep() == serial.sweep()
            assert pool.degree == 2
            _kill_lane(pool)
            for _ in range(3):
                assert lanes.sweep() == serial.sweep()
            assert pool.degree == 1
            assert lanes.elbo() == serial.elbo()
            _assert_states_close(lanes.state, serial.state, dict(atol=0, rtol=0))

    def test_svi_stream_survives_a_lane_kill_mid_stream(self, tiny_dataset):
        config = CPAConfig(seed=6, svi_iterations=1, backend="sharded", n_shards=2)
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=80, seed=9)
        serial = StochasticInference(config, *sizes, executor=SerialExecutor())
        with make_executor("process", 2) as pool:
            lanes = StochasticInference(config, *sizes, executor=pool)
            half = len(batches) // 2
            for index, batch in enumerate(batches):
                if index == half:
                    assert pool.degree == 2
                    _kill_lane(pool, 1)
                lanes.process_batch(batch)
                serial.process_batch(batch)
            assert pool.degree == 1
            _assert_states_close(lanes.state, serial.state, dict(atol=0, rtol=0))


# ------------------------------------------------------------------ held rows


class _CountingRemote(RemoteExecutor):
    """Remote executor that counts its ``map_on`` calls and runs
    ``after[n]()`` once call ``n`` returned."""

    def __init__(self, workers, after=None, **kwargs):
        super().__init__(workers, **kwargs)
        self.map_on_calls = 0
        self.after = dict(after or {})

    def map_on(self, key, func, tasks):
        self.map_on_calls += 1
        results = super().map_on(key, func, tasks)
        hook = self.after.pop(self.map_on_calls, None)
        if hook is not None:
            hook()
        return results


#: many items over few workers and small truncations: one shard's ϕ rows
#: outweigh everything a steady-state sweep sends to both lanes.
HELD_CONFIG = CPAConfig(
    seed=2,
    backend="sharded",
    n_shards=2,
    truncation_clusters=10,
    truncation_communities=5,
    max_iterations=4,
)


@pytest.mark.network
class TestHeldRows:
    SWEEPS = 4

    def test_a_sweep_is_two_lane_calls_and_sends_no_phi_rows(self):
        matrix, _ = _wide_sparse_matrix()
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([s.address for s in servers])
            engine = VariationalInference(HELD_CONFIG, matrix, executor=executor)
            for _ in range(self.SWEEPS - 1):
                engine.sweep()
            sent = executor.sent_bytes
            engine.sweep()
            sent = executor.sent_bytes - sent
            # the init statistics pass, then the κ and ϕ halves per sweep
            assert [s.op_counts["map_on"] for s in servers] == [
                1 + 2 * self.SWEEPS
            ] * 2
            shard_rows = min(
                engine.state.phi[shard.item_ids].nbytes
                for shard in engine.kernel.plan.shards
            )
            assert sent < shard_rows
            executor.close()

    @pytest.mark.parametrize("loss", ["plan_evicted", "cold_replacement"])
    def test_a_lane_that_lost_its_rows_costs_one_resend(self, no_executor, loss):
        matrix, _ = _wide_sparse_matrix()
        local = VariationalInference(HELD_CONFIG, matrix)
        with worker_fleet(2) as servers:
            executor = _CountingRemote([s.address for s in servers])
            lanes = VariationalInference(HELD_CONFIG, matrix, executor=executor)
            replacement = None
            try:
                for sweep in range(self.SWEEPS):
                    if sweep == 2 and loss == "plan_evicted":
                        servers[0].registry.drop_payloads()
                    if sweep == 2 and loss == "cold_replacement":
                        servers[0].kill()
                        replacement = WorkerServer(
                            host=servers[0].host, port=servers[0].port
                        ).serve_in_thread()
                    assert lanes.sweep() == local.sweep()
                # one extra call: the κ half resent with the rows
                assert executor.map_on_calls == 1 + 2 * self.SWEEPS + 1
                assert len(executor.live_workers()) == 2
                _assert_states_close(lanes.state, local.state, dict(atol=0, rtol=0))
            finally:
                executor.close()
                if replacement is not None:
                    replacement.close()

    @pytest.mark.parametrize("loss", ["plan_evicted", "cold_replacement"])
    def test_a_lane_that_lost_its_sweep_views_costs_one_resend(
        self, no_executor, loss
    ):
        """The ϕ half names the ``E[ln ψ]`` views the κ half left on each
        lane; a lane that lost them between the halves costs one resend of
        the ϕ half with ``E[ln ψ]``, and the fit stays bitwise equal."""
        matrix, _ = _wide_sparse_matrix()
        local = VariationalInference(HELD_CONFIG, matrix)
        with worker_fleet(2) as servers:
            replacements = []

            def lose():
                if loss == "plan_evicted":
                    servers[0].registry.drop_payloads()
                else:
                    servers[0].kill()
                    replacements.append(
                        WorkerServer(
                            host=servers[0].host, port=servers[0].port
                        ).serve_in_thread()
                    )

            # call 1 is the init statistics pass, then two per sweep: lose
            # the views after the κ half of the third sweep
            executor = _CountingRemote(
                [s.address for s in servers], after={1 + 2 * 2 + 1: lose}
            )
            lanes = VariationalInference(HELD_CONFIG, matrix, executor=executor)
            try:
                for _ in range(self.SWEEPS):
                    assert lanes.sweep() == local.sweep()
                assert not executor.after
                assert executor.map_on_calls == 1 + 2 * self.SWEEPS + 1
                assert len(executor.live_workers()) == 2
                _assert_states_close(lanes.state, local.state, dict(atol=0, rtol=0))
            finally:
                executor.close()
                for replacement in replacements:
                    replacement.close()

    def test_a_sweep_sends_e_log_psi_once(self, monkeypatch):
        """A batch-VI sweep over lanes rearranges each shard's ``E[ln ψ]``
        once: the κ half carries it, the ϕ half names the views."""
        matrix, _ = _wide_sparse_matrix()
        calls = []
        real = SweepKernel.begin_sweep

        def counting(kernel, e_log_psi):
            calls.append(kernel.n_items)
            return real(kernel, e_log_psi)

        monkeypatch.setattr(SweepKernel, "begin_sweep", counting)
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([s.address for s in servers])
            engine = VariationalInference(HELD_CONFIG, matrix, executor=executor)
            try:
                for _ in range(self.SWEEPS):
                    engine.sweep()
            finally:
                executor.close()
        assert len(calls) == engine.kernel.n_shards * self.SWEEPS


# -------------------------------------------------------------- auto backend


class TestAutoBackend:
    def test_thresholds_bracket_the_measured_crossover(self):
        # BENCH_core.json: sharded ~0.9x fused at 50k (parity), 0.57x at
        # 200k; the serial rule must sit between those measurements.
        assert 50_000 < SHARDED_MIN_ANSWERS <= 200_000
        assert SHARDED_MIN_ANSWERS_PARALLEL < SHARDED_MIN_ANSWERS

    def test_sharded_pays_off_rule(self):
        assert not sharded_pays_off(10_000, degree=1)
        assert sharded_pays_off(200_000, degree=1)
        assert sharded_pays_off(30_000, degree=4)
        assert not sharded_pays_off(10_000, degree=4)

    def test_auto_shard_count_scales_with_volume_and_degree(self):
        assert auto_shard_count(200_000, degree=1) == 4  # the tracked config
        assert auto_shard_count(200_000, degree=8) == 8  # lanes all get work
        assert auto_shard_count(30_000_000, degree=1) == 16  # volume capped
        assert auto_shard_count(30_000_000, degree=32) == 32  # lanes beat the cap
        assert auto_shard_count(60_000, degree=1) == 1

    def test_resolve_backend_passthrough_and_auto(self):
        fused = CPAConfig(backend="fused")
        sharded = CPAConfig(backend="sharded", n_shards=5)
        auto = CPAConfig(backend="auto")
        assert fused.resolve_backend(10**9, 8) == ("fused", 0)
        assert sharded.resolve_backend(10, 1) == ("sharded", 5)
        assert auto.resolve_backend(1_000, 1) == ("fused", 0)
        assert auto.resolve_backend(200_000, 1) == ("sharded", 4)
        # explicit n_shards pins K even in auto mode
        assert CPAConfig(backend="auto", n_shards=3).resolve_backend(200_000, 1) == (
            "sharded",
            3,
        )

    def test_factory_selects_by_volume(self):
        items, workers, x, *_ = _random_problem(28)
        config = CPAConfig(backend="auto")
        small = build_sweep_kernel(config, items, workers, x, n_items=40, n_workers=25)
        assert isinstance(small, SweepKernel)  # 400 answers: fused
        with ThreadExecutor(2) as pool:
            # fake volume over the parallel crossover by replicating rows
            reps = (SHARDED_MIN_ANSWERS_PARALLEL // items.size) + 1
            big_items = np.tile(items, reps)
            big_workers = np.tile(workers, reps)
            big_x = np.tile(x, (reps, 1))
            big = build_sweep_kernel(
                config, big_items, big_workers, big_x,
                n_items=40, n_workers=25, executor=pool,
            )
        assert isinstance(big, ShardedSweepKernel)
        assert big.n_shards >= 1

    def test_auto_validates_and_lists_choices(self):
        with pytest.raises(ConfigurationError, match="auto"):
            CPAConfig(backend="gpu")

    def test_auto_engines_match_explicit_selection(self, tiny_dataset):
        """On a tiny matrix, auto must behave exactly like fused."""
        fused = VariationalInference(CPAConfig(seed=0), tiny_dataset.answers)
        auto = VariationalInference(
            CPAConfig(seed=0, backend="auto"), tiny_dataset.answers
        )
        assert isinstance(auto.kernel, SweepKernel)
        for _ in range(3):
            assert auto.sweep() == fused.sweep()
        _assert_states_close(fused.state, auto.state, dict(atol=0, rtol=0))

    def test_auto_replan_keeps_the_fresh_plan_rule(self, tiny_dataset, monkeypatch):
        """Lanes joining or leaving re-plan an auto-sized plan to the K a
        fresh plan takes at the new degree (one shard per
        ``SHARDED_ANSWERS_PER_SHARD`` answers, at least one per lane),
        not to one shard per lane."""
        import repro.core.kernels as kernels

        monkeypatch.setattr(kernels, "SHARDED_MIN_ANSWERS", 100)
        monkeypatch.setattr(kernels, "SHARDED_MIN_ANSWERS_PARALLEL", 100)
        monkeypatch.setattr(kernels, "SHARDED_ANSWERS_PER_SHARD", 50)
        config = CPAConfig(seed=0, backend="auto")

        def serial_with_degree(degree):
            executor = SerialExecutor()
            executor.degree = degree
            return executor

        def fresh_k(degree):
            return VariationalInference(
                config, tiny_dataset.answers, executor=serial_with_degree(degree)
            ).kernel.n_shards

        executor = serial_with_degree(2)
        engine = VariationalInference(config, tiny_dataset.answers, executor=executor)
        assert engine.kernel.n_shards == 6  # 300 answers / 50 per shard
        for degree in (3, 1):  # a lane joins, then two leave
            executor.degree = degree
            engine.sweep()
            assert isinstance(engine.kernel, ShardedSweepKernel)
            assert engine.kernel.n_shards == fresh_k(degree)

    def test_auto_svi_routes_small_batches_fused(self, tiny_dataset):
        config = CPAConfig(seed=1, svi_iterations=1, backend="auto")
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        fused_engine = StochasticInference(CPAConfig(seed=1, svi_iterations=1), *sizes)
        auto_engine = StochasticInference(config, *sizes)
        for batch in stream_from_matrix(
            tiny_dataset.answers, answers_per_batch=60, seed=5
        ):
            fused_engine.process_batch(batch)
            auto_engine.process_batch(batch)
            # never went sharded, so nothing was broadcast to the lanes
            assert not isinstance(
                auto_engine._batch_kernel_cache[1], ShardedSweepKernel
            )
            assert auto_engine.executor._resident == {}
        _assert_states_close(fused_engine.state, auto_engine.state, dict(atol=0, rtol=0))
