"""Lane-resident shard transport (DESIGN.md §6 "Lane-resident shard state").

Contracts under test:

* **Bitwise parity** — the resident transport (shard kernels broadcast
  once per plan, per-sweep tasks carrying only posteriors) and the
  ship-per-task transport execute identical ops in identical order, so
  their results are bitwise equal for every executor kind and shard
  count, on both engines.
* **Transport shape** — after the one broadcast, no shard kernel ever
  rides inside a ``map_on`` task payload, however many sweeps run.
* **Eviction** — broadcast state is released on ``Executor.close()``
  (and on plan retirement via ``ShardedSweepKernel.evict``): no leaked
  lane memory between fits.
* **Auto backend** — ``CPAConfig.backend = "auto"`` picks fused below
  the measured volume crossover and sharded above it, sizing K from the
  volume and executor degree.
"""

import contextlib

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
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)

from tests.test_sharded import _assert_states_close, _random_problem
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


def _kernel_pair(seed, n_shards, **kwargs):
    items, workers, x, phi, kappa, e_log_psi = _random_problem(seed, **kwargs)
    resident = ShardedSweepKernel(
        items, workers, x, n_items=40, n_workers=25, n_shards=n_shards, resident=True
    )
    reship = ShardedSweepKernel(
        items, workers, x, n_items=40, n_workers=25, n_shards=n_shards, resident=False
    )
    return resident, reship, phi, kappa, e_log_psi


# ------------------------------------------------------------ kernel bitwise


class TestResidentKernelBitwise:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_all_consumers_bitwise_equal(self, kind, n_shards):
        resident, reship, phi, kappa, e_log_psi = _kernel_pair(21, n_shards)
        with _pool(kind) as pool:
            for kernel in (resident, reship):
                kernel.begin_sweep(e_log_psi)
            for method, args, shape in (
                ("add_worker_scores", (phi,), (25, 4)),
                ("add_item_scores", (kappa,), (40, 5)),
            ):
                out_a = getattr(resident, method)(np.zeros(shape), *args, pool)
                out_b = getattr(reship, method)(np.zeros(shape), *args, pool)
                np.testing.assert_array_equal(out_a, out_b)
            counts_a, mass_a = resident.cell_statistics(phi, kappa, pool)
            counts_b, mass_b = reship.cell_statistics(phi, kappa, pool)
            np.testing.assert_array_equal(counts_a, counts_b)
            np.testing.assert_array_equal(mass_a, mass_b)
            assert resident.data_elbo(phi, kappa, e_log_psi, pool) == reship.data_elbo(
                phi, kappa, e_log_psi, pool
            )

    def test_default_serial_fallback_stays_ship_per_task(self):
        """Calls without an executor must not pin state into the shared
        module-level serial default (that executor outlives every plan)."""
        from repro.core import sharding

        resident, _, phi, _, e_log_psi = _kernel_pair(22, 3)
        resident.begin_sweep(e_log_psi)
        resident.add_worker_scores(np.zeros((25, 4)), phi)  # no executor arg
        assert sharding._SERIAL._resident == {}
        assert len(resident._installed) == 0


# -------------------------------------------------------------- engine parity


class TestResidentEngineParity:
    """1e-10 trajectory parity (bitwise, in fact) for both engines."""

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_batch_vi_trajectories(self, tiny_dataset, kind, n_shards):
        config = CPAConfig(seed=4, max_iterations=6, backend="sharded", n_shards=n_shards)
        with _pool(kind) as pool_a, _pool(kind) as pool_b:
            resident = VariationalInference(config, tiny_dataset.answers, executor=pool_a)
            reship = VariationalInference(
                config.with_overrides(resident_shards=False),
                tiny_dataset.answers,
                executor=pool_b,
            )
            for _ in range(3):
                delta_a = resident.sweep()
                delta_b = reship.sweep()
                assert delta_a == delta_b
                _assert_states_close(resident.state, reship.state, dict(atol=0, rtol=0))
            assert resident.elbo() == reship.elbo()

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_svi_stream_trajectories(self, tiny_dataset, kind, n_shards):
        config = CPAConfig(
            seed=6, svi_iterations=1, backend="sharded", n_shards=n_shards
        )
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=80, seed=9)
        with _pool(kind) as pool_a, _pool(kind) as pool_b:
            resident = StochasticInference(config, *sizes, executor=pool_a)
            reship = StochasticInference(
                config.with_overrides(resident_shards=False), *sizes, executor=pool_b
            )
            for batch in batches:
                resident.process_batch(batch)
                reship.process_batch(batch)
            _assert_states_close(resident.state, reship.state, dict(atol=0, rtol=0))


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

    def test_reship_mode_never_broadcasts(self, tiny_dataset):
        pool = _RecordingExecutor()
        config = CPAConfig(
            seed=1, backend="sharded", n_shards=3, resident_shards=False
        )
        engine = VariationalInference(config, tiny_dataset.answers, executor=pool)
        engine.sweep()
        assert pool.broadcasts == []
        assert pool.map_on_tasks == []


# ------------------------------------------------------------------ eviction


class TestEviction:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_close_releases_in_process_state(self, kind):
        resident, _, phi, _, e_log_psi = _kernel_pair(23, 2)
        pool = make_executor(kind, 2)
        resident.begin_sweep(e_log_psi)
        resident.add_worker_scores(np.zeros((25, 4)), phi, pool)
        assert pool._resident  # plan is lane-resident
        pool.close()
        assert pool._resident == {}  # evicted with the pool
        with pytest.raises(ConfigurationError, match=f"{kind} executor"):
            resident.add_worker_scores(np.zeros((25, 4)), phi, pool)

    def test_close_releases_process_state_and_scratch_files(self):
        import os

        resident, _, phi, _, e_log_psi = _kernel_pair(24, 2)
        pool = ProcessExecutor(2)
        resident.begin_sweep(e_log_psi)
        resident.add_worker_scores(np.zeros((25, 4)), phi, pool)
        scratch = pool._scratch_dir
        assert scratch is not None and os.path.isdir(scratch)
        assert pool._resident_paths
        pool.close()
        assert pool._resident_paths == {}
        assert pool._scratch_dir is None
        assert not os.path.exists(scratch)  # spill files gone with the state

    def test_kernel_evict_releases_between_fits(self):
        """Two successive plans on one executor: retiring the first must
        leave no trace of it behind (the SVI per-batch pattern)."""
        pool = SerialExecutor()
        first, _, phi, _, e_log_psi = _kernel_pair(25, 2)
        first.begin_sweep(e_log_psi)
        first.add_worker_scores(np.zeros((25, 4)), phi, pool)
        assert len(pool._resident) == 1
        first.evict()
        assert pool._resident == {}
        second, _, phi2, _, e_log_psi2 = _kernel_pair(26, 3)
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

    def test_abandoned_process_executor_cleans_its_scratch_dir(self):
        """A ProcessExecutor dropped without close() must not leak its
        spilled broadcast payloads on disk."""
        import gc
        import os

        ex = ProcessExecutor(2)
        ex.broadcast("plan", {"big": list(range(100))})
        scratch = ex._scratch_dir
        assert scratch is not None and os.path.isdir(scratch)
        del ex
        gc.collect()
        assert not os.path.exists(scratch)

    def test_dead_kernels_are_retired_by_their_finalizer(self):
        """Successive offline fits on one long-lived executor must not
        accumulate dead plans: collecting a kernel releases its state."""
        import gc

        pool = SerialExecutor()
        for _ in range(3):
            kernel, _, phi, _, e_log_psi = _kernel_pair(29, 2)
            kernel.begin_sweep(e_log_psi)
            kernel.add_worker_scores(np.zeros((25, 4)), phi, pool)
            assert len(pool._resident) == 1
            del kernel
            gc.collect()
            assert pool._resident == {}
        pool.close()

    def test_rebroadcast_after_eviction_recovers(self):
        """A kernel whose state was evicted re-installs on next use."""
        resident, _, phi, _, e_log_psi = _kernel_pair(27, 2)
        pool = SerialExecutor()
        resident.begin_sweep(e_log_psi)
        out_a = resident.add_worker_scores(np.zeros((25, 4)), phi, pool)
        resident.evict()
        out_b = resident.add_worker_scores(np.zeros((25, 4)), phi, pool)
        np.testing.assert_array_equal(out_a, out_b)
        assert len(pool._resident) == 1


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
