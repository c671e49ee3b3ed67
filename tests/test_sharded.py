"""Shard-parity harness for the sharded sweep backend (DESIGN.md §6).

The contract under test: for any shard count ``K`` and any executor
kind, ``backend="sharded"`` must reproduce the fused serial path's
trajectories — κ, ϕ, λ, per-sweep deltas, and the ELBO — within
``1e-10`` on fixed seeds, for **both** engines.  Additionally the
sharded path itself must be bitwise deterministic across executors
(partials merge in fixed shard order regardless of scheduling), shard
plans must partition the answers exactly, and every shard payload must
survive pickling (process-pool transport).
"""

import pickle

import numpy as np
import pytest

from repro.core.config import CPAConfig
from repro.core.inference import VariationalInference
from repro.core.kernels import SweepKernel
from repro.core.sharding import (
    ShardedSweepKernel,
    ShardPlan,
    build_sweep_kernel,
    merge_cell_statistics,
)
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.utils.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)

PARITY = dict(atol=1e-10, rtol=0)
#: cross-executor determinism: same ops in the same order, so no slack
#: beyond a guard digit for BLAS-internal scheduling.
EXACT = dict(atol=1e-13, rtol=0)

SHARD_COUNTS = [1, 2, 7]


def _random_problem(seed, n=400, n_items=40, n_workers=25, n_labels=8, t=5, m=4):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, n_items, size=n)
    workers = rng.integers(0, n_workers, size=n)
    pool = (rng.random((12, n_labels)) < 0.35).astype(float)
    pool[pool.sum(axis=1) == 0, 0] = 1.0
    indicators = pool[rng.integers(0, 12, size=n)]
    phi = rng.dirichlet(np.ones(t), size=n_items)
    kappa = rng.dirichlet(np.ones(m), size=n_workers)
    e_log_psi = np.log(rng.dirichlet(np.ones(n_labels), size=(t, m)))
    return items, workers, indicators, phi, kappa, e_log_psi


def _assert_states_close(a, b, tolerances=PARITY):
    np.testing.assert_allclose(a.kappa, b.kappa, **tolerances)
    np.testing.assert_allclose(a.phi, b.phi, **tolerances)
    np.testing.assert_allclose(a.lam, b.lam, **tolerances)
    np.testing.assert_allclose(a.cell_mass, b.cell_mass, **tolerances)
    np.testing.assert_allclose(a.zeta, b.zeta, **tolerances)
    np.testing.assert_allclose(a.rho, b.rho, **tolerances)
    np.testing.assert_allclose(a.ups, b.ups, **tolerances)


# ----------------------------------------------------------------- shard plan


class TestShardPlan:
    def _plan(self, seed=0, n_shards=3, **kwargs):
        items, workers, x, *_ = _random_problem(seed, **kwargs)
        return (
            items,
            workers,
            x,
            ShardPlan(items, workers, x, n_items=40, n_workers=25, n_shards=n_shards),
        )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_partition_is_exact(self, n_shards):
        """Every answer lands in exactly one shard, content preserved."""
        items, workers, x, _ = self._plan()
        plan = ShardPlan(items, workers, x, n_items=40, n_workers=25, n_shards=n_shards)
        seen = []
        for shard in plan.shards:
            kernel = shard.kernel
            for local_item, local_worker, row in zip(
                kernel.items, kernel.workers, kernel.indicators
            ):
                seen.append(
                    (
                        int(shard.item_ids[local_item]),
                        int(shard.worker_ids[local_worker]),
                        tuple(row.astype(int)),
                    )
                )
        expected = sorted(
            (int(i), int(u), tuple(r.astype(int)))
            for i, u, r in zip(items, workers, x)
        )
        assert sorted(seen) == expected

    def test_item_sets_are_disjoint(self):
        _, _, _, plan = self._plan(n_shards=5)
        all_items = np.concatenate([shard.item_ids for shard in plan.shards])
        assert all_items.size == np.unique(all_items).size

    def test_single_shard_covers_everything(self):
        items, workers, x, _ = self._plan()
        plan = ShardPlan(items, workers, x, n_items=40, n_workers=25, n_shards=1)
        assert plan.n_shards == 1
        assert plan.shards[0].n_answers == items.size

    def test_oversharding_collapses_to_answered_items(self):
        items, workers, x, _ = self._plan()
        plan = ShardPlan(items, workers, x, n_items=40, n_workers=25, n_shards=1000)
        assert plan.n_shards <= np.unique(items).size
        assert sum(s.n_answers for s in plan.shards) == items.size

    def test_balanced_answer_counts(self):
        items, workers, x, _ = self._plan()
        plan = ShardPlan(items, workers, x, n_items=40, n_workers=25, n_shards=4)
        counts = [shard.n_answers for shard in plan.shards]
        # boundaries sit on item edges, so allow one max-degree item of slack
        per_item = np.bincount(items, minlength=40).max()
        assert max(counts) <= items.size / 4 + per_item

    def test_rejects_nonpositive_shard_count(self):
        from repro.errors import ValidationError

        items, workers, x, _ = self._plan()
        with pytest.raises(ValidationError):
            ShardPlan(items, workers, x, n_items=40, n_workers=25, n_shards=0)

    def test_shards_inherit_global_pattern_order(self):
        """Shard tables are lexicographic sub-tables of the global dedup."""
        items, workers, x, plan = self._plan(n_shards=3)
        reference = SweepKernel(items, workers, x, 40, 25)
        for shard in plan.shards:
            table = shard.kernel.patterns
            # rows strictly increasing lexicographically = sub-order preserved
            for j in range(table.shape[0] - 1):
                a, b = table[j], table[j + 1]
                assert tuple(a) < tuple(b)
            # every shard pattern exists in the global table
            global_rows = {tuple(row) for row in reference.patterns}
            assert {tuple(row) for row in table} <= global_rows


# ------------------------------------------------------------- kernel algebra


class TestShardedKernelAlgebra:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_scores_match_naive(self, n_shards):
        items, workers, x, phi, kappa, e_log_psi = _random_problem(5)
        kernel = ShardedSweepKernel(
            items, workers, x, n_items=40, n_workers=25, n_shards=n_shards
        )
        kernel.begin_sweep(e_log_psi)
        like = np.einsum("nc,tmc->ntm", x, e_log_psi)

        worker_scores = np.zeros((25, 4))
        kernel.add_worker_scores(worker_scores, phi)
        expected = np.zeros((25, 4))
        np.add.at(expected, workers, np.einsum("nt,ntm->nm", phi[items], like))
        np.testing.assert_allclose(worker_scores, expected, **PARITY)

        item_scores = np.zeros((40, 5))
        kernel.add_item_scores(item_scores, kappa)
        expected = np.zeros((40, 5))
        np.add.at(expected, items, np.einsum("nm,ntm->nt", kappa[workers], like))
        np.testing.assert_allclose(item_scores, expected, **PARITY)

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_cell_statistics_and_elbo_match_naive(self, n_shards):
        items, workers, x, phi, kappa, e_log_psi = _random_problem(6)
        kernel = ShardedSweepKernel(
            items, workers, x, n_items=40, n_workers=25, n_shards=n_shards
        )
        kernel.begin_sweep(e_log_psi)
        counts, mass = kernel.cell_statistics(phi, kappa)
        joint = phi[items][:, :, None] * kappa[workers][:, None, :]
        np.testing.assert_allclose(
            counts, np.einsum("ntm,nc->tmc", joint, x), **PARITY
        )
        np.testing.assert_allclose(mass, joint.sum(axis=0), **PARITY)
        like = np.einsum("nc,tmc->ntm", x, e_log_psi)
        assert kernel.data_elbo(phi, kappa, e_log_psi) == pytest.approx(
            float(np.sum(joint * like)), abs=1e-9
        )

    def test_unpatterned_fallback_skips_dedup_and_matches_naive(self):
        """patterned=False must skip the global row sort yet stay exact."""
        items, workers, x, phi, kappa, e_log_psi = _random_problem(10)
        kernel = ShardedSweepKernel(
            items, workers, x, n_items=40, n_workers=25, n_shards=3, patterned=False
        )
        assert kernel.n_patterns == 0  # no dedup was paid
        assert all(not s.kernel.patterned for s in kernel.plan.shards)
        kernel.begin_sweep(e_log_psi)
        like = np.einsum("nc,tmc->ntm", x, e_log_psi)
        worker_scores = kernel.add_worker_scores(np.zeros((25, 4)), phi)
        expected = np.zeros((25, 4))
        np.add.at(expected, workers, np.einsum("nt,ntm->nm", phi[items], like))
        np.testing.assert_allclose(worker_scores, expected, **PARITY)
        counts, mass = kernel.cell_statistics(phi, kappa)
        joint = phi[items][:, :, None] * kappa[workers][:, None, :]
        np.testing.assert_allclose(
            counts, np.einsum("ntm,nc->tmc", joint, x), **PARITY
        )

    def test_pattern_heavy_auto_fallback_skips_table_derivation(self):
        """Auto mode pins the direct path when dedup cannot pay off."""
        rng = np.random.default_rng(13)
        n, n_labels = 120, 30
        items = rng.integers(0, 20, size=n)
        workers = rng.integers(0, 10, size=n)
        x = (rng.random((n, n_labels)) < 0.5).astype(float)  # ~all rows distinct
        x[x.sum(axis=1) == 0, 0] = 1.0
        phi = rng.dirichlet(np.ones(4), size=20)
        kappa = rng.dirichlet(np.ones(3), size=10)
        e_log_psi = np.log(rng.dirichlet(np.ones(n_labels), size=(4, 3)))
        kernel = ShardedSweepKernel(items, workers, x, n_items=20, n_workers=10, n_shards=3)
        for shard in kernel.plan.shards:
            # shard kernels took the explicit patterned=False branch: no
            # per-shard row sort ran, no pattern tables were retained
            assert not shard.kernel.patterned
            assert shard.kernel.n_patterns == 0
            assert shard.kernel.patterns.shape[0] == 0
        kernel.begin_sweep(e_log_psi)
        out = kernel.add_worker_scores(np.zeros((10, 3)), phi)
        like = np.einsum("nc,tmc->ntm", x, e_log_psi)
        expected = np.zeros((10, 3))
        np.add.at(expected, workers, np.einsum("nt,ntm->nm", phi[items], like))
        np.testing.assert_allclose(out, expected, **PARITY)

    def test_requires_begin_sweep(self):
        from repro.errors import InferenceError

        items, workers, x, phi, kappa, _ = _random_problem(7)
        kernel = ShardedSweepKernel(items, workers, x, n_items=40, n_workers=25)
        with pytest.raises(InferenceError):
            kernel.add_worker_scores(np.zeros((25, 4)), phi)
        with pytest.raises(InferenceError):
            kernel.add_item_scores(np.zeros((40, 5)), kappa)

    def test_factory_selects_backend(self):
        items, workers, x, *_ = _random_problem(8)
        fused_cfg = CPAConfig()
        sharded_cfg = CPAConfig(backend="sharded", n_shards=3)
        fused = build_sweep_kernel(
            fused_cfg, items, workers, x, n_items=40, n_workers=25
        )
        sharded = build_sweep_kernel(
            sharded_cfg, items, workers, x, n_items=40, n_workers=25
        )
        assert isinstance(fused, SweepKernel)
        assert isinstance(sharded, ShardedSweepKernel)
        assert sharded.n_shards == 3

    def test_factory_auto_shards_follow_executor_degree(self):
        items, workers, x, *_ = _random_problem(9)
        with ThreadExecutor(3) as pool:
            kernel = build_sweep_kernel(
                CPAConfig(backend="sharded"),
                items,
                workers,
                x,
                n_items=40,
                n_workers=25,
                executor=pool,
            )
        assert kernel.n_shards == 3

    def test_fused_engine_never_replans(self, tiny_dataset):
        """A fused kernel has no plan to resize: lane-count drift must not
        turn it sharded, although it now answers ``evict`` like one."""
        engine = VariationalInference(CPAConfig(seed=0), tiny_dataset.answers)
        engine._planned_degree = 4  # as if the executor had grown lanes
        engine.sweep()
        assert type(engine.kernel) is SweepKernel

    def test_config_rejects_unknown_backend(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CPAConfig(backend="gpu")


# ---------------------------------------------------------- parity: batch VI


class TestBatchVIShardParity:
    def _engines(self, dataset, n_shards, executor=None, seed=0):
        config = CPAConfig(seed=seed, max_iterations=8)
        fused = VariationalInference(config, dataset.answers)
        sharded = VariationalInference(
            config.with_overrides(backend="sharded", n_shards=n_shards),
            dataset.answers,
            executor=executor,
        )
        return fused, sharded

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_serial_trajectory_parity(self, tiny_dataset, n_shards):
        fused, sharded = self._engines(tiny_dataset, n_shards)
        _assert_states_close(fused.state, sharded.state)
        for _ in range(5):
            delta_fused = fused.sweep()
            delta_sharded = sharded.sweep()
            assert delta_sharded == pytest.approx(delta_fused, abs=1e-10)
            _assert_states_close(fused.state, sharded.state)
            assert sharded.elbo() == pytest.approx(fused.elbo(), abs=1e-8, rel=1e-11)

    @pytest.mark.parametrize("executor_kind", ["thread", "process"])
    def test_parallel_executor_trajectory_parity(self, tiny_dataset, executor_kind):
        with make_executor(executor_kind, 2) as pool:
            fused, sharded = self._engines(tiny_dataset, 2, executor=pool, seed=3)
            for _ in range(4):
                fused.sweep()
                sharded.sweep()
                _assert_states_close(fused.state, sharded.state)
            assert sharded.elbo() == pytest.approx(fused.elbo(), abs=1e-8, rel=1e-11)

    def test_cross_executor_determinism(self, tiny_dataset):
        """Fixed-order merges: identical results for every executor kind."""
        states = {}
        for kind in ("serial", "thread", "process"):
            with make_executor(kind, 3) as pool:
                engine = VariationalInference(
                    CPAConfig(seed=1, max_iterations=6).with_overrides(
                        backend="sharded", n_shards=3
                    ),
                    tiny_dataset.answers,
                    executor=pool,
                )
                for _ in range(3):
                    engine.sweep()
                states[kind] = engine.state
        _assert_states_close(states["serial"], states["thread"], EXACT)
        _assert_states_close(states["serial"], states["process"], EXACT)


# --------------------------------------------------------------- parity: SVI


class TestSVIShardParity:
    def _stream(self, dataset):
        return stream_from_matrix(dataset.answers, answers_per_batch=60, seed=5)

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_serial_stream_parity(self, tiny_dataset, n_shards):
        config = CPAConfig(seed=0, svi_iterations=2)
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        fused = StochasticInference(config, *sizes)
        sharded = StochasticInference(
            config.with_overrides(backend="sharded", n_shards=n_shards), *sizes
        )
        for batch in self._stream(tiny_dataset):
            rate_fused = fused.process_batch(batch)
            rate_sharded = sharded.process_batch(batch)
            assert rate_sharded == pytest.approx(rate_fused, abs=0)
            _assert_states_close(fused.state, sharded.state)

    @pytest.mark.parametrize("executor_kind", ["thread", "process"])
    def test_parallel_executor_stream_parity(self, tiny_dataset, executor_kind):
        config = CPAConfig(seed=2, svi_iterations=1)
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        fused = StochasticInference(config, *sizes)
        with make_executor(executor_kind, 2) as pool:
            sharded = StochasticInference(
                config.with_overrides(backend="sharded", n_shards=2),
                *sizes,
                executor=pool,
            )
            for batch in self._stream(tiny_dataset):
                fused.process_batch(batch)
                sharded.process_batch(batch)
        _assert_states_close(fused.state, sharded.state)

    @pytest.mark.parametrize("backend", ["fused", "sharded"])
    def test_batch_dedups_rows_once(self, tiny_dataset, monkeypatch, backend):
        """No SVI batch pays for the pattern row sort twice: the batch
        kernel's dedup serves seeding, every local pass and the
        post-damping statistics."""
        import repro.core.kernels as kernels
        import repro.core.sharding as sharding

        real_unique = kernels.unique_patterns
        calls = []

        def counting_unique(indicators):
            calls.append(indicators.shape[0])
            return real_unique(indicators)

        monkeypatch.setattr(kernels, "unique_patterns", counting_unique)
        monkeypatch.setattr(sharding, "unique_patterns", counting_unique)
        config = CPAConfig(seed=0, svi_iterations=3, backend=backend, n_shards=2)
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        engine = StochasticInference(config, *sizes)
        batches = self._stream(tiny_dataset)[:3]
        for n, batch in enumerate(batches, start=1):
            engine.process_batch(batch)
            assert len(calls) == n
        assert calls == [batch.matrix.to_arrays()[0].size for batch in batches]

    def test_truth_and_hint_parity(self, tiny_dataset):
        config = CPAConfig(seed=3, svi_iterations=1)
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        common = dict(
            truth=tiny_dataset.truth, total_answers_hint=tiny_dataset.n_answers
        )
        fused = StochasticInference(config, *sizes, **common)
        sharded = StochasticInference(
            config.with_overrides(backend="sharded", n_shards=3), *sizes, **common
        )
        for batch in self._stream(tiny_dataset):
            fused.process_batch(batch)
            sharded.process_batch(batch)
        _assert_states_close(fused.state, sharded.state)


# ----------------------------------------------------------- merge semantics


class TestMerges:
    def test_merge_cell_statistics_matches_manual_sum(self):
        rng = np.random.default_rng(0)
        pieces = [
            (rng.normal(size=(5, 4, 8)), rng.normal(size=(5, 4))) for _ in range(6)
        ]
        counts, mass = merge_cell_statistics(pieces)
        np.testing.assert_allclose(
            counts, np.sum([p[0] for p in pieces], axis=0), atol=1e-12
        )
        np.testing.assert_allclose(
            mass, np.sum([p[1] for p in pieces], axis=0), atol=1e-12
        )

    def test_merge_requires_fragments(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            merge_cell_statistics([])

    def test_merge_does_not_mutate_inputs(self):
        rng = np.random.default_rng(1)
        pieces = [(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3))) for _ in range(3)]
        snapshots = [(c.copy(), m.copy()) for c, m in pieces]
        merge_cell_statistics(pieces)
        for (c, m), (sc, sm) in zip(pieces, snapshots):
            np.testing.assert_array_equal(c, sc)
            np.testing.assert_array_equal(m, sm)


# ------------------------------------------------------- pickling / executors


def _roundtrip_worker_scores(task):
    kernel, e_log_psi, phi_rows = task
    kernel.begin_sweep(e_log_psi)
    out = np.zeros((kernel.n_workers, e_log_psi.shape[1]))
    return kernel.add_worker_scores(out, phi_rows)


class TestShardTransport:
    def test_sharded_kernel_pickles_and_computes_identically(self):
        items, workers, x, phi, kappa, e_log_psi = _random_problem(11)
        kernel = ShardedSweepKernel(
            items, workers, x, n_items=40, n_workers=25, n_shards=3
        )
        clone = pickle.loads(pickle.dumps(kernel))
        for k in (kernel, clone):
            k.begin_sweep(e_log_psi)
        out_a = kernel.add_worker_scores(np.zeros((25, 4)), phi)
        out_b = clone.add_worker_scores(np.zeros((25, 4)), phi)
        np.testing.assert_array_equal(out_a, out_b)

    def test_shard_tasks_run_on_a_real_process_pool(self):
        """Regression: shard payloads must pickle cleanly into worker lanes."""
        items, workers, x, phi, kappa, e_log_psi = _random_problem(12)
        kernel = ShardedSweepKernel(
            items, workers, x, n_items=40, n_workers=25, n_shards=2
        )
        tasks = [
            (shard.kernel, e_log_psi, phi[shard.item_ids])
            for shard in kernel.plan.shards
        ]
        with ProcessExecutor(2) as pool:
            pieces = pool.map_tasks(_roundtrip_worker_scores, tasks)
        assert len(pieces) == kernel.n_shards

    def test_process_pool_not_resurrected_after_close(self):
        """Regression for lazy-pool reuse: close() is terminal, not a reset."""
        from repro.errors import ConfigurationError

        ex = ProcessExecutor(2)
        assert ex.map_tasks(_double, [1, 2]) == [2, 4]
        ex.close()
        assert ex._pool is None
        with pytest.raises(ConfigurationError, match="process executor"):
            ex.map_tasks(_double, [1])
        assert ex._pool is None  # the failed call must not recreate the pool
        # a fresh executor is the supported way to continue
        with ProcessExecutor(2) as fresh:
            assert fresh.map_tasks(_double, [3]) == [6]


def _double(x):
    return x * 2
