"""Kernel-layer tests: segment primitives, pattern dedup, and parity.

The parity classes are the contract of the perf refactor: the fused
pattern-deduplicated kernels must reproduce the frozen seed
implementations (:mod:`repro.core.reference`) trajectory-for-trajectory
within ``1e-8`` on fixed seeds, for both the batch and the stochastic
engine, and the ELBO must stay non-decreasing across sweeps.
"""

import pickle

import numpy as np
import pytest

from repro.core import kernels as kernels_module
from repro.core.config import CPAConfig
from repro.core.inference import VariationalInference
from repro.core.kernels import (
    SegmentLayout,
    SweepKernel,
    segment_sum,
    unique_patterns,
)
from repro.core.reference import (
    ReferenceStochasticInference,
    ReferenceVariationalInference,
)
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.simulation.generator import generate_dataset
from repro.simulation.perturbations import reveal_truth_fraction
from repro.utils.parallel import SerialExecutor, ThreadExecutor

from tests.conftest import tiny_config


# ----------------------------------------------------------------- primitives


class TestSegmentPrimitives:
    def test_segment_sum_matches_add_at_1d(self):
        rng = np.random.default_rng(0)
        index = rng.integers(0, 13, size=200)
        values = rng.normal(size=200)
        expected = np.zeros(13)
        np.add.at(expected, index, values)
        np.testing.assert_allclose(segment_sum(values, index, 13), expected, atol=1e-12)

    def test_segment_sum_matches_add_at_3d(self):
        rng = np.random.default_rng(1)
        index = rng.integers(0, 7, size=150)
        values = rng.normal(size=(150, 4, 3))
        expected = np.zeros((7, 4, 3))
        np.add.at(expected, index, values)
        np.testing.assert_allclose(
            segment_sum(values, index, 7), expected, atol=1e-12
        )

    def test_segment_sum_empty_and_missing_segments(self):
        out = segment_sum(np.zeros((0, 2)), np.zeros(0, dtype=int), 5)
        np.testing.assert_array_equal(out, np.zeros((5, 2)))
        # segment 1 never appears: must stay zero
        out = segment_sum(np.ones((2, 1)), np.array([0, 3]), 4)
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0, 0.0, 1.0])

    def test_layout_add_to_matches_add_at(self):
        rng = np.random.default_rng(2)
        index = rng.integers(0, 9, size=120)
        values = rng.normal(size=(120, 5))
        layout = SegmentLayout(index, 9)
        expected = np.zeros((9, 5))
        np.add.at(expected, index, values)
        out = np.zeros((9, 5))
        layout.add_to(out, values)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_layout_chunk_heads_accumulate_across_chunks(self):
        """Chunked reduceat equals the unchunked scatter for any chunk size."""
        rng = np.random.default_rng(3)
        index = rng.integers(0, 6, size=100)
        values = rng.normal(size=(100, 2))
        layout = SegmentLayout(index, 6)
        expected = np.zeros((6, 2))
        np.add.at(expected, index, values)
        sorted_values = values[layout.order]
        for chunk in (1, 7, 33, 100, 1000):
            out = np.zeros((6, 2))
            for lo in range(0, 100, chunk):
                hi = min(lo + chunk, 100)
                starts, seg_ids = layout.chunk_heads(lo, hi)
                out[seg_ids] += np.add.reduceat(sorted_values[lo:hi], starts, axis=0)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_unique_patterns_roundtrip(self):
        rng = np.random.default_rng(4)
        indicators = (rng.random((50, 6)) < 0.3).astype(float)
        indicators[indicators.sum(axis=1) == 0, 0] = 1.0
        patterns, index = unique_patterns(indicators)
        assert patterns.shape[0] <= 50
        np.testing.assert_array_equal(patterns[index], indicators)


# ------------------------------------------------------------- kernel algebra


def _random_problem(seed, n=400, n_items=40, n_workers=25, n_labels=8, t=5, m=4):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, n_items, size=n)
    workers = rng.integers(0, n_workers, size=n)
    # draw label sets from a small pattern pool so dedup is exercised
    pool = (rng.random((12, n_labels)) < 0.35).astype(float)
    pool[pool.sum(axis=1) == 0, 0] = 1.0
    indicators = pool[rng.integers(0, 12, size=n)]
    phi = rng.dirichlet(np.ones(t), size=n_items)
    kappa = rng.dirichlet(np.ones(m), size=n_workers)
    e_log_psi = np.log(rng.dirichlet(np.ones(n_labels), size=(t, m)))
    return items, workers, indicators, phi, kappa, e_log_psi


class TestSweepKernel:
    @pytest.mark.parametrize("patterned", [True, False])
    @pytest.mark.parametrize("executor_kind", ["serial", "thread"])
    def test_scores_match_naive(self, patterned, executor_kind):
        items, workers, x, phi, kappa, e_log_psi = _random_problem(5)
        kernel = SweepKernel(items, workers, x, 40, 25, patterned=patterned)
        kernel.begin_sweep(e_log_psi)
        like = np.einsum("nc,tmc->ntm", x, e_log_psi)
        executor = SerialExecutor() if executor_kind == "serial" else ThreadExecutor(3)
        with executor:
            worker_scores = np.zeros((25, 4))
            kernel.add_worker_scores(worker_scores, phi, executor)
            expected = np.zeros((25, 4))
            np.add.at(expected, workers, np.einsum("nt,ntm->nm", phi[items], like))
            np.testing.assert_allclose(worker_scores, expected, atol=1e-10)

            item_scores = np.zeros((40, 5))
            kernel.add_item_scores(item_scores, kappa, executor)
            expected = np.zeros((40, 5))
            np.add.at(expected, items, np.einsum("nm,ntm->nt", kappa[workers], like))
            np.testing.assert_allclose(item_scores, expected, atol=1e-10)

    @pytest.mark.parametrize("patterned", [True, False])
    def test_cell_statistics_match_naive(self, patterned):
        items, workers, x, phi, kappa, e_log_psi = _random_problem(6)
        kernel = SweepKernel(items, workers, x, 40, 25, patterned=patterned)
        kernel.begin_sweep(e_log_psi)
        counts, mass = kernel.cell_statistics(phi, kappa)
        joint = phi[items][:, :, None] * kappa[workers][:, None, :]
        np.testing.assert_allclose(
            counts, np.einsum("ntm,nc->tmc", joint, x), atol=1e-10
        )
        np.testing.assert_allclose(mass, joint.sum(axis=0), atol=1e-10)

    @pytest.mark.parametrize("patterned", [True, False])
    def test_data_elbo_matches_naive(self, patterned):
        items, workers, x, phi, kappa, e_log_psi = _random_problem(7)
        kernel = SweepKernel(items, workers, x, 40, 25, patterned=patterned)
        kernel.begin_sweep(e_log_psi)
        like = np.einsum("nc,tmc->ntm", x, e_log_psi)
        joint = phi[items][:, :, None] * kappa[workers][:, None, :]
        expected = float(np.sum(joint * like))
        assert kernel.data_elbo(phi, kappa, e_log_psi) == pytest.approx(
            expected, abs=1e-9
        )

    def test_joint_cache_invalidated_by_new_arrays(self):
        items, workers, x, phi, kappa, e_log_psi = _random_problem(8)
        kernel = SweepKernel(items, workers, x, 40, 25, patterned=True)
        kernel.begin_sweep(e_log_psi)
        kernel.cell_statistics(phi, kappa)
        phi2 = phi[::-1].copy()  # a different array object and content
        counts2, _ = kernel.cell_statistics(phi2, kappa)
        joint2 = phi2[items][:, :, None] * kappa[workers][:, None, :]
        np.testing.assert_allclose(
            counts2, np.einsum("ntm,nc->tmc", joint2, x), atol=1e-10
        )

    def test_auto_patterned_on_pooled_data(self):
        items, workers, x, *_ = _random_problem(9)
        kernel = SweepKernel(items, workers, x, 40, 25)
        assert kernel.patterned  # 12-pattern pool over 400 answers

    def test_begin_sweep_is_identity_cached(self):
        """The same tensor object re-entering begin_sweep (the SVI local
        passes) reuses the pattern likelihood; a new object recomputes."""
        items, workers, x, _, _, e_log_psi = _random_problem(10)
        kernel = SweepKernel(items, workers, x, 40, 25, patterned=True)
        kernel.begin_sweep(e_log_psi)
        first = kernel._pattern_like
        kernel.begin_sweep(e_log_psi)
        assert kernel._pattern_like is first
        shifted = e_log_psi - 1.0
        kernel.begin_sweep(shifted)
        assert kernel._pattern_like is not first
        # L[p] = Σ_c x_pc E[ln ψ_c]: a shift of -1 lowers it by |p|
        sizes = kernel.patterns.sum(axis=1)[:, None, None]
        np.testing.assert_allclose(kernel._pattern_like, first - sizes, atol=1e-12)
        kernel.evict()  # no lane-resident state: retiring is a no-op

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_begin_sweep_reuses_on_equal_values(self, monkeypatch, dtype):
        """A distinct array equal in value to the last input (what a
        lane-resident shard kernel unpickles for each score task) reuses
        the pattern likelihood; changed values re-evaluate it.  A float32
        kernel compares its float64 inputs before converting them."""
        calls = []
        real = kernels_module.answer_log_likelihood

        def counting(x, e_log_psi):
            calls.append(e_log_psi.dtype)
            return real(x, e_log_psi)

        monkeypatch.setattr(kernels_module, "answer_log_likelihood", counting)
        items, workers, x, phi, kappa, e_log_psi = _random_problem(11)
        kernel = SweepKernel(items, workers, x, 40, 25, dtype=dtype, patterned=True)
        kernel.begin_sweep(e_log_psi)
        kernel.begin_sweep(pickle.loads(pickle.dumps(e_log_psi)))
        kernel.begin_sweep(e_log_psi.copy())
        assert calls == [np.dtype(dtype)]

        changed = e_log_psi.copy()
        changed[0, 0, 0] -= 0.5
        kernel.begin_sweep(changed)
        assert len(calls) == 2
        scores = np.zeros((40, 5), dtype=dtype)
        kernel.add_item_scores(scores, kappa.astype(dtype))
        like = np.einsum("nc,tmc->ntm", x, changed)
        expected = np.zeros((40, 5))
        np.add.at(expected, items, np.einsum("nm,ntm->nt", kappa[workers], like))
        tol = 1e-10 if dtype == np.float64 else 1e-4
        np.testing.assert_allclose(scores, expected, rtol=tol, atol=tol)


# ---------------------------------------------------------------- parity: VI

PARITY = dict(atol=1e-8, rtol=1e-9)


def _assert_states_close(a, b):
    np.testing.assert_allclose(a.kappa, b.kappa, **PARITY)
    np.testing.assert_allclose(a.phi, b.phi, **PARITY)
    np.testing.assert_allclose(a.lam, b.lam, **PARITY)
    np.testing.assert_allclose(a.cell_mass, b.cell_mass, **PARITY)
    np.testing.assert_allclose(a.zeta, b.zeta, **PARITY)
    np.testing.assert_allclose(a.rho, b.rho, **PARITY)
    np.testing.assert_allclose(a.ups, b.ups, **PARITY)


class TestBatchParity:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_fused_matches_seed_trajectory(self, tiny_dataset, seed):
        config = CPAConfig(seed=seed, max_iterations=8)
        fused = VariationalInference(config, tiny_dataset.answers)
        reference = ReferenceVariationalInference(config, tiny_dataset.answers)
        _assert_states_close(fused.state, reference.state)
        for _ in range(6):
            delta_fused = fused.sweep()
            delta_ref = reference.sweep()
            assert delta_fused == pytest.approx(delta_ref, abs=1e-8)
            _assert_states_close(fused.state, reference.state)
            assert fused.elbo() == pytest.approx(reference.elbo(), abs=1e-7, rel=1e-9)

    def test_fused_matches_seed_with_supervision(self, tiny_dataset):
        supervised = reveal_truth_fraction(tiny_dataset, 0.5, seed=0)
        config = CPAConfig(seed=1, max_iterations=6)
        fused = VariationalInference(
            config, supervised.answers, truth=supervised.truth
        )
        reference = ReferenceVariationalInference(
            config, supervised.answers, truth=supervised.truth
        )
        for _ in range(4):
            fused.sweep()
            reference.sweep()
            _assert_states_close(fused.state, reference.state)
            assert fused.elbo() == pytest.approx(reference.elbo(), abs=1e-7, rel=1e-9)

    def test_threaded_executor_matches_serial(self, tiny_dataset):
        config = CPAConfig(seed=2, max_iterations=6)
        serial = VariationalInference(config, tiny_dataset.answers)
        with ThreadExecutor(3) as pool:
            threaded = VariationalInference(
                config, tiny_dataset.answers, executor=pool
            )
            for _ in range(4):
                serial.sweep()
                threaded.sweep()
                _assert_states_close(serial.state, threaded.state)

    def test_unpatterned_fallback_matches(self, tiny_dataset):
        config = CPAConfig(seed=4, max_iterations=6)
        fused = VariationalInference(config, tiny_dataset.answers)
        fallback = VariationalInference(config, tiny_dataset.answers)
        fallback.kernel = SweepKernel(
            fallback.items,
            fallback.workers,
            fallback.indicators,
            n_items=fallback.n_items,
            n_workers=fallback.n_workers,
            patterned=False,
        )
        for _ in range(3):
            fused.sweep()
            fallback.sweep()
            _assert_states_close(fused.state, fallback.state)
            assert fused.elbo() == pytest.approx(fallback.elbo(), abs=1e-7, rel=1e-9)


# --------------------------------------------------------------- parity: SVI


class TestStochasticParity:
    @pytest.mark.parametrize("by", ["answers", "workers"])
    def test_fused_matches_seed_stream(self, tiny_dataset, by):
        kwargs = (
            dict(answers_per_batch=60) if by == "answers" else dict(workers_per_batch=7)
        )
        batches = stream_from_matrix(tiny_dataset.answers, seed=5, **kwargs)
        config = CPAConfig(seed=0, svi_iterations=2)
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        fused = StochasticInference(config, *sizes)
        reference = ReferenceStochasticInference(config, *sizes)
        for batch in batches:
            rate_fused = fused.process_batch(batch)
            rate_ref = reference.process_batch(batch)
            assert rate_fused == pytest.approx(rate_ref, abs=0)
            _assert_states_close(fused.state, reference.state)

    def test_fused_matches_seed_with_truth_and_hint(self, tiny_dataset):
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=50, seed=2)
        config = CPAConfig(seed=3, svi_iterations=1)
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        common = dict(
            truth=tiny_dataset.truth, total_answers_hint=tiny_dataset.n_answers
        )
        fused = StochasticInference(config, *sizes, **common)
        reference = ReferenceStochasticInference(config, *sizes, **common)
        for batch in batches:
            fused.process_batch(batch)
            reference.process_batch(batch)
        _assert_states_close(fused.state, reference.state)


# -------------------------------------------------------- properties & dtype


class TestProperties:
    @pytest.mark.parametrize("sim_seed", [7, 19, 41])
    def test_elbo_monotone_on_random_datasets(self, sim_seed):
        """Property: the fused sweep keeps the ELBO non-decreasing."""
        dataset = generate_dataset(
            tiny_config(name=f"prop{sim_seed}", n_items=40, n_workers=20), seed=sim_seed
        )
        engine = VariationalInference(
            CPAConfig(seed=sim_seed, max_iterations=10), dataset.answers
        )
        values = [engine.elbo()]
        for _ in range(6):
            engine.sweep()
            values.append(engine.elbo())
        diffs = np.diff(values)
        assert np.all(diffs > -1e-6), f"ELBO decreased: {diffs}"

    def test_elbo_monotone_with_threaded_executor(self, tiny_dataset):
        with ThreadExecutor(2) as pool:
            engine = VariationalInference(
                CPAConfig(seed=11, max_iterations=8), tiny_dataset.answers, executor=pool
            )
            values = [engine.elbo()]
            for _ in range(5):
                engine.sweep()
                values.append(engine.elbo())
        assert np.all(np.diff(values) > -1e-6)

    def test_float32_pipeline_runs_and_tracks_float64(self, tiny_dataset):
        config64 = CPAConfig(seed=6, max_iterations=5)
        config32 = config64.with_overrides(dtype="float32")
        run64 = VariationalInference(config64, tiny_dataset.answers)
        run32 = VariationalInference(config32, tiny_dataset.answers)
        for _ in range(4):
            run64.sweep()
            run32.sweep()
        assert run32.state.lam.dtype == np.float32
        assert run32.state.phi.dtype == np.float32
        run32.state.validate()
        assert run32.elbo() == pytest.approx(run64.elbo(), rel=1e-3)
        # hard assignments should agree almost everywhere at this scale
        agree = np.mean(
            run32.state.hard_clusters() == run64.state.hard_clusters()
        )
        assert agree > 0.9

    def test_float32_svi_smoke(self, tiny_dataset):
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=60, seed=1)
        config = CPAConfig(seed=0, dtype="float32", svi_iterations=1)
        engine = StochasticInference(
            config, tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels
        )
        for batch in batches:
            engine.process_batch(batch)
        assert engine.state.lam.dtype == np.float32
        engine.state.validate()

    @pytest.mark.parametrize("backend", ["fused", "sharded"])
    def test_float32_svi_state_stays_float32(self, tiny_dataset, backend):
        """Regression: the sharded MAP phase left κ in float64, so the
        cell statistics — and with them λ and the cell mass — drifted to
        float64 after the first batch.  (ρ/υ/ζ are float64 on every
        backend by the seeding rule of ``checkpoint.state_from_payload``.)"""
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=100, seed=1)
        config = CPAConfig(seed=0, dtype="float32", backend=backend, n_shards=2)
        engine = StochasticInference(
            config, tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels
        )
        engine.fit_stream(batches)
        for name in ("lam", "cell_mass", "kappa", "phi", "mu"):
            assert getattr(engine.state, name).dtype == np.float32, name

    def test_invalid_dtype_rejected(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            CPAConfig(dtype="float16")


class TestLazyExecutors:
    def test_thread_pool_created_on_first_use(self):
        ex = ThreadExecutor(2)
        assert ex._pool is None
        assert ex.map_tasks(lambda v: v + 1, [1, 2]) == [2, 3]
        assert ex._pool is not None
        ex.close()
        assert ex._pool is None
        ex.close()  # idempotent

    def test_use_after_close_raises_instead_of_leaking(self):
        from repro.errors import ConfigurationError

        ex = ThreadExecutor(2)
        ex.map_tasks(lambda v: v, [1])
        ex.close()
        with pytest.raises(ConfigurationError, match="thread executor"):
            ex.map_tasks(lambda v: v, [1])
        assert ex._pool is None  # no pool was resurrected

    def test_process_pool_not_created_by_constructor(self):
        from repro.utils.parallel import ProcessExecutor

        ex = ProcessExecutor(2)
        assert ex._pool is None
        ex.close()  # closing an unused executor is a no-op
        assert ex._pool is None
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="process executor"):
            ex.map_tasks(lambda v: v, [1])
