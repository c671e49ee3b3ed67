"""Kernel-layer tests: segment primitives, pattern dedup, and parity.

The sweep-kernel tests check the label-factored contractions against
naive per-answer einsums, on pooled and on pattern-heavy label sets and
in both dtypes.  The parity classes are the contract of the perf
refactor: the fused kernel must reproduce the frozen seed implementations
(:mod:`repro.core.reference`) trajectory-for-trajectory within ``1e-8``
on fixed seeds in float64, the oracle dtype, for both the batch and the
stochastic engine, and the
ELBO must stay non-decreasing across sweeps.
"""

import numpy as np
import pytest

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
    # draw label sets from a small pattern pool, as real crowds answer
    pool = (rng.random((12, n_labels)) < 0.35).astype(float)
    pool[pool.sum(axis=1) == 0, 0] = 1.0
    indicators = pool[rng.integers(0, 12, size=n)]
    phi = rng.dirichlet(np.ones(t), size=n_items)
    kappa = rng.dirichlet(np.ones(m), size=n_workers)
    e_log_psi = np.log(rng.dirichlet(np.ones(n_labels), size=(t, m)))
    return items, workers, indicators, phi, kappa, e_log_psi


def _pattern_heavy_problem(seed=13):
    """C = 30 labels with nearly every answer's label set distinct."""
    rng = np.random.default_rng(seed)
    n, n_labels = 120, 30
    items = rng.integers(0, 20, size=n)
    workers = rng.integers(0, 10, size=n)
    x = (rng.random((n, n_labels)) < 0.5).astype(float)
    x[x.sum(axis=1) == 0, 0] = 1.0
    phi = rng.dirichlet(np.ones(4), size=20)
    kappa = rng.dirichlet(np.ones(3), size=10)
    e_log_psi = np.log(rng.dirichlet(np.ones(n_labels), size=(4, 3)))
    return items, workers, x, phi, kappa, e_log_psi


def _problem(seed, pattern_heavy):
    return _pattern_heavy_problem() if pattern_heavy else _random_problem(seed)


#: (kernel dtype, allclose tolerances): a float32 kernel rounds E[ln ψ]
#: and the incidence products to single precision.
DTYPES = [(np.float64, dict(atol=1e-10)), (np.float32, dict(rtol=1e-4, atol=1e-4))]


class TestSweepKernel:
    @pytest.mark.parametrize("pattern_heavy", [True, False])
    @pytest.mark.parametrize("executor_kind", ["serial", "thread"])
    def test_scores_match_naive(self, pattern_heavy, executor_kind):
        items, workers, x, phi, kappa, e_log_psi = _problem(5, pattern_heavy)
        n_items, t = phi.shape
        n_workers, m = kappa.shape
        like = np.einsum("nc,tmc->ntm", x, e_log_psi)
        expected_workers = np.zeros((n_workers, m))
        np.add.at(expected_workers, workers, np.einsum("nt,ntm->nm", phi[items], like))
        expected_items = np.zeros((n_items, t))
        np.add.at(expected_items, items, np.einsum("nm,ntm->nt", kappa[workers], like))
        executor = SerialExecutor() if executor_kind == "serial" else ThreadExecutor(3)
        with executor:
            for dtype, tol in DTYPES:
                kernel = SweepKernel(items, workers, x, n_items, n_workers, dtype=dtype)
                kernel.begin_sweep(e_log_psi)
                worker_scores = np.zeros((n_workers, m), dtype=dtype)
                kernel.add_worker_scores(worker_scores, phi.astype(dtype), executor)
                np.testing.assert_allclose(worker_scores, expected_workers, **tol)
                item_scores = np.zeros((n_items, t), dtype=dtype)
                kernel.add_item_scores(item_scores, kappa.astype(dtype), executor)
                np.testing.assert_allclose(item_scores, expected_items, **tol)

    @pytest.mark.parametrize("pattern_heavy", [True, False])
    def test_cell_statistics_match_naive(self, pattern_heavy):
        items, workers, x, phi, kappa, e_log_psi = _problem(6, pattern_heavy)
        joint = phi[items][:, :, None] * kappa[workers][:, None, :]
        for dtype, tol in DTYPES:
            kernel = SweepKernel(items, workers, x, len(phi), len(kappa), dtype=dtype)
            kernel.begin_sweep(e_log_psi)
            counts, mass = kernel.cell_statistics(phi.astype(dtype), kappa.astype(dtype))
            assert counts.dtype == mass.dtype == dtype
            np.testing.assert_allclose(counts, np.einsum("ntm,nc->tmc", joint, x), **tol)
            np.testing.assert_allclose(mass, joint.sum(axis=0), **tol)

    @pytest.mark.parametrize("pattern_heavy", [True, False])
    def test_data_elbo_matches_naive(self, pattern_heavy):
        items, workers, x, phi, kappa, e_log_psi = _problem(7, pattern_heavy)
        like = np.einsum("nc,tmc->ntm", x, e_log_psi)
        joint = phi[items][:, :, None] * kappa[workers][:, None, :]
        expected = float(np.sum(joint * like))
        for dtype, tol in [(np.float64, dict(abs=1e-9)), (np.float32, dict(rel=1e-4))]:
            kernel = SweepKernel(items, workers, x, len(phi), len(kappa), dtype=dtype)
            value = kernel.data_elbo(phi.astype(dtype), kappa.astype(dtype), e_log_psi)
            assert value == pytest.approx(expected, **tol)


class TestHeldProduct:
    """A statistics pass keeps ``(ϕ, A ϕ)``; the next worker scores reuse
    the product only for that same ϕ array."""

    @staticmethod
    def _worker_scores(kernel, phi, e_log_psi):
        kernel.begin_sweep(e_log_psi)
        out = np.zeros((kernel.n_workers, e_log_psi.shape[1]))
        return kernel.add_worker_scores(out, phi)

    def test_reuse_is_bitwise_equal_to_a_fresh_kernel(self):
        items, workers, x, phi, kappa, e_log_psi = _random_problem(8)
        sizes = (len(phi), len(kappa))
        held = SweepKernel(items, workers, x, *sizes)
        held.cell_statistics(phi, kappa)
        assert held._held[0] is phi
        fresh = SweepKernel(items, workers, x, *sizes)
        np.testing.assert_array_equal(
            self._worker_scores(held, phi, e_log_psi),
            self._worker_scores(fresh, phi, e_log_psi),
        )
        # a copy with one row changed is not the held ϕ: no stale reuse
        edited = phi.copy()
        edited[items[0]] = edited[items[0], ::-1]
        np.testing.assert_array_equal(
            self._worker_scores(held, edited, e_log_psi),
            self._worker_scores(SweepKernel(items, workers, x, *sizes), edited, e_log_psi),
        )

    def test_product_is_replaced_dropped_and_never_pickled(self):
        import pickle

        items, workers, x, phi, kappa, _ = _random_problem(9)
        kernel = SweepKernel(items, workers, x, len(phi), len(kappa))
        kernel.cell_statistics(phi, kappa)
        other = phi[::-1].copy()
        kernel.cell_statistics(other, kappa)
        assert kernel._held[0] is other  # one product per kernel
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone._held is None and clone.named_phi is None
        kernel.evict()
        assert kernel._held is None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_update_phi_is_the_program_side_phi_update(self, dtype):
        """``update_phi`` equals item scores plus E[ln τ] and the truth
        rows, softmaxed, then the statistics under the new ϕ: bitwise."""
        from repro.utils.math import log_normalize_rows

        items, workers, x, phi, kappa, e_log_psi = _random_problem(10)
        kappa = kappa.astype(dtype)
        e_log_tau = np.log(np.full(phi.shape[1], 1.0 / phi.shape[1], dtype=dtype))
        truth_items = np.array([1, 4, 7])
        truth_rows = np.random.default_rng(3).normal(size=(3, phi.shape[1]))
        kernel = SweepKernel(items, workers, x, len(phi), len(kappa), dtype=dtype)
        kernel.begin_sweep(e_log_psi)
        new_phi, counts, mass = kernel.update_phi(
            e_log_tau, kappa, (truth_items, truth_rows)
        )
        scores = np.tile(e_log_tau, (len(phi), 1))
        kernel.add_item_scores(scores, kappa)
        scores[truth_items] += truth_rows
        expected = log_normalize_rows(scores)
        np.testing.assert_array_equal(new_phi, expected)
        expected_counts, expected_mass = kernel.cell_statistics(expected, kappa)
        np.testing.assert_array_equal(counts, expected_counts)
        np.testing.assert_array_equal(mass, expected_mass)


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
        config = CPAConfig(seed=seed, max_iterations=8, dtype="float64")
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
        config = CPAConfig(seed=1, max_iterations=6, dtype="float64")
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


# --------------------------------------------------------------- parity: SVI


class TestStochasticParity:
    @pytest.mark.parametrize("by", ["answers", "workers"])
    def test_fused_matches_seed_stream(self, tiny_dataset, by):
        kwargs = (
            dict(answers_per_batch=60) if by == "answers" else dict(workers_per_batch=7)
        )
        batches = stream_from_matrix(tiny_dataset.answers, seed=5, **kwargs)
        config = CPAConfig(seed=0, svi_iterations=2, dtype="float64")
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
        config = CPAConfig(seed=3, svi_iterations=1, dtype="float64")
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
        """A float32 kernel updates a float64 state that validates at the
        float64 tolerances and tracks the float64 oracle."""
        config64 = CPAConfig(seed=6, max_iterations=5, dtype="float64")
        config32 = config64.with_overrides(dtype="float32")
        run64 = VariationalInference(config64, tiny_dataset.answers)
        run32 = VariationalInference(config32, tiny_dataset.answers)
        for _ in range(4):
            run64.sweep()
            run32.sweep()
        assert run32.kernel.dtype == np.float32
        for name in ("lam", "phi", "kappa", "cell_mass", "rho", "ups", "zeta"):
            assert getattr(run32.state, name).dtype == np.float64, name
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
        assert engine.state.lam.dtype == np.float64
        engine.state.validate()

    @pytest.mark.parametrize("backend", ["fused", "sharded"])
    def test_float32_svi_state_stays_float64(self, tiny_dataset, backend):
        """The float32 MAP phase merges into a float64 state on every
        backend: no posterior array drifts to the kernel dtype."""
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=100, seed=1)
        config = CPAConfig(seed=0, dtype="float32", backend=backend, n_shards=2)
        engine = StochasticInference(
            config, tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels
        )
        engine.fit_stream(batches)
        for name in ("lam", "cell_mass", "kappa", "phi", "mu", "rho", "ups", "zeta"):
            assert getattr(engine.state, name).dtype == np.float64, name

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

    def test_closing_an_unused_process_executor_leaves_no_child(self):
        from repro.errors import ConfigurationError
        from repro.utils.parallel import ProcessExecutor

        ex = ProcessExecutor(2)
        children = list(ex._children)
        ex.close()  # never ran a task: no channel was handed out
        assert not any(child.is_alive() for child in children)
        with pytest.raises(ConfigurationError, match="process executor"):
            ex.map_tasks(lambda v: v, [1])
