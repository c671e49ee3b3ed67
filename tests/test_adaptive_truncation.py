"""Shard-local truncation adaptation (DESIGN.md §6 "Shard-local truncation").

Contracts under test:

* **Clamp contract** (regression, issue bugfix 1):
  ``CPAConfig.resolve_truncations`` never returns a truncation exceeding
  the space it truncates; tiny (1-element) and empty spaces resolve to
  one component, and a 1-item/1-worker dataset runs inference
  end-to-end.  The seed implementation clamped in the wrong order
  (``max(2, min(t, n))``) and returned ``(2, 2)`` for such datasets.
* **Shard-count cap** (regression, issue bugfix 2): a requested shard
  count is capped by the number of *answered* items wherever a concrete
  matrix is in hand, and the realised count (``kernel.n_shards``) is
  what consumers see.
* **Parity when not binding**: with adaptive truncation armed but no
  shard's ``T_s`` below the global ``T``, every path — both engines,
  ``K ∈ {1, 2, 7}``, serial/process/remote executors — is bitwise
  identical to the global-truncation path.
* **Wide-sparse property**: on a wide-but-sparse matrix the ``"auto"``
  gate engages, per-shard truncations bind (``T_s < T``), the per-shard
  sufficient statistics shrink, ``ϕ`` carries exactly zero mass outside
  its windows, the ELBO stays monotone (the windowed updates are exact
  coordinate ascent within the constrained family), sharded runs stay
  bitwise deterministic across executors, and consensus metrics match
  the global-truncation run.
"""

import contextlib
import warnings

import numpy as np
import pytest

from repro.core.config import CPAConfig, clamp_truncation
from repro.core.inference import VariationalInference
from repro.core.kernels import (
    ADAPTIVE_MIN_ITEMS,
    adaptive_pays_off,
    auto_shard_count,
    mask_cluster_scores,
    truncate_rows,
)
from repro.core.model import CPAModel
from repro.core.sharding import ShardedSweepKernel, build_sweep_kernel
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.data.answers import AnswerMatrix
from repro.data.dataset import GroundTruth
from repro.errors import ConfigurationError
from repro.utils.parallel import make_executor

from tests.test_sharded import _assert_states_close
from tests.transport_harness import worker_fleet

BITWISE = dict(atol=0, rtol=0)


@contextlib.contextmanager
def _pool(kind, degree=2):
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


def _dense_matrix(seed=1, n_items=40, n_workers=20, n_labels=6, per_item=8):
    """A dense matrix (many answers per item, diverse patterns)."""
    rng = np.random.default_rng(seed)
    matrix = AnswerMatrix(n_items, n_workers, n_labels)
    for item in range(n_items):
        for worker in rng.choice(n_workers, size=per_item, replace=False):
            labels = tuple(np.flatnonzero(rng.random(n_labels) < 0.4)) or (0,)
            matrix.add(int(item), int(worker), labels)
    return matrix


THEMES = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]


def _wide_sparse_matrix(seed=0, n_items=900, n_workers=60, n_labels=10,
                        answers_per_item=2):
    """Wide-but-sparse themed matrix with ground truth.

    Items belong to one of a handful of label themes; each gets only a
    couple of (sometimes partial) answers — the many-candidate regime of
    the partial-preference papers, where per-shard item profiles are
    poor and the shard truncation rule binds.
    """
    rng = np.random.default_rng(seed)
    matrix = AnswerMatrix(n_items, n_workers, n_labels)
    truth = GroundTruth(n_items, n_labels)
    for item in range(n_items):
        theme = THEMES[item % len(THEMES)]
        truth.set(item, theme)
        for worker in rng.choice(n_workers, size=answers_per_item, replace=False):
            if rng.random() < 0.75:
                answer = theme  # full agreement
            else:
                answer = (theme[int(rng.integers(2))],)  # partial answer
            matrix.add(item, int(worker), answer)
    return matrix, truth


# ------------------------------------------------------------- clamp contract


class TestTruncationClamp:
    def test_clamp_never_exceeds_space(self):
        for t in (0, 1, 2, 5, 1000):
            for space in (0, 1, 2, 3, 7, 100):
                clamped = clamp_truncation(t, space)
                assert clamped <= max(space, 1)
                assert clamped >= 1

    def test_clamp_keeps_floor_of_two_for_real_spaces(self):
        assert clamp_truncation(0, 10) == 2
        assert clamp_truncation(1, 10) == 2
        assert clamp_truncation(7, 10) == 7
        assert clamp_truncation(70, 10) == 10

    def test_degenerate_spaces_resolve_to_one_component(self):
        """Regression: the seed clamp returned (2, 2) for 1-element and
        empty spaces — a truncation larger than the space itself."""
        config = CPAConfig()
        assert config.resolve_truncations(1, 1) == (1, 1)
        assert config.resolve_truncations(0, 0) == (1, 1)
        assert config.resolve_truncations(1, 50) == (1, 14)
        assert config.resolve_truncations(50, 1) == (14, 1)

    def test_explicit_truncations_are_clamped_too(self):
        config = CPAConfig(truncation_clusters=50, truncation_communities=50)
        assert config.resolve_truncations(3, 4) == (3, 4)
        assert config.resolve_truncations(1, 0) == (1, 1)

    def test_one_item_one_worker_runs_end_to_end(self):
        matrix = AnswerMatrix(1, 1, 3)
        matrix.add(0, 0, (1,))
        engine = VariationalInference(CPAConfig(seed=0, max_iterations=4), matrix)
        assert engine.state.n_clusters == 1
        assert engine.state.n_communities == 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            engine.run(track_elbo=True)
        engine.state.validate()
        np.testing.assert_allclose(engine.state.phi, [[1.0]])


# ----------------------------------------------------------- shard-count caps


class TestShardCountCaps:
    def test_resolve_shards_capped_by_answered_items(self):
        config = CPAConfig(backend="sharded", n_shards=64)
        assert config.resolve_shards(4) == 64  # no matrix in hand: honoured
        assert config.resolve_shards(4, n_items=3) == 3
        assert CPAConfig(backend="sharded").resolve_shards(8, n_items=2) == 2

    def test_auto_shard_count_capped_by_answered_items(self):
        assert auto_shard_count(30_000_000, degree=32) == 32
        assert auto_shard_count(30_000_000, degree=32, n_items=5) == 5
        assert auto_shard_count(200_000, degree=1, n_items=2) == 2

    def test_resolve_backend_caps_all_modes(self):
        explicit = CPAConfig(backend="sharded", n_shards=64)
        assert explicit.resolve_backend(10, 1, n_items=3) == ("sharded", 3)
        auto = CPAConfig(backend="auto")
        assert auto.resolve_backend(200_000, 8, n_items=2) == ("sharded", 2)
        pinned = CPAConfig(backend="auto", n_shards=6)
        assert pinned.resolve_backend(200_000, 1, n_items=4) == ("sharded", 4)

    def test_factory_realises_at_most_answered_items(self):
        """64 requested shards over 3 answered items realise 3 shards,
        and the kernel reports the realised count."""
        rng = np.random.default_rng(3)
        n = 30
        items = rng.integers(0, 3, size=n)  # only items {0, 1, 2} answered
        workers = rng.integers(0, 10, size=n)
        x = np.zeros((n, 4))
        x[np.arange(n), rng.integers(0, 4, size=n)] = 1.0
        kernel = build_sweep_kernel(
            CPAConfig(backend="sharded", n_shards=64),
            items, workers, x, n_items=100, n_workers=10,
        )
        assert isinstance(kernel, ShardedSweepKernel)
        assert kernel.n_shards <= 3
        assert kernel.n_shards == kernel.plan.n_shards

    def test_svi_batch_kernel_capped_by_batch_items(self, tiny_dataset):
        config = CPAConfig(seed=0, svi_iterations=1, backend="sharded", n_shards=500)
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        engine = StochasticInference(config, *sizes)
        batch = stream_from_matrix(tiny_dataset.answers, answers_per_batch=40, seed=7)[0]
        engine.process_batch(batch)
        assert engine._batch_kernel_cache is not None
        kernel = engine._batch_kernel_cache[1]
        assert kernel.n_shards <= np.unique(batch.matrix.to_arrays()[0]).size


# ------------------------------------------------------------------ knob/gate


class TestKnobAndGate:
    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="adaptive_truncation"):
            CPAConfig(adaptive_truncation="sometimes")

    def test_auto_gate_is_wide_and_sparse_only(self):
        assert adaptive_pays_off(ADAPTIVE_MIN_ITEMS, ADAPTIVE_MIN_ITEMS * 2)
        assert not adaptive_pays_off(ADAPTIVE_MIN_ITEMS - 1, 10)  # not wide
        assert not adaptive_pays_off(10_000, 100_000)  # not sparse
        config = CPAConfig()
        assert config.resolve_adaptive_truncation(100_000, 150_000)
        assert not config.resolve_adaptive_truncation(60, 300)
        assert CPAConfig(adaptive_truncation="on").resolve_adaptive_truncation(2, 2)
        assert not CPAConfig(adaptive_truncation="off").resolve_adaptive_truncation(
            10**6, 10**6
        )

    def test_shard_truncation_rule_shares_clamp(self):
        config = CPAConfig()
        assert config.shard_truncation(4, 100) == 3  # 4 // 4 + 2
        assert config.shard_truncation(1000, 100) == 40  # max_truncation cap
        assert config.shard_truncation(1000, 1) == 1  # space clamp
        assert config.shard_truncation(0, 0) == 1  # empty shard contract

    def test_fused_kernel_has_no_limits(self):
        matrix = _dense_matrix()
        engine = VariationalInference(
            CPAConfig(seed=0, adaptive_truncation="on"), matrix
        )
        assert engine.kernel.cluster_limits(engine.state.n_clusters) is None

    def test_auto_gate_disengages_on_dense_small_matrices(self, tiny_dataset):
        """60 dense items: "auto" must not even arm the shard rule."""
        config = CPAConfig(seed=2, backend="sharded", n_shards=3)
        engine = VariationalInference(config, tiny_dataset.answers)
        assert not engine.kernel.adaptive
        assert all(s.t_limit is None for s in engine.kernel.plan.shards)
        assert engine.kernel.cluster_limits(engine.state.n_clusters) is None


# ------------------------------------------------------------ window helpers


class TestWindowHelpers:
    def test_mask_leaves_full_windows_untouched(self):
        scores = np.arange(12.0).reshape(3, 4)
        before = scores.copy()
        out = mask_cluster_scores(scores, np.array([4, 5, 4]))
        np.testing.assert_array_equal(out, before)

    def test_mask_then_truncate_gives_exact_zero_mass(self):
        from repro.utils.math import log_normalize_rows

        scores = np.array([[0.0, -3.0, 5.0], [1.0, 2.0, 3.0]])
        limits = np.array([2, 3])
        mask_cluster_scores(scores, limits)
        assert np.isfinite(scores).all()  # -inf would poison the SVI µ path
        probs = log_normalize_rows(scores)
        # the mask alone leaves at most exp(-margin) leak...
        assert 0.0 <= probs[0, 2] <= 2e-28
        # ...and the engines' projection removes it exactly
        probs = truncate_rows(probs, limits)
        assert probs[0, 2] == 0.0
        np.testing.assert_allclose(probs[0, :2].sum(), 1.0)
        np.testing.assert_allclose(probs[1], log_normalize_rows(scores[1:2])[0])

    def test_truncate_rows_is_exact_conditioning(self):
        probs = np.array([[0.2, 0.3, 0.5], [0.25, 0.25, 0.5]])
        out = truncate_rows(probs, np.array([2, 3]))
        np.testing.assert_allclose(out[0], [0.4, 0.6, 0.0])
        np.testing.assert_allclose(out[1], probs[1])

    def test_truncate_rows_empty_window_mass_goes_uniform(self):
        probs = np.array([[0.0, 0.0, 1.0]])
        out = truncate_rows(probs, np.array([2]))
        np.testing.assert_allclose(out, [[0.5, 0.5, 0.0]])


# -------------------------------------------------- parity when not binding
#
# adaptive="on" with a small explicit global truncation: every shard's
# profile-sized limit sits at or above T, so the windows never bind and
# the path must be *bitwise* the global-truncation one.  (The "auto"
# parity case is free: the gate itself disengages on dense matrices —
# TestKnobAndGate — leaving the seed path untouched.)

NON_BINDING = dict(truncation_clusters=3, backend="sharded")
SHARD_COUNTS = [1, 2, 7]


def _engine_pair(matrix, n_shards, seed=2, executor_a=None, executor_b=None):
    base = CPAConfig(seed=seed, n_shards=n_shards, **NON_BINDING)
    off = VariationalInference(
        base.with_overrides(adaptive_truncation="off"), matrix, executor=executor_a
    )
    on = VariationalInference(
        base.with_overrides(adaptive_truncation="on"), matrix, executor=executor_b
    )
    # precondition: the rule armed real limits, none of which bind
    assert on.kernel.adaptive
    assert all(s.t_limit is not None for s in on.kernel.plan.shards)
    assert not on.kernel._binding(on.state.n_clusters)
    return off, on


class TestNonBindingParity:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_batch_vi_bitwise_serial(self, n_shards):
        matrix = _dense_matrix()
        off, on = _engine_pair(matrix, n_shards)
        for _ in range(4):
            assert off.sweep() == on.sweep()
            _assert_states_close(off.state, on.state, BITWISE)
        assert off.elbo() == on.elbo()

    @pytest.mark.parametrize(
        "kind",
        ["process", pytest.param("remote", marks=pytest.mark.network)],
    )
    def test_batch_vi_bitwise_executors_and_transports(self, kind):
        matrix = _dense_matrix()
        with _pool(kind) as pool_a, _pool(kind) as pool_b:
            off, on = _engine_pair(matrix, 2, executor_a=pool_a, executor_b=pool_b)
            for _ in range(3):
                assert off.sweep() == on.sweep()
                _assert_states_close(off.state, on.state, BITWISE)

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_svi_stream_bitwise(self, n_shards):
        matrix = _dense_matrix(seed=4)
        sizes = (matrix.n_items, matrix.n_workers, matrix.n_labels)
        base = CPAConfig(
            seed=3, svi_iterations=2, n_shards=n_shards,
            adaptive_truncation="on", **NON_BINDING
        )
        on = StochasticInference(base, *sizes)
        off = StochasticInference(
            base.with_overrides(adaptive_truncation="off"), *sizes
        )
        # 120-answer batches keep every shard's profile count above the
        # T=3 truncation at K=7 (smaller batches make the shard rule
        # bind, which is TestWideSparseBinding's scenario, not this one)
        for batch in stream_from_matrix(matrix, answers_per_batch=120, seed=5):
            off.process_batch(batch)
            on.process_batch(batch)
        _assert_states_close(off.state, on.state, BITWISE)

    @pytest.mark.parametrize(
        "kind",
        ["process", pytest.param("remote", marks=pytest.mark.network)],
    )
    def test_svi_stream_bitwise_parallel(self, kind):
        matrix = _dense_matrix(seed=6)
        sizes = (matrix.n_items, matrix.n_workers, matrix.n_labels)
        base = CPAConfig(
            seed=5, svi_iterations=1, n_shards=2, **NON_BINDING
        )
        with _pool(kind) as pool_a, _pool(kind) as pool_b:
            off = StochasticInference(
                base.with_overrides(adaptive_truncation="off"), *sizes,
                executor=pool_a,
            )
            on = StochasticInference(
                base.with_overrides(adaptive_truncation="on"), *sizes,
                executor=pool_b,
            )
            for batch in stream_from_matrix(matrix, answers_per_batch=80, seed=6):
                off.process_batch(batch)
                on.process_batch(batch)
        _assert_states_close(off.state, on.state, BITWISE)


# --------------------------------------------------------- binding wide/sparse


def _binding_engine(matrix, executor=None, **overrides):
    config = CPAConfig(
        seed=0, backend="sharded", n_shards=4, max_iterations=8, **overrides
    )
    engine = VariationalInference(config, matrix, executor=executor)
    return engine


class TestWideSparseBinding:
    def test_auto_gate_engages_and_limits_bind(self):
        matrix, _ = _wide_sparse_matrix()
        engine = _binding_engine(matrix)  # adaptive_truncation left at "auto"
        kernel, t = engine.kernel, engine.state.n_clusters
        assert kernel.adaptive
        shard_ts = kernel._shard_ts(t)
        assert all(t_s >= 1 for t_s in shard_ts)
        assert any(t_s < t for t_s in shard_ts), "rule must bind on wide/sparse"
        limits = kernel.cluster_limits(t)
        assert limits is not None and limits.shape == (matrix.n_items,)
        # per-shard sufficient statistics shrink vs the global truncation
        assert sum(shard_ts) < kernel.n_shards * t

    def test_phi_stays_exactly_zero_outside_windows(self):
        matrix, _ = _wide_sparse_matrix()
        engine = _binding_engine(matrix)
        kernel, t = engine.kernel, engine.state.n_clusters
        for _ in range(4):
            engine.sweep()
            for shard, t_s in zip(kernel.plan.shards, kernel._shard_ts(t)):
                if t_s < t:
                    assert np.all(engine.state.phi[shard.item_ids][:, t_s:] == 0.0)
        engine.state.validate()

    def test_elbo_monotone_under_binding_truncation(self):
        """The windowed updates are exact coordinate ascent within the
        constrained family, so the ELBO must still never decrease."""
        matrix, _ = _wide_sparse_matrix(seed=3)
        engine = _binding_engine(matrix)
        values = []
        for _ in range(6):
            engine.sweep()
            values.append(engine.elbo())
        assert all(b >= a - 1e-7 for a, b in zip(values, values[1:])), values

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_binding_runs_bitwise_deterministic_across_executors(self, kind):
        matrix, _ = _wide_sparse_matrix(seed=5, n_items=600, n_workers=40)
        serial = _binding_engine(matrix)
        with _pool(kind) as pool:
            parallel = _binding_engine(matrix, executor=pool)
            for _ in range(3):
                assert serial.sweep() == parallel.sweep()
            _assert_states_close(serial.state, parallel.state, BITWISE)

    def test_consensus_metrics_unchanged_vs_global_truncation(self):
        matrix, truth = _wide_sparse_matrix(seed=7)

        def jaccard(model):
            predictions = model.predict()
            scores = []
            for item, labels in predictions.items():
                true = truth.get(item)
                if true is None or not (labels or true):
                    continue
                scores.append(len(labels & true) / len(labels | true))
            return float(np.mean(scores))

        config = CPAConfig(seed=1, backend="sharded", n_shards=4, max_iterations=20)
        adaptive = CPAModel(config).fit(matrix)
        global_t = CPAModel(
            config.with_overrides(adaptive_truncation="off")
        ).fit(matrix)
        score_adaptive, score_global = jaccard(adaptive), jaccard(global_t)
        # themed wide-sparse data is easy: both runs must solve it, and
        # truncation must not cost consensus quality
        assert score_global >= 0.8
        assert score_adaptive >= score_global - 0.03

    def test_svi_windowed_statistics_condition_rather_than_drop_mass(self):
        """Regression: a ϕ with mass leaked outside this batch's shard
        windows (the µ-synced commit always leaks) must be *conditioned*
        on the windows, not silently truncated — the Eq. 6 cell mass must
        still total one unit per answer."""
        from repro.core.svi import _prepare_batch

        matrix, _ = _wide_sparse_matrix(seed=11)
        sizes = (matrix.n_items, matrix.n_workers, matrix.n_labels)
        config = CPAConfig(seed=3, svi_iterations=1, backend="sharded", n_shards=4)
        engine = StochasticInference(config, *sizes)
        batch = stream_from_matrix(matrix, answers_per_batch=2000, seed=4)[0]
        data = _prepare_batch(batch, config.resolve_dtype())
        rng = np.random.default_rng(0)
        t, m = engine.state.n_clusters, engine.state.n_communities
        phi = rng.dirichlet(np.ones(t), size=data.batch_items.size)  # leaky
        kappa = rng.dirichlet(np.ones(m), size=data.batch_workers.size)
        counts, mass = engine._batch_cell_statistics(data, phi, kappa)
        kernel = engine._batch_kernel_cache[1]
        assert kernel.cluster_limits(t) is not None  # windows really bind
        np.testing.assert_allclose(float(mass.sum()), data.items.size, rtol=1e-9)
        np.testing.assert_allclose(
            float(counts.sum()), float(data.indicators.sum()), rtol=1e-9
        )

    def test_svi_bulk_stream_binds_and_stays_finite(self):
        matrix, _ = _wide_sparse_matrix(seed=9)
        sizes = (matrix.n_items, matrix.n_workers, matrix.n_labels)
        config = CPAConfig(
            seed=2, svi_iterations=2, backend="sharded", n_shards=4
        )
        engine = StochasticInference(config, *sizes)
        bound = False
        for batch in stream_from_matrix(matrix, answers_per_batch=1200, seed=3):
            engine.process_batch(batch)
            cache = engine._batch_kernel_cache
            if cache is not None and cache[1].cluster_limits(
                engine.state.n_clusters
            ) is not None:
                bound = True
        assert bound, "bulk wide/sparse batches must engage adaptation"
        assert np.isfinite(engine.state.mu).all()
        engine.state.validate()
