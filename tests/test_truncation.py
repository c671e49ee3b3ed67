"""Truncation clamp and shard-count caps.

Contracts under test:

* **Clamp contract** (regression): ``CPAConfig.resolve_truncations``
  never returns a truncation exceeding the space it truncates; tiny
  (1-element) and empty spaces resolve to one component, and a
  1-item/1-worker dataset runs inference end-to-end.  The seed
  implementation clamped in the wrong order (``max(2, min(t, n))``) and
  returned ``(2, 2)`` for such datasets.
* **Shard-count cap** (regression): a requested shard count is capped by
  the number of *answered* items wherever a concrete matrix is in hand,
  and the realised count (``kernel.n_shards``) is what consumers see.
"""

import warnings

import numpy as np

from repro.core.config import CPAConfig, clamp_truncation
from repro.core.inference import VariationalInference
from repro.core.kernels import auto_shard_count
from repro.core.sharding import ShardedSweepKernel, build_sweep_kernel
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.data.answers import AnswerMatrix


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
