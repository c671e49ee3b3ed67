"""The precision contract of ``CPAConfig.dtype`` (DESIGN.md §6 "Dtype policy").

Contracts under test:

* **A float64 posterior** — κ, ϕ, µ, λ, ρ, υ, ζ and the cell mass are
  float64 under either kernel dtype, after a batch fit (fused, sharded in
  process, two process lanes), an SVI fold, a restore, a grow and a
  checkpoint round trip.
* **Lane traffic in the kernel dtype** — every floating array a shard
  task receives or returns, and the ϕ rows and ``A ϕ`` a shard kernel
  holds, is in the kernel dtype and holds no subnormal of it.
* **float32 tracks float64** — on the Table-4 scenarios and on the
  ``batch_lanes`` perfbench data, the default float32 kernel predicts the
  label sets the float64 oracle predicts, and its posterior lies within
  a tolerance fixed from ``np.finfo(np.float32).eps``.
* **Old float32 payloads** — a payload with float32 arrays restores as
  their exact float64 upcasts, and a replica restored from the writer
  that adopted it stays bitwise equal to the writer.
"""

import warnings

import numpy as np
import pytest

import repro.core.sharding as sharding
from repro.core.checkpoint import checkpoint_bytes, checkpoint_from_bytes
from repro.core.config import CPAConfig
from repro.core.inference import VariationalInference
from repro.core.model import CPAModel
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.data.streams import AnswerStream
from repro.serve import ConsensusEngine
from repro.simulation.generator import generate_dataset
from repro.simulation.perturbations import reveal_truth_fraction
from repro.simulation.scenarios import SCENARIO_NAMES, large_scale_config, make_scenario
from repro.utils.parallel import make_executor
from tests.test_checkpoint import float32_payload

DTYPES = ["float32", "float64"]
POSTERIOR = ("rho", "ups", "lam", "zeta", "kappa", "phi", "cell_mass")

#: the float32-vs-float64 tolerance, fixed from float32's resolution: a
#: thousand ulps of one, relative and absolute.
EPS32 = float(np.finfo(np.float32).eps)
TRACKING = dict(rtol=1e3 * EPS32, atol=1e3 * EPS32)


def _assert_float64(state):
    for name in POSTERIOR:
        assert getattr(state, name).dtype == np.float64, name
    if state.mu is not None:
        assert state.mu.dtype == np.float64


def _subnormals(a: np.ndarray) -> int:
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


# ------------------------------------------------------- float64 posterior


@pytest.mark.parametrize("dtype", DTYPES)
class TestPosteriorIsFloat64:
    @pytest.mark.parametrize("layout", ["fused", "sharded", "lanes"])
    def test_batch_fit(self, tiny_dataset, dtype, layout):
        options = dict(seed=0, dtype=dtype, max_iterations=3)
        if layout != "fused":
            options.update(backend="sharded", n_shards=2)
        executor = make_executor("process", 2) if layout == "lanes" else None
        try:
            engine = VariationalInference(
                CPAConfig(**options), tiny_dataset.answers, executor=executor
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                engine.run()
        finally:
            if executor is not None:
                executor.close()
        _assert_float64(engine.state)

    def test_svi_fold_restore_grow_and_round_trip(self, tiny_dataset, dtype):
        config = CPAConfig(seed=0, dtype=dtype)
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=50, seed=1)
        engine = StochasticInference(config, *sizes)
        engine.process_batch(batches[0])
        _assert_float64(engine.state)
        restored = StochasticInference(config, *sizes)
        restored.restore(engine.checkpoint())
        _assert_float64(restored.state)
        restored.grow(sizes[0] + 3, sizes[1] + 2, sizes[2] + 1)
        _assert_float64(restored.state)
        state, _ = checkpoint_from_bytes(checkpoint_bytes(restored.state))
        _assert_float64(state)
        restored.process_batch(batches[1])
        _assert_float64(restored.state)


# ---------------------------------------------------------- lane traffic


TASKS = (
    "_worker_scores_task",
    "_item_scores_task",
    "_cell_statistics_task",
    "_update_phi_task",
)


def _floating(value):
    """Every floating array inside a (nested) task tuple or result."""
    if isinstance(value, np.ndarray):
        return [value] if value.dtype.kind == "f" else []
    if isinstance(value, (tuple, list)):
        return [array for item in value for array in _floating(item)]
    return []


@pytest.mark.parametrize("dtype", DTYPES)
def test_lane_traffic_is_in_the_kernel_dtype(monkeypatch, dtype):
    """Batch VI with supervision and an SVI stream, both sharded: peaked
    enough that κ has entries below float32's smallest normal."""
    seen = []
    for name in TASKS:
        real = getattr(sharding, name)

        def recording(shards, task, real=real):
            result = real(shards, task)
            kernel = shards[task[0]].kernel
            held = [kernel.named_phi[1]] if kernel.named_phi is not None else []
            if kernel._held is not None:
                held.append(kernel._held[1])
            seen.append(_floating(task) + _floating(result) + held)
            return result

        monkeypatch.setattr(sharding, name, recording)
    dataset = generate_dataset(
        large_scale_config(n_items=200, n_workers=20, answers_per_item=10), seed=0
    )
    config = CPAConfig(seed=0, dtype=dtype, backend="sharded", n_shards=2)
    supervised = reveal_truth_fraction(dataset, 0.3, seed=0)
    engine = VariationalInference(config, supervised.answers, truth=supervised.truth)
    for _ in range(8):
        engine.sweep()
    assert _subnormals(engine.state.kappa.astype(np.float32, copy=True)) > 0
    online = StochasticInference(
        config, dataset.n_items, dataset.n_workers, dataset.n_labels
    )
    for batch in stream_from_matrix(dataset.answers, answers_per_batch=400, seed=0):
        online.process_batch(batch)
    assert len(seen) > 20
    for arrays in seen:
        assert arrays
        for array in arrays:
            assert array.dtype == np.dtype(dtype)
            assert _subnormals(array) == 0


# ----------------------------------------------------- float32 vs float64


def _fit_pair(answers, **options):
    """The default (float32) and the float64 model, fitted alike."""
    models = []
    for dtype in DTYPES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            models.append(CPAModel(CPAConfig(dtype=dtype, **options)).fit(answers))
    assert models[0].config.dtype == CPAConfig().dtype == "float32"
    return models


def _assert_tracks(single, double):
    assert single.predict() == double.predict()
    for name in ("kappa", "phi", "lam", "cell_mass"):
        np.testing.assert_allclose(
            getattr(single.state_, name),
            getattr(double.state_, name),
            err_msg=name,
            **TRACKING,
        )


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_float32_tracks_float64_on_table4_scenarios(scenario):
    dataset = make_scenario(scenario, seed=0, scale=0.3)
    _assert_tracks(*_fit_pair(dataset.answers, seed=0))


def test_float32_tracks_float64_on_the_batch_lanes_data():
    """The perfbench ``batch_lanes`` data (30k answers), 60 sweeps."""
    dataset = generate_dataset(
        large_scale_config(n_items=3000, n_workers=600, answers_per_item=10), 0
    )
    _assert_tracks(
        *_fit_pair(dataset.answers, seed=0, max_iterations=60, tolerance=1e-12)
    )


# ---------------------------------------------------- float32 payloads


def test_float32_payload_restores_as_upcasts_and_replicas_match(tiny_dataset):
    matrix = tiny_dataset.answers
    sizes = (matrix.n_items, matrix.n_workers, matrix.n_labels)
    batches = list(AnswerStream(matrix, seed=7).by_answers(40))

    def engine():
        return ConsensusEngine(
            CPAConfig(seed=0), *sizes, seed=0, total_answers_hint=matrix.n_answers
        )

    source = engine()
    for batch in batches[:3]:
        source.ingest(batch)
    source.step()
    payload = float32_payload(source.snapshot_payload())
    writer = engine()
    writer.restore(payload)
    for name in POSTERIOR + ("mu",):
        array = getattr(writer.engine.state, name)
        assert array.dtype == np.float64, name
        np.testing.assert_array_equal(array, payload[name].astype(np.float64))

    writer.ingest(batches[3])
    writer.step()
    replica = engine()
    replica.restore(writer.snapshot_payload())
    for name in POSTERIOR + ("mu",):
        np.testing.assert_array_equal(
            getattr(replica.engine.state, name),
            getattr(writer.engine.state, name),
            err_msg=name,
        )
    assert replica.predict() == writer.predict()
    _, replica_probs = replica.label_probabilities()
    _, writer_probs = writer.label_probabilities()
    np.testing.assert_array_equal(replica_probs, writer_probs)
