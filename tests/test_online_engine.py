"""The one online engine behind :class:`CPAModel`'s online mode.

``start_online`` builds a :class:`~repro.core.online.ConsensusEngine` (the
engine the serving daemon runs), ``partial_fit`` is its ``ingest`` +
``step``, and every read uses the engine's refreshed view: the posterior
regenerated from every folded answer, computed on the first read after a
fold and cached until the next one.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import CPAConfig
from repro.core.model import CPAModel
from repro.core.online import ConsensusEngine
from repro.core.svi import StochasticInference
from repro.data.answers import AnswerMatrix
from repro.data.dataset import GroundTruth
from repro.data.streams import AnswerBatch, AnswerStream
from repro.errors import NotFittedError, ValidationError
from repro.simulation.generator import generate_dataset
from repro.utils.parallel import ThreadExecutor
from tests.conftest import tiny_config

STATE_ARRAYS = ("rho", "ups", "lam", "zeta", "kappa", "phi", "cell_mass", "mu")


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(tiny_config(name="online-oracle"), seed=41)


def _digest(model):
    """SHA-256 of ``predict()`` and of ``state_``'s arrays.

    Each array is hashed at six decimals of its largest magnitude: an
    OpenBLAS kernel for another CPU sums in another order and moves the
    last bits (the exact digests differ under ``OPENBLAS_CORETYPE=Haswell``,
    ``Sandybridge`` or ``Prescott``; these do not), while a changed fold,
    split or refresh moves values far more than that."""
    digest = hashlib.sha256()
    for item, labels in sorted(model.predict().items()):
        digest.update(f"{item}:{sorted(labels)};".encode())
    state = model.state_
    for name in STATE_ARRAYS:
        array = np.asarray(getattr(state, name), dtype=np.float64)
        scale = float(np.abs(array).max()) if array.size else 1.0
        digest.update(name.encode())
        digest.update((np.round(array / (scale or 1.0), 6) + 0.0).tobytes())
    return digest.hexdigest()


def _start(dataset, seed=0, **kwargs):
    config = CPAConfig(seed=seed, dtype="float64")
    return CPAModel(config).start_online(
        dataset.n_items, dataset.n_workers, dataset.n_labels, seed=seed, **kwargs
    )


class TestFrozenOracle:
    """Digests recorded from the implementation before the online mode
    moved onto the engine (its own fold loop, an eager refresh after every
    batch), in the float64 oracle mode."""

    def test_partial_fit_stream_read_after_each_arrival(self, dataset):
        # hint 300 answers: 75-answer arrivals fold as 50 + 25
        model = _start(dataset, total_answers_hint=dataset.n_answers)
        reads = []
        for batch in AnswerStream(dataset.answers, seed=5).by_fractions([0.25, 0.5, 0.75, 1.0]):
            model.partial_fit(batch)
            reads.append(_digest(model))
        assert reads == [
            "336ee474cf96ca86819524d0b974d5278fd948c12d66c5761e7bc2e5fcad4101",
            "6d6a60e507c720983544429db34f183bafe42f0af2f612fc7fd5d6443116a372",
            "be0ffadba6a71484910db2c0766864ff7233dfc4607400691f6938cc8ac4d42b",
            "3a9054179966a3c41f412c263984bd2c65bcfc848100324ef81bfb64fce6bbf3",
        ]

    def test_fit_online_with_partial_truth(self, dataset):
        truth = dataset.truth.restricted_to(range(0, dataset.n_items, 3))
        batches = list(AnswerStream(dataset.answers, seed=6).by_answers(70))
        model = CPAModel(CPAConfig(seed=0, dtype="float64")).fit_online(
            batches,
            dataset.n_items,
            dataset.n_workers,
            dataset.n_labels,
            truth=truth,
            seed=1,
            total_answers_hint=dataset.n_answers,
        )
        assert _digest(model) == "26ab4ccaec4e7029b88eec89ebd1eaae60877912f1a8110a0c8038e56482f6b7"

    def test_sharded_fit_online_on_an_executor(self, dataset):
        config = CPAConfig(
            seed=2, dtype="float64", backend="sharded", n_shards=2, svi_batch_answers=40
        )
        batches = list(AnswerStream(dataset.answers, seed=7).by_fractions([0.3, 0.6, 1.0]))
        executor = ThreadExecutor(2)
        try:
            model = CPAModel(config).fit_online(
                batches,
                dataset.n_items,
                dataset.n_workers,
                dataset.n_labels,
                seed=2,
                executor=executor,
            )
            assert _digest(model) == (
                "fd296f640d4766ad6fc66dc66307440861c0ee0257221e08e92c60701294e65a"
            )
        finally:
            executor.close()


class TestLazyRefresh:
    @pytest.fixture()
    def refreshes(self, monkeypatch):
        calls = []
        original = StochasticInference.refreshed_state

        def counting(engine, matrix, *args, **kwargs):
            calls.append(matrix.n_answers)
            return original(engine, matrix, *args, **kwargs)

        monkeypatch.setattr(StochasticInference, "refreshed_state", counting)
        return calls

    def test_reads_share_one_refresh_until_the_next_fold(self, dataset, refreshes):
        model = _start(dataset, total_answers_hint=dataset.n_answers)
        batches = list(AnswerStream(dataset.answers, seed=5).by_answers(60))
        for batch in batches[:3]:
            model.partial_fit(batch)
        assert refreshes == []
        first = model.predict()
        state = model.state_
        assert refreshes == [180]
        assert model.consensus_ is model.consensus_
        assert model.predict() == first and model.state_ is state
        assert refreshes == [180]
        model.partial_fit(batches[3])
        model.predict_proba()
        assert model.state_ is not state
        assert refreshes == [180, 240]

    def test_a_model_with_no_answers_reads_the_raw_state(self, dataset, refreshes):
        model = _start(dataset)
        assert model.state_ is model.online_engine_.engine.state
        assert model.predict() == {}
        assert refreshes == []


def _answers(n_items, n_workers, n_labels, pairs, seed):
    rng = np.random.default_rng(seed)
    matrix = AnswerMatrix(n_items, n_workers, n_labels)
    for item, worker in pairs:
        labels = np.flatnonzero(rng.random(n_labels) < 0.4).tolist() or [int(item) % n_labels]
        matrix.add(item, worker, labels)
    return matrix


class TestEngineBehaviour:
    """What the online model gains from the engine: growth and checks."""

    @pytest.mark.parametrize("with_truth", [False, True])
    def test_a_wider_batch_grows_the_model(self, with_truth):
        truth = GroundTruth.from_mapping(20, 4, {0: [1], 3: [0, 2]}) if with_truth else None
        model = CPAModel(CPAConfig(seed=0)).start_online(20, 10, 4, truth=truth, seed=0)
        pairs = [(item, (item * 3 + k) % 10) for item in range(20) for k in range(3)]
        model.partial_fit(AnswerBatch(0, _answers(20, 10, 4, pairs, seed=1)))
        wide_pairs = [(20, 10), (20, 2), (5, 10), (7, 4)]
        model.partial_fit(AnswerBatch(1, _answers(21, 11, 5, wide_pairs, seed=2)))
        metrics = model.online_engine_.metrics()
        assert (metrics["n_items"], metrics["n_workers"], metrics["n_labels"]) == (21, 11, 5)
        assert metrics["batches_seen"] == 2
        predictions = model.predict()
        assert 20 in predictions
        assert model.predict_proba([20]).shape == (1, 5)
        assert model.state_.phi.shape[0] == 21

    def test_a_malformed_batch_raises_and_changes_nothing(self, dataset):
        batches = list(AnswerStream(dataset.answers, seed=5).by_answers(60))
        model = _start(dataset, total_answers_hint=dataset.n_answers)
        twin = _start(dataset, total_answers_hint=dataset.n_answers)
        for batch in batches[:2]:
            model.partial_fit(batch)
            twin.partial_fit(batch)
        before = (_digest(model), model.online_engine_.metrics())
        wider = AnswerMatrix.from_arrays(
            dataset.n_items + 4, dataset.n_workers, dataset.n_labels,
            *batches[2].matrix.to_arrays(),
        )
        bad = AnswerBatch(2, wider)
        wider._items[1], wider._workers[1] = wider._items[0], wider._workers[0]
        with pytest.raises(ValidationError, match="appears more than once"):
            model.partial_fit(bad)
        with pytest.raises(ValidationError, match="AnswerBatch"):
            model.partial_fit(batches[2].matrix)
        after = (_digest(model), model.online_engine_.metrics())
        assert after[0] == before[0]
        for key in ("n_items", "answers_seen", "answers_applied", "batches_seen"):
            assert after[1][key] == before[1][key]
        for batch in batches[2:]:
            model.partial_fit(batch)
            twin.partial_fit(batch)
        assert _digest(model) == _digest(twin)

    def test_a_batch_fit_ends_the_online_mode(self, dataset):
        batch = next(iter(AnswerStream(dataset.answers, seed=1).by_answers(10)))
        model = _start(dataset)
        model.partial_fit(batch)
        model.fit(dataset.answers)
        assert model.online_engine_ is None
        assert model.state_ is model.inference_result_.state
        with pytest.raises(NotFittedError):
            model.partial_fit(batch)


@pytest.mark.parametrize(
    "step, hint, expected",
    [
        (100, None, 100),
        (100, 40_000, 100),  # perfbench serve_fleet
        (100, 80_000, 100),  # bench_serving's one-step delta
        (200, 16_000, 200),  # bench_serving's fleet run
        (100, 1_200, 60),
        (100, 300, 50),
        (20, 300, 20),  # the serving tests' steps sit below the floor
        (40, None, 40),
    ],
)
def test_one_step_size_rule(step, hint, expected):
    engine = ConsensusEngine(
        CPAConfig(seed=0, svi_batch_answers=step), 10, 5, 3, total_answers_hint=hint
    )
    assert engine.step_answers() == expected
