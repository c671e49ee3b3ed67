"""Tests for stochastic inference and CPAModel."""

import numpy as np
import pytest

from repro.core.config import CPAConfig
from repro.core.model import CPAModel
from repro.core.natural_gradients import interpolate, learning_rate, stick_targets
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.data.streams import AnswerStream
from repro.errors import NotFittedError, ValidationError
from repro.evaluation.metrics import evaluate_predictions
from repro.utils.parallel import SerialExecutor, make_executor


class TestNaturalGradients:
    def test_learning_rate_schedule(self):
        rates = [learning_rate(b, 0.875) for b in range(1, 6)]
        assert all(0 < r < 1 for r in rates)
        assert rates == sorted(rates, reverse=True)
        with pytest.raises(ValueError):
            learning_rate(0, 0.875)

    def test_interpolate_endpoints(self):
        old, target = np.zeros(3), np.ones(3)
        np.testing.assert_allclose(interpolate(old, target, 0.0), old)
        np.testing.assert_allclose(interpolate(old, target, 1.0), target)

    def test_stick_targets_tail_sums(self):
        mass = np.array([4.0, 3.0, 2.0, 1.0])
        targets = stick_targets(mass, alpha := 2.0)
        np.testing.assert_allclose(targets[:, 0], [5.0, 4.0, 3.0])
        np.testing.assert_allclose(targets[:, 1], [alpha + 6, alpha + 3, alpha + 1])


class TestStochasticInference:
    def _engine(self, dataset, **kw):
        return StochasticInference(
            CPAConfig(seed=0, svi_iterations=2),
            dataset.n_items,
            dataset.n_workers,
            dataset.n_labels,
            seed=0,
            total_answers_hint=dataset.n_answers,
            **kw,
        )

    def test_state_valid_after_stream(self, tiny_dataset):
        engine = self._engine(tiny_dataset)
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=40, seed=1)
        state = engine.fit_stream(batches)
        state.validate()
        assert state.batches_seen == len(batches)

    def test_empty_batch_is_noop(self, tiny_dataset):
        engine = self._engine(tiny_dataset)
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=60, seed=1)
        engine.process_batch(batches[0])
        before = engine.state.lam.copy()
        from repro.data.answers import AnswerMatrix
        from repro.data.streams import AnswerBatch

        empty = AnswerBatch(
            index=99,
            workers=(),
            items=(),
            pairs=(),
            matrix=AnswerMatrix(
                tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels
            ),
        )
        engine.process_batch(empty)
        np.testing.assert_array_equal(engine.state.lam, before)
        assert engine.state.batches_seen == 2

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_serial_and_parallel_identical(self, tiny_dataset, kind):
        """The MAP phase splits work by pattern range, and every answer's
        contraction and every reduction runs the same way whatever the
        lane count, so parallel lanes reproduce the serial stream bitwise."""
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=50, seed=2)
        serial = self._engine(tiny_dataset, executor=SerialExecutor())
        serial.fit_stream(batches)
        with make_executor(kind, 2) as pool:
            parallel = self._engine(tiny_dataset, executor=pool)
            parallel.fit_stream(batches)
        np.testing.assert_array_equal(serial.state.lam, parallel.state.lam)
        np.testing.assert_array_equal(serial.state.phi, parallel.state.phi)

    def test_refreshed_state_does_not_mutate_engine(self, tiny_dataset):
        engine = self._engine(tiny_dataset)
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=50, seed=3)
        engine.fit_stream(batches)
        lam_before = engine.state.lam.copy()
        refreshed = engine.refreshed_state(tiny_dataset.answers, sweeps=1)
        refreshed.validate()
        np.testing.assert_array_equal(engine.state.lam, lam_before)

    def test_gradient_scale_prefers_hint(self, tiny_dataset):
        engine = self._engine(tiny_dataset)
        batches = stream_from_matrix(tiny_dataset.answers, answers_per_batch=30, seed=4)
        from repro.core.svi import _prepare_batch

        data = _prepare_batch(batches[0])
        expected = tiny_dataset.n_answers / data.items.size
        assert engine._gradient_scale(data) == pytest.approx(expected)

    def test_stream_from_matrix_validation(self, tiny_dataset):
        with pytest.raises(ValidationError):
            stream_from_matrix(tiny_dataset.answers)
        with pytest.raises(ValidationError):
            stream_from_matrix(
                tiny_dataset.answers, answers_per_batch=10, workers_per_batch=5
            )


class TestCPAModel:
    def test_unfitted_raises(self):
        model = CPAModel()
        with pytest.raises(NotFittedError):
            model.predict()
        with pytest.raises(NotFittedError):
            _ = model.state_

    def test_fit_predict_accuracy(self, tiny_model, tiny_dataset):
        result = evaluate_predictions(tiny_model.predict(), tiny_dataset.truth)
        assert result.precision > 0.6
        assert result.recall > 0.5

    def test_fit_accepts_matrix_and_dataset(self, tiny_dataset):
        by_dataset = CPAModel(CPAConfig(seed=1, max_iterations=10)).fit(tiny_dataset)
        by_matrix = CPAModel(CPAConfig(seed=1, max_iterations=10)).fit(
            tiny_dataset.answers
        )
        assert by_dataset.predict() == by_matrix.predict()

    def test_truth_argument_conflict(self, tiny_dataset):
        with pytest.raises(ValidationError):
            CPAModel().fit(tiny_dataset, truth=tiny_dataset.truth)

    def test_fit_with_bad_input(self):
        with pytest.raises(ValidationError):
            CPAModel().fit("not a dataset")  # type: ignore[arg-type]

    def test_online_pipeline(self, tiny_dataset):
        model = CPAModel(CPAConfig(seed=0)).start_online(
            tiny_dataset.n_items,
            tiny_dataset.n_workers,
            tiny_dataset.n_labels,
            seed=0,
            total_answers_hint=tiny_dataset.n_answers,
        )
        stream = AnswerStream(tiny_dataset.answers, seed=7)
        scores = []
        for batch in stream.by_fractions([0.5, 1.0]):
            model.partial_fit(batch)
            result = evaluate_predictions(model.predict(), tiny_dataset.truth)
            scores.append(result.f1)
        assert scores[-1] >= scores[0] - 0.05  # quality improves (or holds)
        assert model.is_fitted

    def test_partial_fit_before_start_raises(self, tiny_dataset):
        model = CPAModel()
        batch = next(
            iter(AnswerStream(tiny_dataset.answers, seed=1).by_answers(10))
        )
        with pytest.raises(NotFittedError):
            model.partial_fit(batch)

    def test_fit_online_end_to_end(self, tiny_dataset):
        batches = stream_from_matrix(
            tiny_dataset.answers, answers_per_batch=60, seed=2
        )
        model = CPAModel(CPAConfig(seed=0)).fit_online(
            batches,
            tiny_dataset.n_items,
            tiny_dataset.n_workers,
            tiny_dataset.n_labels,
            seed=0,
            total_answers_hint=tiny_dataset.n_answers,
        )
        result = evaluate_predictions(model.predict(), tiny_dataset.truth)
        # SVI sees very few batches at this tiny scale; plumbing check only.
        assert result.precision > 0.2

    def test_predict_for_new_answers(self, tiny_model, tiny_dataset):
        from repro.data.answers import AnswerMatrix

        fresh = AnswerMatrix(
            tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels
        )
        truth0 = sorted(tiny_dataset.truth.get(0))
        fresh.add(0, 0, truth0)
        fresh.add(0, 1, truth0)
        predictions = tiny_model.predict([0], answers=fresh)
        assert set(predictions) == {0}
        assert predictions[0]  # non-empty

    def test_structure_accessors(self, tiny_model, tiny_dataset):
        assert len(tiny_model.worker_communities()) == tiny_dataset.n_workers
        assert len(tiny_model.item_clusters()) == tiny_dataset.n_items
        assert tiny_model.n_effective_communities() >= 2
        assert tiny_model.n_effective_clusters() >= 2
        assert tiny_model.community_reliability().shape == (
            tiny_model.state_.n_communities,
        )

    def test_predict_proba_shape(self, tiny_model, tiny_dataset):
        probs = tiny_model.predict_proba()
        assert probs.shape[1] == tiny_dataset.n_labels

    def test_exhaustive_prediction_small_space(self, tiny_model):
        predictions = tiny_model.predict(items=[0, 1], exhaustive=True)
        assert set(predictions) == {0, 1}
