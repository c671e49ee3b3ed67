"""Differential tests: the vectorised prediction path against its frozen oracle.

:mod:`repro.core.reference` keeps the per-answer, per-item prediction loops
the vectorised :mod:`repro.core.prediction` replaced.  The contract
(DESIGN.md §6 "Prediction path"):

* label sets are identical; a difference is allowed only on an exact
  greedy tie, detected as both sets scoring within ``1e-9`` under the
  oracle's objective;
* weights, evidence, probabilities, objectives and cluster weights agree
  to ``rtol=1e-10`` (``atol=1e-12`` only covers entries that cancel to
  about zero, where no relative tolerance is meaningful).

The cases cover duplicate, unanswered and out-of-range items, answer
matrices narrower than the state, every prediction option, float32
states, and items whose answers straddle a block boundary (the block
constant patched down to a few answers).
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import prediction, reference
from repro.core.config import CPAConfig
from repro.core.consensus import ClusterConsensus, CommunityLabelRates
from repro.core.kernels import unique_patterns
from repro.core.model import CPAModel
from repro.core.state import CPAState
from repro.data.answers import AnswerMatrix
from repro.errors import ValidationError
from repro.utils.math import logsumexp, safe_log

RTOL = 1e-10
ATOL = 1e-12
TIE = 1e-9


def _rows(rng, n, k, dtype):
    """Random distribution rows with some exact zeros (exercises the EPS floor)."""
    rows = rng.dirichlet(np.full(k, 0.7), size=n)
    rows[rng.random((n, k)) < 0.15] = 0.0
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    return (rows / rows.sum(axis=1, keepdims=True)).astype(dtype)


def _case(seed, dtype=np.float64, *, n_items=14, n_workers=9, n_labels=6, narrow=0):
    """A random posterior, consensus and answer matrix.

    The matrix has ``narrow`` fewer labels than the state and two more
    items (answers beyond the fitted item space use the cluster prior).
    """
    rng = np.random.default_rng(seed)
    t, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    state = CPAState(
        n_items=n_items,
        n_workers=n_workers,
        n_labels=n_labels,
        n_clusters=t,
        n_communities=m,
        rho=np.ones((m - 1, 2)),
        ups=np.ones((t - 1, 2)),
        # concentrations on both sides of 1: Dirichlet mode and mean fallback
        lam=(rng.gamma(1.0, 1.5, size=(t, m, n_labels)) + 0.05).astype(dtype),
        zeta=np.ones((t, n_labels, 2)),
        kappa=_rows(rng, n_workers, m, dtype),
        phi=_rows(rng, n_items, t, dtype),
        cell_mass=np.ones((t, m)),
    )
    consensus = ClusterConsensus(
        inclusion=rng.uniform(0.02, 0.98, size=(t, n_labels)).astype(dtype),
        cluster_weights=_rows(rng, 1, t, dtype)[0],
        community_weights=np.ones(m),
        discriminability=np.zeros(m),
        community_sizes=np.ones(m),
        label_rates=CommunityLabelRates(
            sensitivity=rng.uniform(0.05, 0.95, size=(m, n_labels)),
            false_rate=rng.uniform(0.05, 0.95, size=(m, n_labels)),
        ),
    )
    width = n_labels - narrow
    answers = AnswerMatrix(n_items + 2, n_workers, width)
    pool = [tuple(np.flatnonzero(rng.random(width) < 0.4)) or (0,) for _ in range(5)]
    for item in range(n_items + 2):
        if rng.random() < 0.2:
            continue  # an unanswered item
        for worker in rng.choice(n_workers, size=int(rng.integers(1, 6)), replace=False):
            if rng.random() < 0.6:
                labels = pool[int(rng.integers(len(pool)))]
            else:
                labels = tuple(np.flatnonzero(rng.random(width) < 0.4)) or (width - 1,)
            answers.add(item, int(worker), labels)
    return state, consensus, answers


def _items(seed, state, answers):
    """Answered, unanswered, out-of-range and repeated items, shuffled."""
    rng = np.random.default_rng(seed + 1)
    pool = list(range(state.n_items + 4)) + [state.n_items + 40]
    items = list(rng.choice(pool, size=len(pool) + 5, replace=True))
    return [int(i) for i in items]


def _objective(log_w, inclusion, evidence, labels):
    """The oracle's objective of one label set."""
    log_incl, log_excl = safe_log(inclusion), safe_log(1.0 - inclusion)
    idx = sorted(labels)
    log_g = log_excl.sum(axis=1) + (log_incl - log_excl + evidence[None, :])[:, idx].sum(axis=1)
    return float(logsumexp(log_w + log_g))


def _close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)


def _assert_same_predictions(state, consensus, answers, config, items, **kwargs):
    new = prediction.predict_items(state, consensus, answers, config, items, **kwargs)
    old = reference.predict_items(state, consensus, answers, config, items, **kwargs)
    assert list(new) == list(old)
    order = list(old)
    log_w = reference.item_cluster_log_weights(state, consensus, answers, order)
    if config.use_item_evidence and consensus.label_rates is not None:
        evidence = config.evidence_weight * reference.item_evidence(
            state, consensus, answers, order
        )
    else:
        evidence = np.zeros((len(order), state.n_labels))
    for row, item in enumerate(order):
        got, want = new[item], old[item]
        assert isinstance(got, prediction.PredictionDetail)
        if got.labels != want.labels:
            gap = abs(
                _objective(log_w[row], consensus.inclusion, evidence[row], got.labels)
                - _objective(log_w[row], consensus.inclusion, evidence[row], want.labels)
            )
            assert gap <= TIE, f"item {item}: {got.labels} vs {want.labels}, gap {gap}"
            continue
        _close(got.log_objective, want.log_objective)
        _close(got.cluster_weights, want.cluster_weights)


CONFIGS = [
    CPAConfig(),
    CPAConfig(use_item_evidence=False),
    CPAConfig(evidence_weight=0.4),
    CPAConfig(max_predicted_labels=2),
    CPAConfig(max_predicted_labels=1, evidence_weight=2.5),
]


class TestDifferentialOracle:
    @given(
        seed=st.integers(0, 10_000),
        dtype=st.sampled_from([np.float64, np.float32]),
        narrow=st.integers(0, 2),
        block=st.sampled_from([1, 3, 7, prediction.BLOCK]),
        config=st.sampled_from(CONFIGS),
        drop_rates=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_predict_items_matches_oracle(
        self, seed, dtype, narrow, block, config, drop_rates
    ):
        state, consensus, answers = _case(seed, dtype, narrow=narrow)
        if drop_rates:
            consensus = replace(consensus, label_rates=None)
        items = _items(seed, state, answers)
        with mock.patch.object(prediction, "BLOCK", block):
            _assert_same_predictions(state, consensus, answers, config, items)
            _assert_same_predictions(state, consensus, answers, config, None)

    @given(
        seed=st.integers(0, 10_000),
        dtype=st.sampled_from([np.float64, np.float32]),
        narrow=st.integers(0, 2),
        block=st.sampled_from([1, 2, 5, prediction.BLOCK]),
        use_phi=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_and_evidence_match_oracle(self, seed, dtype, narrow, block, use_phi):
        state, consensus, answers = _case(seed, dtype, narrow=narrow)
        items = _items(seed, state, answers)
        with mock.patch.object(prediction, "BLOCK", block):
            _close(
                prediction.item_cluster_log_weights(
                    state, consensus, answers, items, use_phi=use_phi
                ),
                reference.item_cluster_log_weights(
                    state, consensus, answers, items, use_phi=use_phi
                ),
            )
            _close(
                prediction.item_evidence(state, consensus, answers, items),
                reference.item_evidence(state, consensus, answers, items),
            )

    @given(
        seed=st.integers(0, 10_000),
        dtype=st.sampled_from([np.float64, np.float32]),
        block=st.sampled_from([1, 4, prediction.BLOCK]),
        config=st.sampled_from(CONFIGS),
    )
    @settings(max_examples=40, deadline=None)
    def test_label_probabilities_match_oracle(self, seed, dtype, block, config):
        state, consensus, answers = _case(seed, dtype)
        items = _items(seed, state, answers)
        weight = config.evidence_weight if config.use_item_evidence else 0.0
        log_w = reference.item_cluster_log_weights(state, consensus, answers, items)
        weights = np.exp(log_w - logsumexp(log_w, axis=1, keepdims=True))
        prior = np.clip(weights @ consensus.inclusion, 1e-6, 1.0 - 1e-6)
        logits = np.log(prior) - np.log1p(-prior)
        if weight > 0:
            logits += weight * reference.item_evidence(state, consensus, answers, items)
        with mock.patch.object(prediction, "BLOCK", block):
            got = prediction.label_probabilities(state, consensus, answers, config, items)
        _close(got, 1.0 / (1.0 + np.exp(-logits)))

    @given(seed=st.integers(0, 10_000), dtype=st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=20, deadline=None)
    def test_exhaustive_matches_oracle(self, seed, dtype):
        state, consensus, answers = _case(seed, dtype, n_labels=5)
        items = _items(seed, state, answers)
        _assert_same_predictions(
            state, consensus, answers, CPAConfig(), items, exhaustive=True
        )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fitted_model_matches_oracle(self, tiny_dataset, dtype):
        model = CPAModel(CPAConfig(seed=1, max_iterations=25, dtype=dtype)).fit(
            tiny_dataset
        )
        state, consensus = model.state_, model.consensus_
        for block in (3, prediction.BLOCK):
            with mock.patch.object(prediction, "BLOCK", block):
                _assert_same_predictions(
                    state, consensus, tiny_dataset.answers, model.config, None
                )

    def test_block_search_is_one_call_per_block(self, tiny_model, tiny_dataset):
        calls = []
        real = prediction.greedy_map_labels

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        items = tiny_dataset.answers.answered_items()
        with mock.patch.object(prediction, "BLOCK", 16), mock.patch.object(
            prediction, "greedy_map_labels", counting
        ):
            prediction.predict_items(
                tiny_model.state_, tiny_model.consensus_, tiny_dataset.answers,
                tiny_model.config,
            )
        assert calls == [16] * (len(items) // 16) + [len(items) % 16] * bool(len(items) % 16)


class TestGreedyBatch:
    def test_one_dimensional_call_is_a_one_row_block(self):
        rng = np.random.default_rng(3)
        inclusion = rng.uniform(0.05, 0.95, size=(4, 7))
        log_w = rng.normal(size=(5, 4))
        evidence = rng.normal(size=(5, 7))
        block = prediction.greedy_map_labels(log_w, inclusion, evidence=evidence)
        for row in range(5):
            single = prediction.greedy_map_labels(
                log_w[row], inclusion, evidence=evidence[row]
            )
            assert single.labels == block[row].labels
            assert single.log_objective == block[row].log_objective
            np.testing.assert_array_equal(single.cluster_weights, block[row].cluster_weights)

    def test_empty_block(self):
        assert prediction.greedy_map_labels(np.zeros((0, 3)), np.full((3, 4), 0.5)) == []

    def test_exact_tie_is_a_tie_under_the_oracle(self):
        # two identical label columns: either choice reaches the same objective
        inclusion = np.array([[0.8, 0.8, 0.1], [0.7, 0.7, 0.2]])
        log_w = np.log(np.array([[0.6, 0.4]]))
        got = prediction.greedy_map_labels(log_w, inclusion, max_labels=1)[0]
        want = reference.greedy_map_labels(log_w[0], inclusion, max_labels=1)
        assert len(got.labels) == 1 and got.labels <= {0, 1}
        _close(got.log_objective, want.log_objective)


class TestUniquePatterns:
    @given(
        n_labels=st.sampled_from([1, 8, 9, 64, 65, 70]),
        n_rows=st.integers(0, 60),
        density=st.floats(0.0, 1.0),
        pool=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy_unique(self, n_labels, n_rows, density, pool, seed):
        rng = np.random.default_rng(seed)
        rows = (rng.random((pool, n_labels)) < density).astype(float)
        x = rows[rng.integers(pool, size=n_rows)]
        x[rng.random(x.shape) < 0.05] = 1.0
        patterns, index = unique_patterns(x)
        want_patterns, want_index = np.unique(x, axis=0, return_inverse=True)
        assert patterns.dtype == want_patterns.dtype
        np.testing.assert_array_equal(patterns, want_patterns)
        np.testing.assert_array_equal(index, np.asarray(want_index).reshape(-1))
        assert index.dtype == np.int64 and index.shape == (n_rows,)


class TestTypedInputErrors:
    """Mismatched prediction inputs raise ``ValidationError`` naming sizes."""

    def _wider(self, dataset, workers=0, labels=0):
        answers = dataset.answers
        wide = AnswerMatrix(
            answers.n_items, answers.n_workers + workers, answers.n_labels + labels
        )
        for answer in answers.iter_answers():
            wide.add(answer.item, answer.worker, answer.labels)
        wide.add(0, wide.n_workers - 1, {wide.n_labels - 1})
        return wide

    @pytest.mark.parametrize("extra", [dict(workers=1), dict(labels=1)])
    def test_predict_rejects_wider_answers(self, tiny_model, tiny_dataset, extra):
        wide = self._wider(tiny_dataset, **extra)
        with pytest.raises(ValidationError, match=r"workers.*labels.*fitted state"):
            tiny_model.predict(answers=wide)
        with pytest.raises(ValidationError, match=r"workers.*labels.*fitted state"):
            tiny_model.predict_proba(answers=wide)

    @pytest.mark.parametrize("items", [[-1], [0, -3], ["x"], [None], [2**70]])
    def test_predict_rejects_bad_items(self, tiny_model, items):
        with pytest.raises(ValidationError):
            tiny_model.predict(items=items)
        with pytest.raises(ValidationError):
            tiny_model.predict_proba(items=items)

    def test_items_beyond_the_space_use_the_cluster_prior(self, tiny_model, tiny_dataset):
        state, consensus = tiny_model.state_, tiny_model.consensus_
        beyond = state.n_items + 5
        weights = prediction.item_cluster_log_weights(
            state, consensus, tiny_dataset.answers, [beyond]
        )
        np.testing.assert_array_equal(weights[0], safe_log(consensus.cluster_weights))
        assert beyond in tiny_model.predict(items=[beyond])

    def test_serve_engine_rejects_negative_items(self, tiny_dataset):
        from repro.core.svi import stream_from_matrix
        from repro.serve import ConsensusEngine

        answers = tiny_dataset.answers
        engine = ConsensusEngine(
            CPAConfig(seed=0, max_truncation=6),
            answers.n_items,
            answers.n_workers,
            answers.n_labels,
            seed=0,
        )
        engine.ingest(stream_from_matrix(answers, answers_per_batch=60, seed=0)[0])
        engine.step()
        with pytest.raises(ValidationError):
            engine.predict([-1])
        with pytest.raises(ValidationError):
            engine.label_probabilities([2, -1])
        assert engine.metrics()["queries"] == 0
