"""Tests for consensus estimation, MAP prediction, and diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import CPAConfig
from repro.core.consensus import (
    community_discriminability,
    community_label_rates,
    estimate_consensus,
)
from repro.core.model import CPAModel
from repro.core.diagnostics import (
    community_summaries,
    count_label_communities,
    worker_operating_points,
)
from repro.core.prediction import (
    exhaustive_map_labels,
    greedy_map_labels,
    item_evidence,
    label_probabilities,
    predict_items,
)
from repro.errors import PredictionError, ValidationError


class TestConsensus:
    def test_consensus_shapes(self, tiny_model, tiny_dataset):
        consensus = tiny_model.consensus_
        state = tiny_model.state_
        assert consensus.inclusion.shape == (state.n_clusters, state.n_labels)
        assert np.all(consensus.inclusion > 0) and np.all(consensus.inclusion < 1)
        np.testing.assert_allclose(consensus.cluster_weights.sum(), 1.0)
        assert consensus.label_rates is not None

    def test_discriminability_bounds(self, tiny_model):
        disc = community_discriminability(tiny_model.state_)
        assert np.all(disc >= 0) and np.all(disc <= 1)

    def test_spammer_communities_downweighted(self, tiny_model, tiny_dataset):
        consensus = tiny_model.consensus_
        communities = tiny_model.worker_communities()
        weights = consensus.community_weights
        spam_w, honest_w = [], []
        for worker, worker_type in enumerate(tiny_dataset.worker_types):
            target = spam_w if worker_type.endswith("spammer") else honest_w
            target.append(weights[communities[worker]])
        assert np.mean(honest_w) > np.mean(spam_w)

    def test_label_rates_spammers_uninformative(self, tiny_model, tiny_dataset):
        rates = tiny_model.consensus_.label_rates
        communities = tiny_model.worker_communities()
        gaps = {"spam": [], "honest": []}
        for worker, worker_type in enumerate(tiny_dataset.worker_types):
            m = communities[worker]
            gap = float(np.mean(rates.sensitivity[m] - rates.false_rate[m]))
            gaps["spam" if worker_type.endswith("spammer") else "honest"].append(gap)
        assert np.mean(gaps["honest"]) > np.mean(gaps["spam"])

    def test_consensus_true_labels_ranked_higher(self, tiny_model, tiny_dataset):
        consensus = tiny_model.consensus_
        clusters = tiny_model.item_clusters()
        true_vals, false_vals = [], []
        for item in range(tiny_dataset.n_items):
            truth = tiny_dataset.truth.get(item)
            row = consensus.inclusion[clusters[item]]
            for label in range(tiny_dataset.n_labels):
                (true_vals if label in truth else false_vals).append(row[label])
        assert np.mean(true_vals) > np.mean(false_vals) + 0.2

    def test_empty_rates_without_answers(self, tiny_model):
        from repro.data.answers import AnswerMatrix

        empty = AnswerMatrix(
            tiny_model.state_.n_items,
            tiny_model.state_.n_workers,
            tiny_model.state_.n_labels,
        )
        rates = community_label_rates(
            tiny_model.state_, tiny_model.consensus_.inclusion, empty
        )
        np.testing.assert_allclose(rates.sensitivity, 0.5)


class TestGreedySearch:
    def test_simple_inclusion(self):
        inclusion = np.array([[0.9, 0.8, 0.05]])
        detail = greedy_map_labels(np.array([0.0]), inclusion)
        assert detail.labels == frozenset({0, 1})

    def test_empty_when_nothing_likely(self):
        inclusion = np.array([[0.1, 0.2, 0.3]])
        detail = greedy_map_labels(np.array([0.0]), inclusion)
        assert detail.labels == frozenset()

    def test_max_labels_cap(self):
        inclusion = np.array([[0.9, 0.9, 0.9, 0.9]])
        detail = greedy_map_labels(np.array([0.0]), inclusion, max_labels=2)
        assert len(detail.labels) == 2

    def test_cluster_mixture_respected(self):
        # Two clusters with disjoint label profiles; weights pick cluster 1.
        inclusion = np.array([[0.9, 0.05], [0.05, 0.9]])
        detail = greedy_map_labels(np.log(np.array([1e-6, 1.0])), inclusion)
        assert detail.labels == frozenset({1})
        assert detail.cluster_weights[1] > 0.9

    def test_evidence_shifts_decision(self):
        inclusion = np.array([[0.3, 0.3]])
        no_evidence = greedy_map_labels(np.array([0.0]), inclusion)
        assert no_evidence.labels == frozenset()
        pushed = greedy_map_labels(
            np.array([0.0]), inclusion, evidence=np.array([3.0, -3.0])
        )
        assert pushed.labels == frozenset({0})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PredictionError):
            greedy_map_labels(np.zeros(2), np.full((3, 4), 0.5))

    @given(
        hnp.arrays(float, (3, 6), elements=st.floats(0.05, 0.95)),
        hnp.arrays(float, 3, elements=st.floats(-3, 3)),
    )
    @settings(max_examples=40, deadline=None)
    def test_greedy_never_beats_exhaustive(self, inclusion, log_w):
        greedy = greedy_map_labels(log_w, inclusion)
        exact = exhaustive_map_labels(log_w, inclusion)
        assert greedy.log_objective <= exact.log_objective + 1e-9

    @given(
        hnp.arrays(float, (2, 5), elements=st.floats(0.05, 0.95)),
        hnp.arrays(float, 2, elements=st.floats(-2, 2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_greedy_objective_valid(self, inclusion, log_w):
        detail = greedy_map_labels(log_w, inclusion)
        assert np.isfinite(detail.log_objective)
        np.testing.assert_allclose(detail.cluster_weights.sum(), 1.0, atol=1e-6)


class TestExhaustiveSearch:
    def test_matches_manual_enumeration(self):
        inclusion = np.array([[0.8, 0.3]])
        detail = exhaustive_map_labels(np.array([0.0]), inclusion)
        assert detail.labels == frozenset({0})

    def test_limit_enforced(self):
        with pytest.raises(PredictionError):
            exhaustive_map_labels(np.zeros(1), np.full((1, 20), 0.5), limit=16)


class TestPredictPipeline:
    def test_predict_items_covers_all_answered(self, tiny_model, tiny_dataset):
        details = predict_items(
            tiny_model.state_,
            tiny_model.consensus_,
            tiny_dataset.answers,
            tiny_model.config,
        )
        assert set(details) == set(tiny_dataset.answers.answered_items())

    def test_item_evidence_zero_without_rates(self, tiny_model, tiny_dataset):
        from dataclasses import replace

        bare = replace(tiny_model.consensus_, label_rates=None)
        evidence = item_evidence(tiny_model.state_, bare, tiny_dataset.answers, [0, 1])
        np.testing.assert_array_equal(evidence, 0.0)

    def test_label_probabilities_in_unit_interval(self, tiny_model, tiny_dataset):
        probs = label_probabilities(
            tiny_model.state_, tiny_model.consensus_, tiny_dataset.answers
        )
        assert probs.shape == (tiny_dataset.n_items, tiny_dataset.n_labels)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_probabilities_rank_true_labels_higher(self, tiny_model, tiny_dataset):
        items = tiny_dataset.answers.answered_items()
        probs = label_probabilities(
            tiny_model.state_, tiny_model.consensus_, tiny_dataset.answers, items=items
        )
        true_mean, false_mean = [], []
        for row, item in enumerate(items):
            truth = tiny_dataset.truth.get(item)
            for label in range(tiny_dataset.n_labels):
                (true_mean if label in truth else false_mean).append(probs[row, label])
        assert np.mean(true_mean) > np.mean(false_mean) + 0.3

    def test_label_probabilities_honor_use_item_evidence(
        self, tiny_model, tiny_dataset
    ):
        """Regression: ``label_probabilities`` used to apply evidence at a
        hard-coded weight 1.0, ignoring ``config.use_item_evidence`` —
        ``predict_proba`` could use evidence while ``predict`` did not."""
        from dataclasses import replace

        state, consensus = tiny_model.state_, tiny_model.consensus_
        answers = tiny_dataset.answers
        no_evidence_cfg = tiny_model.config.with_overrides(use_item_evidence=False)
        off = label_probabilities(state, consensus, answers, no_evidence_cfg)
        # config off must equal stripping the rates entirely
        bare = replace(consensus, label_rates=None)
        np.testing.assert_array_equal(
            off, label_probabilities(state, bare, answers, no_evidence_cfg)
        )
        # and must differ from the evidence-on path
        on = label_probabilities(state, consensus, answers, tiny_model.config)
        assert not np.allclose(off, on)

    def test_label_probabilities_honor_evidence_weight(self, tiny_model, tiny_dataset):
        state, consensus = tiny_model.state_, tiny_model.consensus_
        answers = tiny_dataset.answers
        half_cfg = tiny_model.config.with_overrides(evidence_weight=0.5)
        half = label_probabilities(state, consensus, answers, half_cfg)
        np.testing.assert_array_equal(
            half,
            label_probabilities(state, consensus, answers, evidence_weight=0.5),
        )
        # explicit weight overrides the config
        full = label_probabilities(
            state, consensus, answers, half_cfg, evidence_weight=1.0
        )
        np.testing.assert_array_equal(
            full, label_probabilities(state, consensus, answers)
        )

    def test_predict_proba_agrees_with_predict_on_evidence_use(self, tiny_dataset):
        """``CPAModel.predict_proba`` must follow the same evidence switch
        as ``predict``: with ``use_item_evidence=False`` its output matches
        the evidence-free probabilities, not the weight-1.0 default."""
        from dataclasses import replace

        config = CPAConfig(seed=1, max_iterations=40, use_item_evidence=False)
        model = CPAModel(config).fit(tiny_dataset)
        probs = model.predict_proba()
        bare = replace(model.consensus_, label_rates=None)
        np.testing.assert_array_equal(
            probs,
            label_probabilities(model.state_, bare, tiny_dataset.answers, config),
        )


class TestDiagnostics:
    def test_operating_points_need_truth(self, tiny_dataset):
        from repro.data.dataset import CrowdDataset, GroundTruth

        stripped = CrowdDataset(
            name="no-truth",
            answers=tiny_dataset.answers,
            truth=GroundTruth(tiny_dataset.n_items, tiny_dataset.n_labels),
        )
        with pytest.raises(ValidationError):
            worker_operating_points(stripped)

    def test_pooled_points_bounds(self, tiny_dataset):
        points = worker_operating_points(tiny_dataset)
        assert points
        for point in points:
            assert 0 <= point.sensitivity <= 1
            assert 0 <= point.specificity <= 1

    def test_reliable_above_spammers(self, tiny_dataset):
        points = {p.worker: p for p in worker_operating_points(tiny_dataset)}
        by_type: dict = {}
        for worker, point in points.items():
            by_type.setdefault(tiny_dataset.worker_types[worker], []).append(
                point.sensitivity
            )
        assert np.mean(by_type["reliable"]) > np.mean(
            by_type.get("random_spammer", [0.0])
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_operating_points_match_the_per_answer_loop(self, seed):
        """The bincount path equals the per-answer loop it replaced, exactly
        (the counts are integers), with part of the truth missing."""
        from repro.data.dataset import CrowdDataset
        from repro.simulation.generator import generate_dataset
        from tests.conftest import tiny_config

        full = generate_dataset(tiny_config(name=f"ops{seed}"), seed=seed)
        rng = np.random.default_rng(seed)
        known = rng.choice(full.n_items, size=full.n_items * 2 // 3, replace=False)
        dataset = CrowdDataset(
            name=full.name, answers=full.answers, truth=full.truth.restricted_to(known)
        )
        some = rng.choice(full.n_labels, size=3, replace=False).tolist()
        for labels in (None, some, list(range(full.n_labels))):
            for min_support in (1, 2, 4):
                expected = _operating_points_oracle(dataset, labels, min_support)
                assert expected or min_support > 1
                assert (
                    worker_operating_points(dataset, labels, min_support=min_support)
                    == expected
                )

    def test_operating_point_labels_must_be_in_range(self, tiny_dataset):
        with pytest.raises(ValidationError):
            worker_operating_points(tiny_dataset, labels=[tiny_dataset.n_labels])

    def test_community_summaries(self, tiny_model, tiny_dataset):
        summaries = community_summaries(tiny_model.state_, tiny_dataset)
        assert summaries
        total_members = sum(len(s.members) for s in summaries)
        assert total_members == tiny_dataset.n_workers
        for summary in summaries:
            assert summary.size > 0
            if summary.type_histogram:
                assert summary.dominant_type in summary.type_histogram

    def test_count_label_communities(self, tiny_dataset):
        busiest = int(np.argmax(tiny_dataset.answers.label_counts()))
        count = count_label_communities(tiny_dataset, busiest, min_support=1)
        assert count >= 1
        with pytest.raises(ValidationError):
            count_label_communities(tiny_dataset, busiest, grid=0.0)


def _operating_points_oracle(dataset, labels, min_support):
    """The per-answer loop ``worker_operating_points`` ran before it read
    counts: every answered item through ``AnswerMatrix.get``."""
    from repro.core.diagnostics import OperatingPoint

    targets = list(labels) if labels is not None else [None]
    points = []
    for worker in dataset.answers.active_workers():
        answered = dataset.answers.items_for_worker(worker)
        for label in targets:
            tp = fp = tn = fn = 0
            for item in answered:
                truth = dataset.truth.get(item)
                answer = dataset.answers.get(item, worker)
                if truth is None or answer is None:
                    continue
                if label is None:
                    tp += len(answer & truth)
                    fn += len(truth - answer)
                    fp += len(answer - truth)
                    tn += dataset.n_labels - len(answer | truth)
                else:
                    truly_present = label in truth
                    said_present = label in answer
                    tp += truly_present and said_present
                    fn += truly_present and not said_present
                    fp += (not truly_present) and said_present
                    tn += (not truly_present) and not said_present
            pos, neg = tp + fn, fp + tn
            if pos < min_support or neg < min_support:
                continue
            points.append(
                OperatingPoint(
                    worker=worker,
                    label=label,
                    sensitivity=tp / pos,
                    specificity=tn / neg,
                    support_positive=pos,
                    support_negative=neg,
                )
            )
    return points
