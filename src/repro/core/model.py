"""The public CPA estimator.

:class:`CPAModel` ties the pieces together behind a scikit-learn-flavoured
API:

>>> from repro import CPAModel, make_scenario
>>> dataset = make_scenario("image", seed=7)
>>> model = CPAModel().fit(dataset)
>>> predictions = model.predict()           # {item: frozenset(labels)}
>>> model.worker_communities()[:5]          # inferred community per worker
>>> model.item_clusters()[:5]               # inferred cluster per item

``fit`` runs the batch variational inference of paper Alg. 1; ``fit_online``
/ ``partial_fit`` run the stochastic (incremental) inference of Alg. 2-3;
``predict`` performs the greedy MAP instantiation of §3.4 on the cluster
consensus.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import CPAConfig
from repro.core.consensus import ClusterConsensus, estimate_consensus
from repro.core.inference import InferenceResult, VariationalInference
from repro.core.prediction import (
    PredictionDetail,
    label_probabilities,
    predict_items,
)
from repro.core.state import CPAState
from repro.core.svi import StochasticInference
from repro.data.answers import AnswerMatrix
from repro.data.dataset import CrowdDataset, GroundTruth
from repro.data.streams import AnswerBatch
from repro.errors import NotFittedError, ValidationError
from repro.utils.parallel import Executor
from repro.utils.random import Seed

FitInput = Union[CrowdDataset, AnswerMatrix]


def _split_input(
    data: FitInput, truth: Optional[GroundTruth]
) -> tuple[AnswerMatrix, Optional[GroundTruth]]:
    if isinstance(data, CrowdDataset):
        if truth is not None:
            raise ValidationError(
                "pass truth either inside the dataset or separately, not both"
            )
        # The dataset's truth is used only if the caller asks for
        # supervision explicitly via fit(..., use_truth=True).
        return data.answers, data.truth
    if isinstance(data, AnswerMatrix):
        return data, truth
    raise ValidationError(
        f"expected CrowdDataset or AnswerMatrix, got {type(data).__name__}"
    )


class CPAModel:
    """Partial-agreement answer aggregation with the CPA model.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.CPAConfig`; defaults are sensible for
        datasets of a few hundred items.
    """

    def __init__(self, config: Optional[CPAConfig] = None) -> None:
        self.config = config or CPAConfig()
        self._state: Optional[CPAState] = None
        self._consensus: Optional[ClusterConsensus] = None
        self._answers: Optional[AnswerMatrix] = None
        self._result: Optional[InferenceResult] = None
        self._engine: Optional[StochasticInference] = None

    # ------------------------------------------------------------------ fitting

    def fit(
        self,
        data: FitInput,
        truth: Optional[GroundTruth] = None,
        *,
        use_truth: bool = False,
        seed: Seed = None,
        track_elbo: bool = False,
        executor: Optional[Executor] = None,
    ) -> "CPAModel":
        """Batch variational inference (paper Alg. 1).

        ``use_truth=True`` lets inference see the dataset's (possibly
        partial) ground truth — the paper's "test questions" setting.  The
        default matches the paper's evaluation protocol (``y = ∅``).
        ``executor`` fans the chunked local updates out over a
        thread/process pool (serial by default).
        """
        answers, dataset_truth = _split_input(data, truth)
        observed = (truth or dataset_truth) if (use_truth or truth is not None) else None
        # the engine (its kernel and held products) is gone before the
        # consensus pass allocates
        self._result = VariationalInference(
            self.config, answers, truth=observed, seed=seed, executor=executor
        ).run(track_elbo=track_elbo)
        self._state = self._result.state
        self._answers = answers
        self._consensus = estimate_consensus(self._state, self.config, self._answers)
        self._engine = None
        return self

    def fit_online(
        self,
        batches: Iterable[AnswerBatch],
        n_items: int,
        n_workers: int,
        n_labels: int,
        *,
        truth: Optional[GroundTruth] = None,
        seed: Seed = None,
        executor: Optional[Executor] = None,
        total_answers_hint: Optional[int] = None,
    ) -> "CPAModel":
        """Stochastic variational inference over a batch stream (Alg. 2/3)."""
        self._engine = StochasticInference(
            self.config,
            n_items,
            n_workers,
            n_labels,
            truth=truth,
            seed=seed,
            executor=executor,
            total_answers_hint=total_answers_hint,
        )
        from repro.data.streams import split_batch

        accumulated = AnswerMatrix(n_items, n_workers, n_labels)
        sub_batch_size = self._effective_batch_size()
        for batch in batches:
            for sub_batch in split_batch(batch, sub_batch_size):
                self._engine.process_batch(sub_batch)
            accumulated.update(batch.matrix)
        self._answers = accumulated
        self._state = (
            self._engine.refreshed_state(accumulated)
            if accumulated.n_answers
            else self._engine.state
        )
        self._consensus = estimate_consensus(self._state, self.config, self._answers)
        self._result = None
        return self

    def start_online(
        self,
        n_items: int,
        n_workers: int,
        n_labels: int,
        *,
        truth: Optional[GroundTruth] = None,
        seed: Seed = None,
        executor: Optional[Executor] = None,
        total_answers_hint: Optional[int] = None,
    ) -> "CPAModel":
        """Initialise incremental learning without consuming any data yet."""
        self._engine = StochasticInference(
            self.config,
            n_items,
            n_workers,
            n_labels,
            truth=truth,
            seed=seed,
            executor=executor,
            total_answers_hint=total_answers_hint,
        )
        self._answers = AnswerMatrix(n_items, n_workers, n_labels)
        self._state = self._engine.state
        self._consensus = None
        self._result = None
        return self

    def partial_fit(self, batch: AnswerBatch) -> "CPAModel":
        """Feed one more batch to an online model (paper's online updates)."""
        if self._engine is None or self._answers is None:
            raise NotFittedError("call start_online or fit_online before partial_fit")
        from repro.data.streams import split_batch

        for sub_batch in split_batch(batch, self._effective_batch_size()):
            self._engine.process_batch(sub_batch)
        self._answers = self._answers.merged_with(batch.matrix)
        self._state = (
            self._engine.refreshed_state(self._answers)
            if self._answers.n_answers
            else self._engine.state
        )
        self._consensus = estimate_consensus(self._state, self.config, self._answers)
        return self

    def _effective_batch_size(self) -> int:
        """Engine batch size, capped so small streams still get many steps.

        Robbins-Monro averaging needs a reasonable number of steps to damp
        the per-batch gradient noise; with very small streams the
        configured batch size could yield fewer than ~20 steps and leave
        the stochastic trajectory noise-dominated.  When the engine knows
        the expected stream size, the batch is capped at ``hint / 20``
        (but never below 50 answers — tiny batches are noise-dominated too).
        """
        size = self.config.svi_batch_answers
        hint = self._engine.total_answers_hint if self._engine else None
        if hint:
            size = min(size, max(50, hint // 20))
        return size

    # ---------------------------------------------------------------- predicting

    @property
    def is_fitted(self) -> bool:
        return self._state is not None and self._answers is not None

    def _require_fitted(self) -> tuple[CPAState, ClusterConsensus, AnswerMatrix]:
        if self._state is None or self._answers is None:
            raise NotFittedError("model is not fitted")
        if self._consensus is None:
            self._consensus = estimate_consensus(self._state, self.config, self._answers)
        return self._state, self._consensus, self._answers

    def predict(
        self,
        items: Optional[Sequence[int]] = None,
        *,
        answers: Optional[AnswerMatrix] = None,
        exhaustive: bool = False,
    ) -> Dict[int, FrozenSet[int]]:
        """MAP label sets (paper Problem 1's deterministic assignment).

        By default predicts every item that received answers during
        fitting; pass ``answers`` to instantiate labels for new/other
        answer matrices with the fitted parameters (the paper's
        "non-grounded items" / online-prediction setting).
        """
        details = self.predict_detailed(items, answers=answers, exhaustive=exhaustive)
        return {item: detail.labels for item, detail in details.items()}

    def predict_detailed(
        self,
        items: Optional[Sequence[int]] = None,
        *,
        answers: Optional[AnswerMatrix] = None,
        exhaustive: bool = False,
    ) -> Dict[int, PredictionDetail]:
        """Predictions with per-item objective values and cluster posteriors."""
        state, consensus, fitted_answers = self._require_fitted()
        target = answers if answers is not None else fitted_answers
        return predict_items(
            state,
            consensus,
            target,
            self.config,
            items=items,
            exhaustive=exhaustive,
        )

    def predict_proba(
        self,
        items: Optional[Sequence[int]] = None,
        *,
        answers: Optional[AnswerMatrix] = None,
    ) -> np.ndarray:
        """Per-item marginal label inclusion probabilities."""
        state, consensus, fitted_answers = self._require_fitted()
        target = answers if answers is not None else fitted_answers
        return label_probabilities(state, consensus, target, self.config, items=items)

    # --------------------------------------------------------------- inspection

    @property
    def state_(self) -> CPAState:
        """The fitted variational state (raises if unfitted)."""
        state, _, _ = self._require_fitted()
        return state

    @property
    def consensus_(self) -> ClusterConsensus:
        """The fitted cluster consensus (raises if unfitted)."""
        _, consensus, _ = self._require_fitted()
        return consensus

    @property
    def inference_result_(self) -> Optional[InferenceResult]:
        """Batch-VI convergence record (``None`` after online fitting)."""
        return self._result

    def worker_communities(self) -> List[int]:
        """MAP community index per worker."""
        state, _, _ = self._require_fitted()
        return [int(c) for c in state.hard_communities()]

    def item_clusters(self) -> List[int]:
        """MAP cluster index per item."""
        state, _, _ = self._require_fitted()
        return [int(c) for c in state.hard_clusters()]

    def n_effective_communities(self) -> int:
        """Communities with non-negligible expected membership."""
        state, _, _ = self._require_fitted()
        return state.effective_communities()

    def n_effective_clusters(self) -> int:
        """Item clusters with non-negligible expected occupancy."""
        state, _, _ = self._require_fitted()
        return state.effective_clusters()

    def community_reliability(self) -> np.ndarray:
        """Reliability weights ``w_m`` of the consensus estimator."""
        _, consensus, _ = self._require_fitted()
        return consensus.community_weights.copy()
