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
/ ``partial_fit`` run the stochastic (incremental) inference of Alg. 2-3
through the online engine of :mod:`repro.core.online`; ``predict``
performs the greedy MAP instantiation of §3.4 on the cluster consensus.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import CPAConfig
from repro.core.consensus import ClusterConsensus, estimate_consensus
from repro.core.inference import InferenceResult, VariationalInference
from repro.core.online import ConsensusEngine
from repro.core.prediction import (
    PredictionDetail,
    label_probabilities,
    predict_items,
)
from repro.core.state import CPAState
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
        self._online: Optional[ConsensusEngine] = None

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
        self._online = None
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
        """Stochastic variational inference over a batch stream (Alg. 2/3):
        :meth:`start_online`, then :meth:`partial_fit` per batch."""
        self.start_online(
            n_items,
            n_workers,
            n_labels,
            truth=truth,
            seed=seed,
            executor=executor,
            total_answers_hint=total_answers_hint,
        )
        for batch in batches:
            self.partial_fit(batch)
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
        """Initialise incremental learning without consuming any data yet.

        The model becomes a client of a fresh online engine
        (:class:`~repro.core.online.ConsensusEngine`, the one the serving
        daemon runs); reads then use its refreshed view, the posterior
        regenerated from every answer folded so far (paper §4.1),
        computed on the first read after a fold.
        """
        self._online = ConsensusEngine(
            self.config,
            n_items,
            n_workers,
            n_labels,
            truth=truth,
            seed=seed,
            executor=executor,
            total_answers_hint=total_answers_hint,
        )
        self._state = self._consensus = self._answers = self._result = None
        return self

    def partial_fit(self, batch: AnswerBatch) -> "CPAModel":
        """Fold one more batch into an online model (paper's online updates).

        The online engine checks the batch first (a malformed one raises
        :class:`~repro.errors.ValidationError` and changes nothing), grows
        the index spaces to a batch that names new items, workers or
        labels, and folds it in steps of
        :meth:`~repro.core.online.ConsensusEngine.step_answers` answers.
        """
        if self._online is None:
            raise NotFittedError("call start_online or fit_online before partial_fit")
        self._online.ingest(batch)
        self._online.step()
        return self

    # ---------------------------------------------------------------- predicting

    @property
    def is_fitted(self) -> bool:
        return self._online is not None or self._state is not None

    def _require_fitted(self) -> tuple[CPAState, ClusterConsensus, AnswerMatrix]:
        if self._online is not None:
            state, consensus = self._online.refreshed()
            return state, consensus, self._online.answers
        if self._state is None or self._consensus is None or self._answers is None:
            raise NotFittedError("model is not fitted")
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

    @property
    def online_engine_(self) -> Optional[ConsensusEngine]:
        """The online engine behind :meth:`partial_fit` (``None`` unless
        :meth:`start_online` or :meth:`fit_online` built one)."""
        return self._online

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
