"""Dataset perturbations behind the robustness experiments.

* :func:`sparsify` — remove a fraction of answers uniformly at random
  (Fig 3: "randomly removing a certain share of the answers").
* :func:`inject_spammers` — append fresh spammer workers until their
  answers account for a target share of all answers (Fig 4: "adding
  answers of spammers … such that they account for 20% or 40% of the
  data").
* :func:`inject_label_dependencies` — move a share of the globally-missing
  true labels into answers that already contain a correct label (Fig 5:
  the label-dependency information-loss study).
* :func:`reveal_truth_fraction` — keep ground truth on only a random
  fraction of items (test questions; used by semi-supervised experiments).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.data.dataset import CrowdDataset
from repro.errors import ValidationError
from repro.utils.random import RandomState, Seed
from repro.workers.behavior import AnswerBehavior
from repro.workers.population import PopulationSpec, sample_population


def sparsify(dataset: CrowdDataset, sparsity: float, seed: Seed = None) -> CrowdDataset:
    """Remove ``sparsity`` of the answers uniformly at random.

    ``sparsity`` is the *removed* share, matching Fig 3's x-axis (0 keeps
    everything, 0.9 keeps 10%).  Items can lose all their answers — that is
    part of the stress the figure measures.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValidationError("sparsity must lie in [0, 1)")
    rng = RandomState(seed)
    pairs = [(a.item, a.worker) for a in dataset.answers.iter_answers()]
    keep = max(1, int(round(len(pairs) * (1.0 - sparsity))))
    order = rng.permutation(len(pairs))
    kept_pairs = [pairs[i] for i in order[:keep]]
    matrix = dataset.answers.subset(kept_pairs)
    return dataset.with_answers(matrix, suffix=f"+sparsity{sparsity:.0%}")


def inject_spammers(
    dataset: CrowdDataset,
    spam_share: float,
    seed: Seed = None,
    *,
    population: PopulationSpec | None = None,
) -> CrowdDataset:
    """Append spammer workers so their answers form ``spam_share`` of all data.

    New worker indices are added after the existing ones; each new spammer
    answers a random set of items until the target share is met.  The
    returned dataset's ``worker_types`` is extended accordingly, so
    diagnostics can still identify the injected population.
    """
    if not 0.0 <= spam_share < 1.0:
        raise ValidationError("spam_share must lie in [0, 1)")
    if spam_share == 0.0:
        return dataset
    rng = RandomState(seed)
    population = population or PopulationSpec.spammers_only()
    if population.spammer_fraction() != 1.0:
        raise ValidationError("injection population must be spammers only")

    n_existing = dataset.answers.n_answers
    # share = spam / (existing + spam)  =>  spam = existing * share / (1-share)
    n_spam_answers = int(round(n_existing * spam_share / (1.0 - spam_share)))
    if n_spam_answers == 0:
        return dataset

    # Give each injected spammer roughly the workload of an average
    # existing worker, so spammers are not identifiable by volume alone.
    active = dataset.answers.active_workers()
    per_worker = max(1, n_existing // max(len(active), 1))
    n_new_workers = max(1, int(np.ceil(n_spam_answers / per_worker)))

    profiles = sample_population(
        population,
        n_new_workers,
        dataset.n_labels,
        rng,
        typical_answer_size=max(
            1.0, dataset.answers.to_arrays()[2].sum(axis=1).mean()
        ),
    )
    behavior = AnswerBehavior(dataset.n_labels)

    matrix = dataset.answers.resized(
        dataset.n_items, dataset.n_workers + n_new_workers, dataset.n_labels
    )

    remaining = n_spam_answers
    for offset, profile in enumerate(profiles):
        worker = dataset.n_workers + offset
        quota = min(per_worker, remaining, dataset.n_items)
        if quota <= 0:
            break
        items = rng.choice(dataset.n_items, size=quota, replace=False)
        for item in items:
            truth = dataset.truth.get(int(item)) or frozenset()
            matrix.add(int(item), worker, behavior.generate(profile, truth, rng))
        remaining -= quota

    worker_types = None
    if dataset.worker_types is not None:
        worker_types = list(dataset.worker_types) + [
            profile.worker_type.value for profile in profiles
        ]
    result = CrowdDataset(
        name=dataset.name + f"+spam{spam_share:.0%}",
        answers=matrix,
        truth=dataset.truth,
        label_names=dataset.label_names,
        worker_types=worker_types,
        item_clusters=dataset.item_clusters,
        extras=dict(dataset.extras),
    )
    return result


def inject_label_dependencies(
    dataset: CrowdDataset, level: float, seed: Seed = None
) -> CrowdDataset:
    """Fill in ``level`` of the globally-missing true labels (Fig 5).

    A "missing label" is a (answer, label) pair where the label is in the
    item's truth but absent from the answer, counted only over answers that
    already contain at least one correct label (the paper's condition).  A
    random ``level`` fraction of those pairs is added to the corresponding
    answers, simulating workers who exploit label co-occurrence.
    """
    if not 0.0 <= level <= 1.0:
        raise ValidationError("level must lie in [0, 1]")
    if level == 0.0:
        return dataset
    rng = RandomState(seed)

    missing: List[Tuple[int, int, int]] = []
    for answer in dataset.answers.iter_answers():
        truth = dataset.truth.get(answer.item)
        if truth is None or not (answer.labels & truth):
            continue
        for label in truth - answer.labels:
            missing.append((answer.item, answer.worker, label))

    if not missing:
        return dataset
    n_add = int(round(level * len(missing)))
    order = rng.permutation(len(missing))
    chosen = [missing[i] for i in order[:n_add]]

    matrix = dataset.answers.copy()
    for item, worker, label in chosen:
        current = matrix.get(item, worker)
        assert current is not None
        matrix.add(item, worker, current | {label})
    return dataset.with_answers(matrix, suffix=f"+deps{level:.0%}")


def reveal_truth_fraction(
    dataset: CrowdDataset, fraction: float, seed: Seed = None
) -> CrowdDataset:
    """Keep ground truth on a random ``fraction`` of items, hide the rest.

    Models the "test questions" setting of paper §3.2 where a small ``ȳ``
    is observed.  Metrics should still be computed against the *full*
    original truth; this helper only restricts what inference may see.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError("fraction must lie in [0, 1]")
    rng = RandomState(seed)
    known = dataset.truth.known_items()
    n_keep = int(round(fraction * len(known)))
    keep = rng.choice(len(known), size=n_keep, replace=False) if n_keep else []
    kept_items = [known[int(i)] for i in keep]
    return CrowdDataset(
        name=dataset.name + f"+truth{fraction:.0%}",
        answers=dataset.answers,
        truth=dataset.truth.restricted_to(kept_items),
        label_names=dataset.label_names,
        worker_types=dataset.worker_types,
        item_clusters=dataset.item_clusters,
        extras=dict(dataset.extras),
    )
