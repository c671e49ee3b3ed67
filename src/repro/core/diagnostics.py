"""Worker/community diagnostics (paper §5.5, Fig 9 and Fig 10).

The paper verifies the existence of worker communities by plotting each
worker's per-label *sensitivity* (true-positive rate) against *specificity*
(true-negative rate) relative to ground truth, then inspecting the inferred
community structure.  This module computes those operating points and
summarises inferred communities (size, dominant worker types, mean
operating point) so the Fig-9/Fig-10 experiments — and library users
auditing a crowd — can reproduce the analysis without plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.state import CPAState
from repro.data.dataset import CrowdDataset
from repro.errors import ValidationError


@dataclass(frozen=True)
class OperatingPoint:
    """Sensitivity/specificity of one worker for one label (or overall)."""

    worker: int
    label: Optional[int]
    sensitivity: float
    specificity: float
    support_positive: int
    support_negative: int


@dataclass(frozen=True)
class CommunitySummary:
    """Aggregate description of one inferred worker community."""

    community: int
    size: float
    members: List[int]
    mean_sensitivity: float
    mean_specificity: float
    type_histogram: Dict[str, int]

    @property
    def dominant_type(self) -> Optional[str]:
        """Most frequent provenance worker type, if provenance exists."""
        if not self.type_histogram:
            return None
        return max(self.type_histogram, key=lambda key: self.type_histogram[key])


def worker_operating_points(
    dataset: CrowdDataset,
    labels: Optional[Sequence[int]] = None,
    *,
    min_support: int = 1,
) -> List[OperatingPoint]:
    """Per-worker, per-label sensitivity/specificity vs. ground truth.

    For worker ``u`` and label ``c``: sensitivity is the fraction of
    ``u``'s answered items truly carrying ``c`` where ``u`` included ``c``;
    specificity the fraction of answered items truly lacking ``c`` where
    ``u`` omitted it.  ``labels=None`` computes the label-pooled (overall)
    point per worker, as in Fig 10.  Workers/labels with fewer than
    ``min_support`` positive *and* negative items are skipped.  Only
    answers to items with known truth count; each count is one
    ``np.bincount`` over the answer arrays.
    """
    if len(dataset.truth) == 0:
        raise ValidationError("operating points require ground truth")
    targets: List[Optional[int]] = list(labels) if labels is not None else [None]
    n_labels = dataset.n_labels
    if any(label is not None and not 0 <= label < n_labels for label in targets):
        raise ValidationError(f"labels must lie in [0, {n_labels})")
    answers = dataset.answers
    items, workers, indicators = answers.to_arrays()
    known = np.zeros(answers.n_items, dtype=bool)
    known[dataset.truth.known_items()] = True
    graded = known[items]
    workers = workers[graded]
    said = indicators[graded] != 0
    truly = dataset.truth.to_indicator_matrix()[items[graded]] != 0

    def per_worker(hits: np.ndarray) -> np.ndarray:
        counts = np.bincount(workers, weights=hits, minlength=answers.n_workers)
        return counts.astype(np.int64)

    # (tp, fn, fp, tn) per worker for each target, from one bincount each
    tallies = []
    for label in targets:
        if label is None:
            tallies.append(
                (
                    per_worker((said & truly).sum(axis=1)),
                    per_worker((truly & ~said).sum(axis=1)),
                    per_worker((said & ~truly).sum(axis=1)),
                    per_worker(n_labels - (said | truly).sum(axis=1)),
                )
            )
        else:
            s, t = said[:, label], truly[:, label]
            tallies.append(
                (
                    per_worker(s & t),
                    per_worker(t & ~s),
                    per_worker(s & ~t),
                    per_worker(~s & ~t),
                )
            )
    points: List[OperatingPoint] = []
    for worker in answers.active_workers():
        for label, (tp, fn, fp, tn) in zip(targets, tallies):
            pos = int(tp[worker] + fn[worker])
            neg = int(fp[worker] + tn[worker])
            if pos < min_support or neg < min_support:
                continue
            points.append(
                OperatingPoint(
                    worker=worker,
                    label=label,
                    sensitivity=int(tp[worker]) / pos,
                    specificity=int(tn[worker]) / neg,
                    support_positive=pos,
                    support_negative=neg,
                )
            )
    return points


def community_summaries(
    state: CPAState,
    dataset: CrowdDataset,
    *,
    min_size: float = 0.5,
) -> List[CommunitySummary]:
    """Describe every non-empty inferred community.

    Sizes are expected memberships ``Σ_u κ_um``; members are workers whose
    MAP community is ``m``.  Mean operating points use the label-pooled
    sensitivity/specificity of the member workers (requires ground truth;
    reported as ``nan`` without it).
    """
    assignments = state.hard_communities()
    sizes = state.kappa.sum(axis=0)

    pooled: Dict[int, OperatingPoint] = {}
    if len(dataset.truth) > 0:
        pooled = {
            point.worker: point for point in worker_operating_points(dataset)
        }

    summaries: List[CommunitySummary] = []
    for community in range(state.n_communities):
        if sizes[community] <= min_size:
            continue
        members = [int(u) for u in np.flatnonzero(assignments == community)]
        sens = [pooled[u].sensitivity for u in members if u in pooled]
        spec = [pooled[u].specificity for u in members if u in pooled]
        histogram: Dict[str, int] = {}
        if dataset.worker_types is not None:
            for u in members:
                key = dataset.worker_types[u]
                histogram[key] = histogram.get(key, 0) + 1
        summaries.append(
            CommunitySummary(
                community=community,
                size=float(sizes[community]),
                members=members,
                mean_sensitivity=float(np.mean(sens)) if sens else float("nan"),
                mean_specificity=float(np.mean(spec)) if spec else float("nan"),
                type_histogram=histogram,
            )
        )
    return summaries


def count_label_communities(
    dataset: CrowdDataset,
    label: int,
    *,
    grid: float = 0.2,
    min_support: int = 2,
) -> int:
    """Rough community count for one label (Fig 9's per-label structure).

    Workers are binned on a ``grid``-spaced (sensitivity, specificity)
    lattice; the count of occupied, non-adjacent bins approximates the
    number of distinct per-label communities.  Deliberately simple — the
    paper reads the count off a scatter plot.
    """
    if not 0 < grid <= 1:
        raise ValidationError("grid must lie in (0, 1]")
    points = worker_operating_points(dataset, labels=[label], min_support=min_support)
    if not points:
        return 0
    occupied = {
        (int(p.sensitivity / grid), int(p.specificity / grid)) for p in points
    }
    # Merge adjacent cells (8-neighbourhood) into blobs.
    remaining = set(occupied)
    blobs = 0
    while remaining:
        stack = [remaining.pop()]
        while stack:
            cx, cy = stack.pop()
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    neighbour = (cx + dx, cy + dy)
                    if neighbour in remaining:
                        remaining.remove(neighbour)
                        stack.append(neighbour)
        blobs += 1
    return blobs
