"""Hyperparameters of the CPA model and its inference procedures.

The paper sets the stick-breaking truncations "safely … to large values,
e.g., 1000" (§3.2); at our dataset scales a few dozen components suffice
and keep runtime proportionate, so the defaults below adapt to dataset size
via :meth:`CPAConfig.resolve_truncations`.  All symbols follow Table 2 of
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError, ValidationError
from repro.utils.parallel import EXECUTOR_KINDS, Executor, make_executor

#: legal values of :attr:`CPAConfig.adaptive_truncation`.
ADAPTIVE_TRUNCATION_MODES = ("auto", "on", "off")


def clamp_truncation(t: int, space: int) -> int:
    """Clamp a truncation level ``t`` to an index space of ``space`` elements.

    The contract (pinned by ``tests/test_adaptive_truncation.py``):

    * a truncation never exceeds the space it truncates — ``T ≤ n_items``
      and ``M ≤ n_workers`` always hold, so no component can be
      structurally unreachable;
    * spaces with at least two elements keep the historical floor of two
      components (one stick), so symmetry breaking has room to work;
    * degenerate spaces (one element, or an empty dataset) resolve to a
      single component — arrays like ``ups`` become ``(0, 2)`` and the
      stick-breaking expectations collapse to the point mass, which the
      inference layer handles.

    The seed implementation applied the clamps in the wrong order
    (``max(2, min(t, n_items))``), returning 2 for 0- or 1-element
    spaces — a truncation larger than the space itself.
    """
    floor = 2 if space >= 2 else 1
    return max(floor, min(int(t), max(int(space), floor)))


@dataclass(frozen=True)
class CPAConfig:
    """Configuration for :class:`repro.core.model.CPAModel`.

    Attributes
    ----------
    truncation_communities:
        Truncation level ``M`` for worker communities (0 = auto: scales
        with the number of workers, capped at ``max_truncation``).
    truncation_clusters:
        Truncation level ``T`` for item clusters (0 = auto).
    alpha:
        CRP concentration for worker communities (paper ``α``).
    epsilon:
        CRP concentration for item clusters (paper ``ε``).
    gamma0:
        Symmetric Dirichlet prior on community answer profiles ``ψ_tm``.
    eta0:
        Symmetric Beta/Dirichlet prior on cluster label profiles ``φ_t``.
    max_iterations / tolerance:
        VI stopping rule: stop when the largest absolute change of any
        local responsibility falls below ``tolerance`` (the paper's
        "parameter differences below 1e-3"), or at the iteration cap.
    forgetting_rate:
        SVI forgetting rate ``r`` in ``ω_b = (1 + b)^-r``; the paper finds
        values in [0.85, 0.9] work best (§4.1).
    svi_iterations:
        Local (κ) refinement sweeps per SVI batch.
    svi_coverage_correction:
        When true (default), each component's SVI step is scaled by how
        much of that component's mass the batch actually observed.  The
        plain Eqs. 18-20 step decays every cluster/community absent from
        the current batch towards its prior, starving components under
        partial-coverage batches (a known failure mode of truncated-DP
        SVI); the correction is the standard importance-weighting fix for
        non-uniform subsampling and is documented as a deviation in
        DESIGN.md.
    svi_batch_answers:
        Engine-level SVI batch size in answers (the paper uses 100,
        §5.3): arrival batches handed to :meth:`CPAModel.partial_fit` are
        split into sub-batches of at most this many answers so the
        Robbins-Monro averaging sees enough steps even when data arrives
        in large increments.
    consensus_floor:
        Discriminability floor ``δ`` keeping community weights positive.
    consensus_smoothing:
        Pseudo-count used when converting cell counts to inclusion rates.
    consensus_blend:
        Pseudo-mass ``ν`` balancing the unsupervised consensus against the
        supervised (observed ground truth) estimate.
    use_item_evidence:
        When true (default), prediction augments the cluster-consensus
        prior with a per-item likelihood term built from community-level
        answering rates (DESIGN.md §4.3's evidence-augmented
        instantiation); setting it false recovers the paper's literal
        Appendix-D objective.
    evidence_weight:
        Multiplier on the per-item evidence term (1 = full Bayes update).
    max_predicted_labels:
        Hard cap on greedy label-set growth (0 = no cap beyond ``C``).
    exhaustive_label_limit:
        Maximum ``C`` for which exhaustive ``2^C`` MAP search is permitted.
    dtype:
        Floating dtype (``"float64"`` / ``"float32"``) of the variational
        state and likelihood kernels.  ``float32`` halves memory traffic
        of the ``(·, T, M)`` tensors at a small accuracy cost; the
        default keeps the paper-exact double-precision trajectories
        (DESIGN.md §6).
    backend:
        Sweep-kernel backend: ``"fused"`` (default; the serial fused
        kernel of DESIGN.md §6), ``"sharded"`` (item-partitioned
        shards whose contractions run as independent executor tasks and
        whose sufficient statistics are merged in fixed shard order;
        DESIGN.md §6 "Sharded execution"), or ``"auto"`` (pick fused vs
        sharded — and the shard count — per matrix/batch from the answer
        volume and the executor's lane count, using the measured
        crossover thresholds of :mod:`repro.core.kernels`, which the
        perf harness records in ``BENCH_core.json``).  Both engines and
        the SVI per-batch route honour the selection.
    n_shards:
        Shard count ``K`` for the sharded backend; ``0`` (auto) uses one
        shard per executor lane (``backend="auto"`` instead sizes K from
        the answer volume).  Ignored by the fused backend.  Requests are
        capped by the number of *answered* items wherever a concrete
        matrix is in hand (:meth:`resolve_shards` / the kernel factory):
        a ``ShardPlan`` can never realise more shards than answered
        items, and the realised count is what benchmarks record.
    adaptive_truncation:
        Shard-local truncation adaptation (DESIGN.md §6 "Shard-local
        truncation"): when engaged, each shard of a sharded run sizes its
        own cluster truncation ``T_s ≤ T`` from the shard's distinct
        item-profile count (:meth:`shard_truncation` — the same
        ``size // 4 + 2`` rule as :meth:`resolve_truncations`), pays
        ``(T_s, M, C)`` sufficient statistics instead of ``(T, M, C)``,
        and the engines constrain each item's cluster posterior to its
        shard's window.  ``"auto"`` (default) engages only when the
        backend is sharded **and** the matrix is wide-but-sparse
        (:func:`repro.core.kernels.adaptive_pays_off`); ``"on"`` engages
        for every sharded run; ``"off"`` disables it.  When no shard's
        ``T_s`` falls below the global ``T`` the path is bitwise
        identical to the global-truncation one; when it binds, results
        carry a documented approximation (the constrained family).
    executor:
        Executor kind the config describes: ``"serial"`` (default),
        ``"thread"``, ``"process"`` (local child processes running the
        remote-lane protocol over socketpairs), or ``"remote"`` (lanes on
        ``python -m repro.worker`` daemons named by ``workers``;
        DESIGN.md §6 "Remote lanes").  Both engines build their executor
        from this spec (:meth:`resolve_executor`) whenever no explicit
        :class:`~repro.utils.parallel.Executor` object is passed, so a
        run is reproducible from configuration alone; an engine-built
        executor is exposed as ``engine.executor`` and never closed by
        the engine (serial needs no closing; anything else belongs to
        the caller).
    executor_degree:
        Parallel degree for the selected executor (0 = auto: one lane
        per core for threads and processes, every listed worker for
        remote).
    workers:
        ``"host:port"`` addresses of remote worker daemons; required by
        — and only meaningful for — ``executor="remote"``.
    request_timeout:
        Per-request reply deadline in seconds for remote lanes (only
        meaningful with ``executor="remote"``).  A lane that misses the
        deadline is marked *suspect* and its tasks are speculatively
        re-dispatched to the live lanes — a hung daemon delays a sweep,
        it never stalls it (DESIGN.md §6 "Elastic fleet").  ``0``
        disables deadlines (replies are awaited forever).
    seed:
        Seed for the random initialisation of the variational state.
    """

    truncation_communities: int = 0
    truncation_clusters: int = 0
    alpha: float = 2.0
    epsilon: float = 2.0
    gamma0: float = 0.3
    eta0: float = 1.0
    max_iterations: int = 60
    tolerance: float = 1e-3
    forgetting_rate: float = 0.875
    svi_iterations: int = 3
    svi_coverage_correction: bool = True
    svi_batch_answers: int = 100
    consensus_floor: float = 0.02
    consensus_smoothing: float = 1.0
    consensus_blend: float = 2.0
    use_item_evidence: bool = True
    evidence_weight: float = 1.0
    max_predicted_labels: int = 0
    exhaustive_label_limit: int = 16
    dtype: str = "float64"
    backend: str = "fused"
    n_shards: int = 0
    adaptive_truncation: str = "auto"
    executor: str = "serial"
    executor_degree: int = 0
    workers: Tuple[str, ...] = ()
    request_timeout: float = 30.0
    seed: int = 0
    max_truncation: int = 40
    init_noise: float = 0.5

    def __post_init__(self) -> None:
        if self.truncation_communities < 0 or self.truncation_clusters < 0:
            raise ValidationError("truncations must be non-negative (0 = auto)")
        for name in ("alpha", "epsilon", "gamma0", "eta0"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.max_iterations <= 0:
            raise ValidationError("max_iterations must be positive")
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if not 0.5 < self.forgetting_rate <= 1.0:
            raise ValidationError(
                "forgetting_rate must lie in (0.5, 1] for SVI convergence"
            )
        if self.svi_iterations <= 0:
            raise ValidationError("svi_iterations must be positive")
        if self.svi_batch_answers <= 0:
            raise ValidationError("svi_batch_answers must be positive")
        if self.consensus_floor < 0 or self.consensus_smoothing < 0:
            raise ValidationError("consensus parameters must be non-negative")
        if self.consensus_blend < 0:
            raise ValidationError("consensus_blend must be non-negative")
        if self.evidence_weight < 0:
            raise ValidationError("evidence_weight must be non-negative")
        if self.max_truncation < 2:
            raise ValidationError("max_truncation must be at least 2")
        if self.dtype not in ("float32", "float64"):
            raise ValidationError(
                f"dtype must be 'float32' or 'float64', got {self.dtype!r}"
            )
        if self.backend not in ("fused", "sharded", "auto"):
            raise ConfigurationError(
                f"backend must be 'fused', 'sharded', or 'auto', "
                f"got {self.backend!r}"
            )
        if self.n_shards < 0:
            raise ValidationError("n_shards must be non-negative (0 = auto)")
        if self.adaptive_truncation not in ADAPTIVE_TRUNCATION_MODES:
            raise ConfigurationError(
                f"adaptive_truncation must be one of "
                f"{', '.join(ADAPTIVE_TRUNCATION_MODES)}, "
                f"got {self.adaptive_truncation!r}"
            )
        if self.executor not in EXECUTOR_KINDS:
            raise ConfigurationError(
                f"executor must be one of {', '.join(EXECUTOR_KINDS)}, "
                f"got {self.executor!r}"
            )
        if self.executor_degree < 0:
            raise ValidationError("executor_degree must be non-negative (0 = auto)")
        if self.executor == "remote" and not self.workers:
            raise ConfigurationError(
                "executor='remote' needs worker daemon addresses "
                "(workers=('host:port', ...)); start daemons with "
                "`python -m repro.worker --listen host:port`"
            )
        if self.workers and self.executor != "remote":
            raise ConfigurationError(
                "workers are only meaningful with executor='remote', "
                f"got executor={self.executor!r}"
            )
        if self.request_timeout < 0:
            raise ValidationError(
                "request_timeout must be non-negative (0 disables deadlines)"
            )

    def resolve_dtype(self) -> np.dtype:
        """The numpy dtype of the state arrays and likelihood kernels."""
        return np.dtype(self.dtype)

    def resolve_executor(self) -> Executor:
        """Build the executor this config describes (caller owns ``close()``).

        ``executor="remote"`` connects lanes to the daemons listed in
        ``workers`` (``executor_degree`` caps how many are used); local
        kinds size their pools from ``executor_degree`` (0 = one lane
        per core).  Validation already happened in ``__post_init__``, so
        this cannot fail on configuration — only on the network.
        """
        remote = self.executor == "remote"
        return make_executor(
            self.executor,
            self.executor_degree or None,
            workers=list(self.workers) if remote else None,
            request_timeout=self.request_timeout if remote else None,
        )

    def resolve_shards(self, degree: int = 1, n_items: int = 0) -> int:
        """Concrete shard count for the sharded backend.

        Auto mode (``n_shards == 0``) matches the executor's parallel
        degree so each lane owns one shard; an explicit count is honoured
        regardless of the executor.  ``n_items`` (when known — callers
        with a concrete matrix pass the *answered* item count) caps the
        result: :class:`~repro.core.sharding.ShardPlan` partitions by
        item, so no request can realise more shards than answered items.
        """
        k = self.n_shards if self.n_shards > 0 else max(1, int(degree))
        if n_items > 0:
            k = min(k, int(n_items))
        return k

    def resolve_backend(
        self, n_answers: int, degree: int = 1, n_items: int = 0
    ) -> tuple[str, int]:
        """Concrete ``(backend, n_shards)`` for a matrix/batch of ``n_answers``.

        Explicit ``"fused"`` / ``"sharded"`` selections pass through
        (with :meth:`resolve_shards` sizing K for the latter).  ``"auto"``
        applies the measured rule of :func:`repro.core.kernels.sharded_pays_off`:
        sharded above the volume crossover (lowered when the executor has
        parallel lanes), fused below it, with K sized by
        :func:`repro.core.kernels.auto_shard_count` unless ``n_shards``
        pins it.  Callers resolve per matrix — the SVI engine per batch —
        so one config serves mixed workloads.  ``n_items`` (the answered
        item count, when the caller has a concrete matrix) caps K as in
        :meth:`resolve_shards`.
        """
        if self.backend == "fused":
            return "fused", 0
        if self.backend == "sharded":
            return "sharded", self.resolve_shards(degree, n_items)
        # Local import: kernels imports state, which imports this module.
        from repro.core.kernels import auto_shard_count, sharded_pays_off

        if sharded_pays_off(int(n_answers), int(degree)):
            if self.n_shards > 0:
                k = self.n_shards
                if n_items > 0:
                    k = min(k, int(n_items))
            else:
                k = auto_shard_count(int(n_answers), int(degree), int(n_items))
            return "sharded", max(1, k)
        return "fused", 0

    def resolve_adaptive_truncation(self, n_items: int, n_answers: int) -> bool:
        """Whether a sharded run over this matrix adapts per-shard truncations.

        ``"on"`` / ``"off"`` are unconditional; ``"auto"`` engages only on
        wide-but-sparse matrices (:func:`repro.core.kernels.adaptive_pays_off`
        — many items, few answers per item), the regime where per-shard
        item profiles are poor enough that the global ``T`` overpays.
        Only the sharded backend consults this: the fused kernel has no
        shard-local statistics to shrink.
        """
        if self.adaptive_truncation == "off":
            return False
        if self.adaptive_truncation == "on":
            return True
        from repro.core.kernels import adaptive_pays_off

        return adaptive_pays_off(int(n_items), int(n_answers))

    def shard_truncation(self, n_profiles: int, n_items: int) -> int:
        """Cluster truncation ``T_s`` for one shard's item/answer profile.

        The shared sizing rule of shard-local truncation adaptation: the
        same ``size // 4 + 2`` shape as :meth:`resolve_truncations`, fed
        with the shard's number of *distinct item answer profiles* (items
        with identical aggregated answer rows are indistinguishable to
        the clustering, so profiles — not raw items — bound the clusters
        a shard's data can support), clamped by :func:`clamp_truncation`
        to the shard's item count.  The kernel additionally caps the
        result at the global ``T``, so adaptation can only ever shrink a
        shard's truncation.
        """
        t = min(self.max_truncation, int(n_profiles) // 4 + 2)
        return clamp_truncation(t, n_items)

    def resolve_truncations(self, n_items: int, n_workers: int) -> tuple[int, int]:
        """Concrete ``(T, M)`` for a dataset of the given size.

        Auto mode uses ``min(max_truncation, size // 4 + 2)`` — generous
        relative to the handful of worker types / item themes the
        generative processes produce, so truncation does not bind, while
        keeping the cost of the ``(T, M, C)`` sufficient statistics low.
        Both levels are clamped by :func:`clamp_truncation`, so a
        truncation never exceeds the space it truncates (tiny/empty
        datasets resolve to one component, not two).
        """
        t = self.truncation_clusters or min(self.max_truncation, n_items // 4 + 2)
        m = self.truncation_communities or min(
            self.max_truncation, n_workers // 4 + 2
        )
        return clamp_truncation(t, n_items), clamp_truncation(m, n_workers)

    def with_overrides(self, **changes: object) -> "CPAConfig":
        """A modified copy (convenience for experiments)."""
        return replace(self, **changes)  # type: ignore[arg-type]
