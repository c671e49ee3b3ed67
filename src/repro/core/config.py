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


def clamp_truncation(t: int, space: int) -> int:
    """Clamp a truncation level ``t`` to an index space of ``space`` elements.

    The contract (pinned by ``tests/test_truncation.py``):

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
    svi_batch_answers:
        SVI step size in answers (the paper uses 100, §5.3): the online
        engine (:class:`~repro.core.online.ConsensusEngine`, behind
        :meth:`CPAModel.partial_fit` and ``repro.serve``) splits each
        arrival batch into steps of at most this many answers, so the
        Robbins-Monro averaging sees enough steps even when data arrives
        in large increments.  A ``total_answers_hint`` under 20 times this
        lowers the step to ``hint // 20`` answers, never below 50
        (:meth:`ConsensusEngine.step_answers`).
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
        Compute dtype (``"float32"`` / ``"float64"``) of the sweep
        kernels: their incidence matrices and products, and every array a
        shard lane holds, receives or returns.  The posterior (κ, ϕ, µ,
        λ, ρ, υ, ζ, the cell mass) is float64 in every engine, checkpoint
        and snapshot either way; scores and statistics merge into it in
        float64, and the ELBO and the consensus are evaluated in float64.
        ``"float32"`` (default) halves the memory traffic of the products
        and the bytes lanes exchange; ``"float64"`` is the bit-exact
        oracle mode of the parity suites (DESIGN.md §6 "Dtype policy").
    backend:
        Sweep-kernel backend: ``"fused"`` (default; the fused kernel of
        DESIGN.md §6, which runs in the calling process and uses no
        executor lanes), ``"sharded"`` (item-partitioned shards whose
        contractions run as independent executor tasks and whose
        sufficient statistics are merged in fixed shard order;
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
    executor:
        Executor kind the config describes: ``"serial"`` (default),
        ``"thread"``, ``"process"`` (local child processes running the
        remote-lane protocol over socketpairs), or ``"remote"`` (lanes on
        ``python -m repro.worker`` daemons named by ``workers``;
        DESIGN.md §6 "Remote lanes").  Lanes run shards, so only a
        sharded kernel (``backend="sharded"``, or ``"auto"`` when it
        picks shards) uses them; a fused kernel ignores the executor.
        Both engines build their executor from this spec
        (:meth:`resolve_executor`) whenever no explicit
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
    svi_batch_answers: int = 100
    consensus_floor: float = 0.02
    consensus_smoothing: float = 1.0
    consensus_blend: float = 2.0
    use_item_evidence: bool = True
    evidence_weight: float = 1.0
    max_predicted_labels: int = 0
    exhaustive_label_limit: int = 16
    dtype: str = "float32"
    backend: str = "fused"
    n_shards: int = 0
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
        """The numpy dtype the sweep kernels compute in."""
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

    def resolve_shards(
        self, degree: int = 1, n_items: int = 0, n_answers: int = 0
    ) -> int:
        """Concrete shard count ``K`` for a sharded run.

        An explicit count is honoured regardless of the executor.  Auto
        mode (``n_shards == 0``) matches the executor's parallel degree so
        each lane owns one shard; under ``backend="auto"`` it sizes K
        from the ``n_answers`` volume instead
        (:func:`repro.core.kernels.auto_shard_count`, at least one shard
        per lane).  A fresh plan and an elastic re-plan both take K from
        here, so a fit's partition does not depend on when a lane
        joined.  ``n_items`` (when known — callers with a concrete matrix
        pass the *answered* item count) caps the result:
        :class:`~repro.core.sharding.ShardPlan` partitions by item, so no
        request can realise more shards than answered items.
        """
        if self.n_shards > 0:
            k = self.n_shards
        elif self.backend == "auto":
            # Local import: kernels imports state, which imports this module.
            from repro.core.kernels import auto_shard_count

            k = auto_shard_count(int(n_answers), int(degree))
        else:
            k = max(1, int(degree))
        if n_items > 0:
            k = min(k, int(n_items))
        return k

    def resolve_backend(
        self, n_answers: int, degree: int = 1, n_items: int = 0
    ) -> tuple[str, int]:
        """Concrete ``(backend, n_shards)`` for a matrix/batch of ``n_answers``.

        Explicit ``"fused"`` / ``"sharded"`` selections pass through.
        ``"auto"`` applies the measured rule of
        :func:`repro.core.kernels.sharded_pays_off`: sharded above the
        volume crossover (lowered when the executor has parallel lanes),
        fused below it.  :meth:`resolve_shards` sizes K for every sharded
        result.  Callers resolve per matrix — the SVI engine per batch —
        so one config serves mixed workloads.  ``n_items`` (the answered
        item count, when the caller has a concrete matrix) caps K.
        """
        if self.backend == "fused":
            return "fused", 0
        # Local import: kernels imports state, which imports this module.
        from repro.core.kernels import sharded_pays_off

        if self.backend == "sharded" or sharded_pays_off(int(n_answers), int(degree)):
            return "sharded", self.resolve_shards(degree, n_items, n_answers)
        return "fused", 0

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
