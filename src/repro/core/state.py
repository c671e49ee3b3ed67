"""The variational state of the CPA model.

Holds every variational parameter of paper §3.3 in dense numpy form:

=========  =====================  ==========================================
symbol     array (shape)          variational factor
=========  =====================  ==========================================
``rho``    ``(M-1, 2)``           ``q(π'_m) = Beta(ρ_m1, ρ_m2)``
``ups``    ``(T-1, 2)``           ``q(τ'_t) = Beta(υ_t1, υ_t2)``
``lam``    ``(T, M, C)``          ``q(ψ_tm) = Dir(λ_tm)``
``zeta``   ``(T, C, 2)``          per-label Beta posterior of ``φ_t``
``kappa``  ``(U, M)``             ``q(z_u) = Mult(κ_u)``
``phi``    ``(I, T)``             ``q(l_i) = Mult(ϕ_i)``
=========  =====================  ==========================================

``zeta`` deviates from the paper's single Dirichlet (see DESIGN.md §4.3):
true label sets are *subsets*, so each label's inclusion gets a Beta
posterior — ``zeta[t, c] = (a, b)`` with ``a`` counting observed presence
and ``b`` observed absence under cluster ``t``.

The state additionally tracks ``cell_mass`` (``(T, M)`` expected answer
counts per cluster-community cell), the sufficient statistic the consensus
estimator divides by, and — during online learning — ``mu``
(``(I, T-1)``), the canonical parameterisation of ``ϕ`` from paper §4.1.

Every array is float64, whatever ``CPAConfig.dtype`` (the sweep kernels'
compute dtype): rows a float32 kernel produced are stored as exact
upcasts (DESIGN.md §6 "Dtype policy").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.config import CPAConfig
from repro.errors import ValidationError
from repro.utils.math import flush_subnormals, normalize_rows
from repro.utils.random import RandomState, Seed


@dataclass
class CPAState:
    """Mutable container of variational parameters (see module docstring)."""

    n_items: int
    n_workers: int
    n_labels: int
    n_clusters: int
    n_communities: int
    rho: np.ndarray
    ups: np.ndarray
    lam: np.ndarray
    zeta: np.ndarray
    kappa: np.ndarray
    phi: np.ndarray
    cell_mass: np.ndarray
    mu: Optional[np.ndarray] = None
    batches_seen: int = 0

    def validate(self) -> None:
        """Raise if any parameter has drifted out of its legal domain."""
        checks = [
            ("rho", self.rho, (self.n_communities - 1, 2)),
            ("ups", self.ups, (self.n_clusters - 1, 2)),
            ("lam", self.lam, (self.n_clusters, self.n_communities, self.n_labels)),
            ("zeta", self.zeta, (self.n_clusters, self.n_labels, 2)),
            ("kappa", self.kappa, (self.n_workers, self.n_communities)),
            ("phi", self.phi, (self.n_items, self.n_clusters)),
            ("cell_mass", self.cell_mass, (self.n_clusters, self.n_communities)),
        ]
        for name, array, shape in checks:
            if array.shape != shape:
                raise ValidationError(f"{name} has shape {array.shape}, expected {shape}")
            if not np.all(np.isfinite(array)):
                raise ValidationError(f"{name} contains non-finite values")
        for name, array in (
            ("rho", self.rho),
            ("ups", self.ups),
            ("lam", self.lam),
            ("zeta", self.zeta),
        ):
            if np.any(array <= 0):
                raise ValidationError(f"{name} must stay strictly positive")
        for name, array in (("kappa", self.kappa), ("phi", self.phi)):
            if np.any(array < -1e-9) or not np.allclose(array.sum(axis=-1), 1.0, atol=1e-6):
                raise ValidationError(f"{name} rows must be distributions")

    def copy(self) -> "CPAState":
        """Deep copy of all parameter arrays."""
        return CPAState(
            n_items=self.n_items,
            n_workers=self.n_workers,
            n_labels=self.n_labels,
            n_clusters=self.n_clusters,
            n_communities=self.n_communities,
            rho=self.rho.copy(),
            ups=self.ups.copy(),
            lam=self.lam.copy(),
            zeta=self.zeta.copy(),
            kappa=self.kappa.copy(),
            phi=self.phi.copy(),
            cell_mass=self.cell_mass.copy(),
            mu=None if self.mu is None else self.mu.copy(),
            batches_seen=self.batches_seen,
        )

    def permuted(
        self,
        item_permutation: Optional[np.ndarray] = None,
        worker_permutation: Optional[np.ndarray] = None,
    ) -> "CPAState":
        """Equivariant copy under item/worker relabelling.

        ``item_permutation[i]`` is the new id of item ``i`` (likewise for
        workers): row ``i`` of ``ϕ``/``µ`` moves to row
        ``item_permutation[i]``, row ``u`` of ``κ`` to
        ``worker_permutation[u]``.  Global parameters (``ρ``, ``υ``,
        ``λ``, ``ζ``, ``cell_mass``) are not indexed by items or workers
        and are copied unchanged.  Used by the invariance tests: running
        inference on a relabelled matrix from the correspondingly permuted
        state must track the original trajectory row-for-row.
        """

        def _check(name: str, perm: np.ndarray, size: int) -> np.ndarray:
            perm = np.asarray(perm, dtype=np.int64)
            if perm.shape != (size,) or not np.array_equal(
                np.sort(perm), np.arange(size)
            ):
                raise ValidationError(f"{name} must be a permutation of range({size})")
            return perm

        out = self.copy()
        if item_permutation is not None:
            perm = _check("item_permutation", item_permutation, self.n_items)
            out.phi[perm] = self.phi
            if self.mu is not None:
                assert out.mu is not None
                out.mu[perm] = self.mu
        if worker_permutation is not None:
            perm = _check("worker_permutation", worker_permutation, self.n_workers)
            out.kappa[perm] = self.kappa
        return out

    def distributions(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(κ, ϕ)`` with every row divided by its float64 sum: the
        distributions the stored rows represent.  A float32 softmax sums to
        one within a few float32 ulps only, so the ELBO and the consensus
        read these under a float32 kernel."""
        return normalize_rows(self.kappa), normalize_rows(self.phi)

    def hard_communities(self) -> np.ndarray:
        """MAP community of each worker (argmax of ``κ``)."""
        return np.argmax(self.kappa, axis=1)

    def hard_clusters(self) -> np.ndarray:
        """MAP cluster of each item (argmax of ``ϕ``)."""
        return np.argmax(self.phi, axis=1)

    def effective_communities(self, min_mass: float = 0.5) -> int:
        """Number of communities with expected membership above ``min_mass``."""
        return int((self.kappa.sum(axis=0) > min_mass).sum())

    def effective_clusters(self, min_mass: float = 0.5) -> int:
        """Number of item clusters with expected occupancy above ``min_mass``."""
        return int((self.phi.sum(axis=0) > min_mass).sum())

    def sync_mu_from_phi(self) -> None:
        """Initialise ``µ`` (canonical ϕ parameters, Eq. 16/17) from ``ϕ``."""
        safe = np.clip(self.phi, 1e-10, None)
        self.mu = np.log(safe[:, :-1]) - np.log(safe[:, -1:])

    def sync_phi_from_mu(self, rows: Optional[np.ndarray] = None) -> None:
        """Recover ``ϕ`` from ``µ`` via the softmax transform (Eq. 16/17).

        With ``rows`` (item indices), only those rows are recomputed and
        written into ``ϕ`` in place; the others keep their values.  The
        softmax is row-local, so a row's bits do not depend on which other
        rows are computed with it: refreshing the rows whose ``µ`` changed
        equals a full refresh exactly when every other row of ``ϕ`` already
        is the softmax of its ``µ`` row.  :meth:`sync_mu_from_phi` breaks
        that (its clip moves the small entries), so the first refresh after
        it must cover every row.  Like every κ/ϕ producer, the result holds
        no subnormals (:func:`repro.utils.math.flush_subnormals`).
        """
        if self.mu is None:
            raise ValidationError("mu has not been initialised")
        mu = self.mu if rows is None else self.mu[rows]
        padded = np.concatenate(
            [mu, np.zeros((mu.shape[0], 1), dtype=mu.dtype)], axis=1
        )
        padded -= padded.max(axis=1, keepdims=True)
        expd = np.exp(padded)
        phi = flush_subnormals(expd / expd.sum(axis=1, keepdims=True))
        if rows is None:
            self.phi = phi
        else:
            self.phi[rows] = phi


def _farthest_point_responsibilities(
    signatures: np.ndarray,
    n_components: int,
    rng: np.random.Generator,
    hard_weight: float,
) -> np.ndarray:
    """Seeded near-hard assignment of rows to ``n_components`` groups.

    Seeds are chosen by farthest-point (kmeans++-style) sampling on cosine
    distance between row signatures; every row is then assigned to its
    nearest seed with probability mass ``hard_weight`` and the remainder
    spread uniformly.  Rows with empty signatures are assigned uniformly.

    This is the symmetry-breaking initialisation for the DP-mixture VI:
    a near-uniform start makes the stick-breaking prior collapse all mass
    onto the first components before the likelihood can differentiate
    them (a well-known failure mode of truncated DP variational
    inference), whereas seeded hard assignments give every component a
    distinct, data-backed profile from sweep one.
    """
    rows = signatures.shape[0]
    norms = np.linalg.norm(signatures, axis=1)
    valid = norms > 0
    unit = np.zeros_like(signatures)
    unit[valid] = signatures[valid] / norms[valid, None]

    seeds = [int(rng.integers(rows))]
    similarity = unit @ unit[seeds[0]]
    for _ in range(min(n_components, rows) - 1):
        distance = 1.0 - similarity
        distance[seeds] = -np.inf
        jitter = 1e-6 * rng.random(rows)
        next_seed = int(np.argmax(distance + jitter))
        seeds.append(next_seed)
        similarity = np.maximum(similarity, unit @ unit[next_seed])

    seed_matrix = unit[seeds]  # (S, D)
    assignment = np.argmax(unit @ seed_matrix.T, axis=1)  # (rows,)
    assignment[~valid] = rng.integers(len(seeds), size=int((~valid).sum()))

    responsibilities = np.full(
        (rows, n_components), (1.0 - hard_weight) / n_components
    )
    responsibilities[np.arange(rows), assignment] += hard_weight
    return normalize_rows(responsibilities)


def initialize_state(
    config: CPAConfig,
    n_items: int,
    n_workers: int,
    n_labels: int,
    seed: Seed = None,
    *,
    item_signatures: Optional[np.ndarray] = None,
    worker_signatures: Optional[np.ndarray] = None,
) -> CPAState:
    """Initialisation of all variational parameters (paper Alg. 1).

    When answer-derived ``item_signatures`` / ``worker_signatures`` are
    supplied (shape ``(I, C)`` / ``(U, C)``), responsibilities start from
    seeded near-hard assignments (see
    :func:`_farthest_point_responsibilities`); otherwise they start from
    jittered random hard assignments.  Dirichlet/Beta parameters start at
    their priors with small positive jitter.
    """
    rng = RandomState(config.seed if seed is None else seed)
    n_clusters, n_communities = config.resolve_truncations(n_items, n_workers)
    hard_weight = 0.8

    def random_hard(rows: int, cols: int) -> np.ndarray:
        responsibilities = np.full((rows, cols), (1.0 - hard_weight) / cols)
        assignment = rng.integers(cols, size=rows)
        responsibilities[np.arange(rows), assignment] += hard_weight
        noise = 1.0 + config.init_noise * rng.random((rows, cols))
        return normalize_rows(responsibilities * noise)

    if worker_signatures is not None:
        kappa = _farthest_point_responsibilities(
            worker_signatures, n_communities, rng, hard_weight
        )
    else:
        kappa = random_hard(n_workers, n_communities)
    if item_signatures is not None:
        phi = _farthest_point_responsibilities(
            item_signatures, n_clusters, rng, hard_weight
        )
    else:
        phi = random_hard(n_items, n_clusters)

    rho = np.empty((n_communities - 1, 2), dtype=np.float64)
    rho[:, 0] = 1.0
    rho[:, 1] = config.alpha
    ups = np.empty((n_clusters - 1, 2), dtype=np.float64)
    ups[:, 0] = 1.0
    ups[:, 1] = config.epsilon

    lam = config.gamma0 * (
        1.0 + 0.1 * rng.random((n_clusters, n_communities, n_labels))
    )
    zeta = np.full((n_clusters, n_labels, 2), config.eta0, dtype=np.float64)
    cell_mass = np.zeros((n_clusters, n_communities), dtype=np.float64)

    return CPAState(
        n_items=n_items,
        n_workers=n_workers,
        n_labels=n_labels,
        n_clusters=n_clusters,
        n_communities=n_communities,
        rho=rho,
        ups=ups,
        lam=lam,
        zeta=zeta,
        kappa=kappa,
        phi=phi,
        cell_mass=cell_mass,
    )
