"""Versioned serialization and growth of :class:`~repro.core.state.CPAState`.

The always-on serving layer (DESIGN.md §6 "Serving") needs the variational
posterior to outlive a process: a daemon restart warm-starts from the last
checkpoint and must continue the SVI trajectory *bitwise*, and serving
replicas refresh their posterior by shipping checkpoints over the
content-addressed chunk store.  Two properties drive the format:

* **Exactness** — a round-trip reproduces every parameter array bit for
  bit, plus the engine-level bookkeeping SVI needs to continue
  (``batches_seen`` is part of the state; the symmetry-breaking
  ``seeded`` flag rides in the metadata).  The state is float64; a
  payload with float32 arrays (written when the state followed
  ``CPAConfig.dtype``) restores as their exact upcasts.
* **Chunk stability** — the byte stream is a pickled dict whose array
  buffers sit at stable offsets between snapshots of the same shapes, so
  after a small SVI step only the chunks covering the touched ``ϕ``/``µ``
  rows differ and the chunk store ships a small delta
  (:func:`repro.serve.ship_checkpoint`).

Growth (:func:`grow_state`) lets a warm-started engine absorb new items,
workers, or labels appearing mid-stream: truncations are re-resolved with
the same :func:`~repro.core.config.clamp_truncation`-consistent rule as
:meth:`CPAConfig.resolve_truncations` (never shrinking), existing
responsibility rows are padded with exact zeros on the new components
(so every exact zero a row held stays where it was), and new rows /
global parameters are initialised exactly as
:func:`~repro.core.state.initialize_state` would.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as np

from repro.core.config import CPAConfig, clamp_truncation
from repro.core.state import CPAState
from repro.errors import CheckpointError
from repro.utils.math import normalize_rows
from repro.utils.random import RandomState, Seed

#: Format magic — guards against feeding arbitrary pickles to the loader.
CHECKPOINT_MAGIC = "cpa-checkpoint"

#: Bump on any incompatible payload change; loaders reject other versions.
CHECKPOINT_VERSION = 1

#: Array fields serialized verbatim (``mu`` is optional and handled apart).
_ARRAY_FIELDS = ("rho", "ups", "lam", "zeta", "kappa", "phi", "cell_mass")


@dataclass(frozen=True)
class CheckpointMeta:
    """Shape/dtype header of a checkpoint, available without the arrays."""

    version: int
    dtype: str
    n_items: int
    n_workers: int
    n_labels: int
    n_clusters: int
    n_communities: int
    batches_seen: int
    seeded: bool


def checkpoint_payload(
    state: CPAState, *, seeded: bool = False
) -> Dict[str, Any]:
    """The serializable dict form of ``state`` (arrays shared, not copied).

    ``seeded`` records whether the owning SVI engine has already run its
    first-batch symmetry-breaking initialisation — without it a restored
    engine would re-seed on its next batch and erase the posterior.
    """
    payload: Dict[str, Any] = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "dtype": str(state.phi.dtype),
        "n_items": state.n_items,
        "n_workers": state.n_workers,
        "n_labels": state.n_labels,
        "n_clusters": state.n_clusters,
        "n_communities": state.n_communities,
        "batches_seen": state.batches_seen,
        "seeded": bool(seeded),
        "mu": None if state.mu is None else np.ascontiguousarray(state.mu),
    }
    for name in _ARRAY_FIELDS:
        payload[name] = np.ascontiguousarray(getattr(state, name))
    return payload


def payload_meta(payload: Dict[str, Any]) -> CheckpointMeta:
    """Validate a payload's header and return it as :class:`CheckpointMeta`."""
    if not isinstance(payload, dict) or payload.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError("not a CPA checkpoint payload")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    try:
        return CheckpointMeta(
            version=int(version),
            dtype=str(payload["dtype"]),
            n_items=int(payload["n_items"]),
            n_workers=int(payload["n_workers"]),
            n_labels=int(payload["n_labels"]),
            n_clusters=int(payload["n_clusters"]),
            n_communities=int(payload["n_communities"]),
            batches_seen=int(payload["batches_seen"]),
            seeded=bool(payload["seeded"]),
        )
    except KeyError as exc:  # pragma: no cover - corrupted payloads
        raise CheckpointError(f"checkpoint payload is missing field {exc}") from exc


def state_from_payload(payload: Dict[str, Any]) -> Tuple[CPAState, bool]:
    """Rebuild ``(state, seeded)`` from a payload; validates the result."""
    meta = payload_meta(payload)
    # The header names the dtype of the responsibility arrays it was
    # written with; every array is adopted as a float64 copy (an exact
    # upcast of float32).
    if np.dtype(meta.dtype) != np.asarray(payload["phi"]).dtype:
        raise CheckpointError(
            f"checkpoint header dtype {meta.dtype} disagrees with the "
            f"phi array ({np.asarray(payload['phi']).dtype})"
        )
    arrays = {
        name: np.array(payload[name], dtype=np.float64) for name in _ARRAY_FIELDS
    }
    mu = payload.get("mu")
    state = CPAState(
        n_items=meta.n_items,
        n_workers=meta.n_workers,
        n_labels=meta.n_labels,
        n_clusters=meta.n_clusters,
        n_communities=meta.n_communities,
        mu=None if mu is None else np.array(mu, dtype=np.float64),
        batches_seen=meta.batches_seen,
        **arrays,
    )
    try:
        state.validate()
    except Exception as exc:  # noqa: BLE001 - rewrapped as CheckpointError
        raise CheckpointError(f"checkpoint state fails validation: {exc}") from exc
    return state, meta.seeded


def checkpoint_bytes(state: CPAState, *, seeded: bool = False) -> bytes:
    """Pickle a checkpoint payload (the blob the chunk store ships)."""
    return pickle.dumps(
        checkpoint_payload(state, seeded=seeded), protocol=pickle.HIGHEST_PROTOCOL
    )


def checkpoint_from_bytes(blob: bytes) -> Tuple[CPAState, bool]:
    """Inverse of :func:`checkpoint_bytes`."""
    try:
        payload = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - rewrapped as CheckpointError
        raise CheckpointError(f"checkpoint blob is not unpicklable: {exc}") from exc
    return state_from_payload(payload)


def save_checkpoint(path: str, state: CPAState, *, seeded: bool = False) -> int:
    """Write a checkpoint file; returns the byte count written."""
    blob = checkpoint_bytes(state, seeded=seeded)
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)


def load_checkpoint(path: str) -> Tuple[CPAState, bool]:
    """Read ``(state, seeded)`` back from a checkpoint file."""
    with open(path, "rb") as handle:
        blob = handle.read()
    return checkpoint_from_bytes(blob)


def grown_truncations(
    config: CPAConfig,
    state: CPAState,
    n_items: int,
    n_workers: int,
) -> Tuple[int, int]:
    """``(T', M')`` for a state growing to ``n_items`` × ``n_workers``.

    Re-resolves the configured truncations at the new sizes and takes the
    maximum with the state's current levels: growth may widen a truncation
    (the new space supports more components) but never narrows one — the
    posterior's existing components must survive.  The result respects the
    :func:`~repro.core.config.clamp_truncation` contract because the
    current levels already do and the spaces only grew.
    """
    resolved_t, resolved_m = config.resolve_truncations(n_items, n_workers)
    t = max(state.n_clusters, clamp_truncation(resolved_t, n_items))
    m = max(state.n_communities, clamp_truncation(resolved_m, n_workers))
    return t, m


def grow_state(
    state: CPAState,
    config: CPAConfig,
    n_items: int,
    n_workers: int,
    n_labels: int,
    seed: Seed = None,
) -> CPAState:
    """A copy of ``state`` grown to the given index-space sizes.

    Every dimension must be at least its current size (checkpoints only
    grow).  Existing posterior rows are preserved exactly:

    * ``phi`` / ``kappa`` rows are padded with **exact zeros** on the new
      clusters/communities — row sums are untouched, and the new
      components are appended after the old ones, so a row's existing
      zero pattern is preserved;
    * ``lam`` keeps the old ``(T, M, C)`` block and fills new cells with
      the jittered ``gamma0`` prior, ``zeta`` with ``eta0``, new
      ``rho``/``ups`` sticks with the ``(1, α)`` / ``(1, ε)`` priors, and
      ``cell_mass`` with zeros — exactly
      :func:`~repro.core.state.initialize_state`'s priors;
    * new item/worker rows get the same jittered random-hard
      responsibilities ``initialize_state`` draws, from a generator
      seeded by ``seed`` (default ``config.seed``), so growth is a pure
      function of ``(state, config, sizes, seed)``;
    * ``mu`` (when present) is re-synchronised from the grown ``phi``;
      ``batches_seen`` carries over.
    """
    if (
        n_items < state.n_items
        or n_workers < state.n_workers
        or n_labels < state.n_labels
    ):
        raise CheckpointError(
            f"cannot shrink a checkpoint: state is "
            f"({state.n_items} items, {state.n_workers} workers, "
            f"{state.n_labels} labels), requested "
            f"({n_items}, {n_workers}, {n_labels})"
        )
    if (n_items, n_workers, n_labels) == (
        state.n_items,
        state.n_workers,
        state.n_labels,
    ):
        return state.copy()

    rng = RandomState(config.seed if seed is None else seed)
    t_new, m_new = grown_truncations(config, state, n_items, n_workers)
    t_old, m_old = state.n_clusters, state.n_communities
    c_old = state.n_labels
    hard_weight = 0.8

    def random_hard(rows: int, cols: int) -> np.ndarray:
        responsibilities = np.full((rows, cols), (1.0 - hard_weight) / cols)
        assignment = rng.integers(cols, size=rows)
        responsibilities[np.arange(rows), assignment] += hard_weight
        noise = 1.0 + config.init_noise * rng.random((rows, cols))
        return normalize_rows(responsibilities * noise)

    rho = np.empty((m_new - 1, 2), dtype=np.float64)
    rho[:, 0] = 1.0
    rho[:, 1] = config.alpha
    rho[: m_old - 1] = state.rho
    ups = np.empty((t_new - 1, 2), dtype=np.float64)
    ups[:, 0] = 1.0
    ups[:, 1] = config.epsilon
    ups[: t_old - 1] = state.ups

    lam = config.gamma0 * (1.0 + 0.1 * rng.random((t_new, m_new, n_labels)))
    lam[:t_old, :m_old, :c_old] = state.lam
    zeta = np.full((t_new, n_labels, 2), config.eta0, dtype=np.float64)
    zeta[:t_old, :c_old] = state.zeta
    cell_mass = np.zeros((t_new, m_new), dtype=np.float64)
    cell_mass[:t_old, :m_old] = state.cell_mass

    kappa = np.zeros((n_workers, m_new), dtype=np.float64)
    kappa[: state.n_workers, :m_old] = state.kappa
    if n_workers > state.n_workers:
        kappa[state.n_workers :] = random_hard(n_workers - state.n_workers, m_new)
    phi = np.zeros((n_items, t_new), dtype=np.float64)
    phi[: state.n_items, :t_old] = state.phi
    if n_items > state.n_items:
        phi[state.n_items :] = random_hard(n_items - state.n_items, t_new)

    grown = CPAState(
        n_items=n_items,
        n_workers=n_workers,
        n_labels=n_labels,
        n_clusters=t_new,
        n_communities=m_new,
        rho=rho,
        ups=ups,
        lam=lam,
        zeta=zeta,
        kappa=kappa,
        phi=phi,
        cell_mass=cell_mass,
        batches_seen=state.batches_seen,
    )
    if state.mu is not None:
        grown.sync_mu_from_phi()
    grown.validate()
    return grown
