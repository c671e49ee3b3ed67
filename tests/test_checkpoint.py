"""Checkpoint round-trips, versioning, and index-space growth.

Contracts under test (ISSUE 7 tentpole + satellite 3):

* **Bitwise round-trip** — ``save → load`` reproduces every parameter
  array bit for bit, across float32 and float64 configs, for both
  freshly initialised and SVI-trained states (the state is float64
  under either), and a payload with float32 arrays beside float64
  globals restores as their exact float64 upcasts.
* **Localized states** — a state whose ϕ rows carry exact-zero column
  tails keeps its zero pattern through a round-trip, and growth appends
  new components after every tail, so the tails stay zero.
* **Warm resume parity** — an engine restored from a checkpoint taken
  mid-stream continues the SVI trajectory bitwise: cold full-stream run
  and head → checkpoint → restore → tail agree on every array.
* **Format guards** — wrong magic, unsupported versions, header/array
  dtype disagreement, and corrupt blobs raise :class:`CheckpointError`,
  never a bare pickle/numpy error.
* **Growth rules** — ``grow_state`` never shrinks, preserves existing
  rows exactly (zero-padding responsibilities, prior-filling globals),
  keeps each array's own dtype, and is deterministic in its seed.
"""

import pickle

import numpy as np
import pytest

from repro.core.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    checkpoint_bytes,
    checkpoint_from_bytes,
    checkpoint_payload,
    grow_state,
    grown_truncations,
    load_checkpoint,
    payload_meta,
    save_checkpoint,
    state_from_payload,
)
from repro.core.config import CPAConfig, clamp_truncation
from repro.core.inference import VariationalInference
from repro.core.state import initialize_state
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.data.answers import AnswerMatrix
from repro.errors import CheckpointError
from repro.utils.math import cast_flushed

ARRAYS = ("rho", "ups", "lam", "zeta", "kappa", "phi", "cell_mass")


def _random_matrix(seed=0, n_items=40, n_workers=20, n_labels=8, per_item=3):
    rng = np.random.default_rng(seed)
    matrix = AnswerMatrix(n_items, n_workers, n_labels)
    for item in range(n_items):
        for worker in rng.choice(n_workers, size=per_item, replace=False):
            labels = tuple(np.flatnonzero(rng.random(n_labels) < 0.3)) or (0,)
            matrix.add(item, int(worker), labels)
    return matrix


def _zero_tails(phi, seed=0):
    """Zero a tail of columns in every other row of ``phi``, in place,
    then renormalise those rows, so they carry exact zeros."""
    rng = np.random.default_rng(seed)
    for row in range(0, phi.shape[0], 2):
        # keep the row's largest entry inside the prefix, so it has mass
        limit = max(int(rng.integers(1, phi.shape[1])), int(phi[row].argmax()) + 1)
        phi[row, limit:] = 0.0
        phi[row] /= phi[row].sum()


def _trained_engine(matrix, dtype="float64", n_batches=3, seed=0):
    config = CPAConfig(seed=seed, dtype=dtype, max_truncation=8, svi_batch_answers=30)
    engine = StochasticInference(
        config,
        matrix.n_items,
        matrix.n_workers,
        matrix.n_labels,
        seed=seed,
        total_answers_hint=matrix.n_answers,
    )
    batches = stream_from_matrix(matrix, answers_per_batch=30, seed=7)
    for batch in batches[:n_batches]:
        engine.process_batch(batch)
    return engine, batches


def float32_payload(payload):
    """``payload`` with the arrays a float32 state held cast (flushed) to
    float32, under a float32 header: the form such a state was written in."""
    payload = dict(payload, dtype="float32")
    for name in ("kappa", "phi", "mu", "lam", "cell_mass"):
        payload[name] = cast_flushed(payload[name], np.float32)
    return payload


def _assert_states_bitwise(a, b):
    for name in ARRAYS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)
    if a.mu is None:
        assert b.mu is None
    else:
        assert a.mu.dtype == b.mu.dtype
        np.testing.assert_array_equal(a.mu, b.mu)
    assert a.batches_seen == b.batches_seen
    assert (a.n_items, a.n_workers, a.n_labels) == (b.n_items, b.n_workers, b.n_labels)
    assert (a.n_clusters, a.n_communities) == (b.n_clusters, b.n_communities)


# --------------------------------------------------------------- round-trips


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_trained_state_round_trips_bitwise(self, dtype):
        engine, _ = _trained_engine(_random_matrix(), dtype=dtype)
        blob = checkpoint_bytes(engine.state, seeded=engine._seeded)
        restored, seeded = checkpoint_from_bytes(blob)
        assert seeded is engine._seeded is True
        _assert_states_bitwise(engine.state, restored)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fresh_state_round_trips_bitwise(self, dtype):
        config = CPAConfig(seed=3, dtype=dtype)
        state = initialize_state(config, 25, 10, 6, seed=3)
        restored, seeded = checkpoint_from_bytes(checkpoint_bytes(state))
        assert seeded is False
        _assert_states_bitwise(state, restored)

    def test_mixed_dtype_globals_survive(self):
        """A payload with float32 responsibilities and float64 globals, as
        a state that followed a float32 config was written, restores every
        array as its exact float64 upcast."""
        engine, _ = _trained_engine(_random_matrix(), dtype="float32")
        payload = float32_payload(engine.checkpoint())
        assert payload["rho"].dtype == np.float64  # seeded in float64
        restored, _ = state_from_payload(payload)
        for name in ARRAYS + ("mu",):
            array = getattr(restored, name)
            assert array.dtype == np.float64, name
            np.testing.assert_array_equal(array, payload[name].astype(np.float64))
        np.testing.assert_array_equal(engine.state.rho, restored.rho)

    def test_file_round_trip(self, tmp_path):
        engine, _ = _trained_engine(_random_matrix())
        path = str(tmp_path / "posterior.ckpt")
        written = save_checkpoint(path, engine.state, seeded=True)
        assert written == (tmp_path / "posterior.ckpt").stat().st_size
        restored, seeded = load_checkpoint(path)
        assert seeded is True
        _assert_states_bitwise(engine.state, restored)

    def test_payload_meta_reports_header(self):
        engine, _ = _trained_engine(_random_matrix())
        meta = payload_meta(checkpoint_payload(engine.state, seeded=True))
        assert meta.version == CHECKPOINT_VERSION
        assert (meta.n_items, meta.n_workers, meta.n_labels) == (40, 20, 8)
        assert meta.n_clusters == engine.state.n_clusters
        assert meta.batches_seen == engine.state.batches_seen == 3
        assert meta.seeded is True

    def test_loader_ignores_unknown_keys(self):
        """Serve-level snapshots extend the payload; core loaders must
        skip what they do not know rather than reject it."""
        state = initialize_state(CPAConfig(seed=0), 12, 6, 4, seed=0)
        payload = checkpoint_payload(state)
        payload["answers"] = {"entries": {(0, 1): (2,)}}
        payload["answers_seen"] = 17
        restored, _ = state_from_payload(payload)
        _assert_states_bitwise(state, restored)

    def test_localized_state_round_trips_with_zero_pattern(self):
        """A VI state whose ϕ rows carry exact-zero tails; the round-trip
        must reproduce the pattern bit for bit."""
        matrix = _random_matrix(seed=2, n_items=120, n_workers=24, per_item=2)
        engine = VariationalInference(CPAConfig(seed=0), matrix)
        for _ in range(3):
            engine.sweep()
        state = engine.state
        _zero_tails(state.phi)
        zero_mask = state.phi == 0.0
        assert zero_mask.any(), "scenario must produce localized zeros"
        restored, _ = checkpoint_from_bytes(checkpoint_bytes(state))
        _assert_states_bitwise(state, restored)
        np.testing.assert_array_equal(restored.phi == 0.0, zero_mask)


# -------------------------------------------------------------- warm resume


class TestWarmResume:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_resume_continues_trajectory_bitwise(self, dtype):
        matrix = _random_matrix(seed=4)
        cold_engine, batches = _trained_engine(matrix, dtype=dtype, n_batches=0)
        for batch in batches:
            cold_engine.process_batch(batch)

        head, _ = _trained_engine(matrix, dtype=dtype, n_batches=2)
        blob = pickle.dumps(head.checkpoint())
        warm, _ = _trained_engine(matrix, dtype=dtype, n_batches=0)
        warm.restore(pickle.loads(blob))
        for batch in batches[2:]:
            warm.process_batch(batch)

        _assert_states_bitwise(cold_engine.state, warm.state)

    def test_restore_preserves_seeded_flag(self):
        """Restoring a post-seeding checkpoint must not re-run the
        symmetry-breaking pass (which would erase the posterior)."""
        matrix = _random_matrix(seed=5)
        head, _ = _trained_engine(matrix, n_batches=2)
        assert head._seeded
        warm, _ = _trained_engine(matrix, n_batches=0)
        assert not warm._seeded
        warm.restore(head.checkpoint())
        assert warm._seeded

    def test_restore_grows_smaller_checkpoint(self):
        """A checkpoint taken before new items/workers appeared restores
        into a bigger engine by growing, deterministically."""
        small = _random_matrix(seed=6, n_items=20, n_workers=10)
        head, _ = _trained_engine(small, n_batches=2)
        payload = head.checkpoint()

        def make_big():
            config = CPAConfig(seed=0, max_truncation=8, svi_batch_answers=30)
            return StochasticInference(config, 35, 16, 8, seed=0)

        first, second = make_big(), make_big()
        first.restore(payload)
        second.restore(payload)
        _assert_states_bitwise(first.state, second.state)
        assert first.state.n_items == 35
        assert first.state.batches_seen == head.state.batches_seen
        # old rows survive exactly
        np.testing.assert_array_equal(
            first.state.phi[:20, : head.state.n_clusters], head.state.phi
        )


# ------------------------------------------------------------- format guards


class TestFormatGuards:
    def _payload(self):
        state = initialize_state(CPAConfig(seed=0), 10, 5, 4, seed=0)
        return checkpoint_payload(state)

    def test_rejects_wrong_magic(self):
        payload = self._payload()
        payload["magic"] = "not-a-checkpoint"
        with pytest.raises(CheckpointError, match="not a CPA checkpoint"):
            payload_meta(payload)
        with pytest.raises(CheckpointError):
            state_from_payload({"pickles": "arbitrary"})

    def test_rejects_future_version(self):
        payload = self._payload()
        payload["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError, match="version"):
            state_from_payload(payload)

    def test_rejects_header_phi_dtype_disagreement(self):
        payload = self._payload()
        payload["dtype"] = "float32"  # phi is float64
        with pytest.raises(CheckpointError, match="dtype"):
            state_from_payload(payload)

    def test_rejects_corrupt_blob(self):
        with pytest.raises(CheckpointError):
            checkpoint_from_bytes(b"\x00\x01 definitely not a pickle")

    def test_rejects_tampered_arrays(self):
        payload = self._payload()
        payload["phi"] = -payload["phi"]  # negative responsibilities
        with pytest.raises(CheckpointError, match="validation"):
            state_from_payload(payload)

    def test_magic_is_part_of_the_wire_format(self):
        assert CHECKPOINT_MAGIC == "cpa-checkpoint"
        payload = self._payload()
        assert payload["magic"] == CHECKPOINT_MAGIC


# ------------------------------------------------------------------- growth


class TestGrowth:
    def _grown(self, dtype="float64", seed=11):
        matrix = _random_matrix(seed=8)
        engine, _ = _trained_engine(matrix, dtype=dtype)
        old = engine.state
        new = grow_state(old, engine.config, 60, 30, 11, seed=seed)
        return old, new, engine.config

    def test_rejects_shrink(self):
        old, _, config = self._grown()
        with pytest.raises(CheckpointError, match="shrink"):
            grow_state(old, config, old.n_items - 1, old.n_workers, old.n_labels)

    def test_same_sizes_return_independent_copy(self):
        old, _, config = self._grown()
        copy = grow_state(old, config, old.n_items, old.n_workers, old.n_labels)
        assert copy is not old
        _assert_states_bitwise(old, copy)
        copy.phi[0, 0] += 1.0
        assert old.phi[0, 0] != copy.phi[0, 0]

    def test_truncations_never_shrink(self):
        old, new, config = self._grown()
        t, m = grown_truncations(config, old, 60, 30)
        assert (new.n_clusters, new.n_communities) == (t, m)
        assert t >= old.n_clusters and m >= old.n_communities
        assert t <= clamp_truncation(config.max_truncation, 60) or t == old.n_clusters

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_existing_rows_preserved_exactly(self, dtype):
        old, new, _ = self._grown(dtype=dtype)
        t_old, m_old = old.n_clusters, old.n_communities
        np.testing.assert_array_equal(new.phi[: old.n_items, :t_old], old.phi)
        np.testing.assert_array_equal(new.kappa[: old.n_workers, :m_old], old.kappa)
        np.testing.assert_array_equal(
            new.lam[:t_old, :m_old, : old.n_labels], old.lam
        )
        np.testing.assert_array_equal(new.zeta[:t_old, : old.n_labels], old.zeta)
        np.testing.assert_array_equal(new.rho[: m_old - 1], old.rho)
        np.testing.assert_array_equal(new.ups[: t_old - 1], old.ups)
        np.testing.assert_array_equal(
            new.cell_mass[:t_old, :m_old], old.cell_mass
        )
        # responsibilities of existing rows are padded with exact zeros,
        # so row sums (and any localized windows) are untouched
        assert np.all(new.phi[: old.n_items, t_old:] == 0.0)
        assert np.all(new.kappa[: old.n_workers, m_old:] == 0.0)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_arrays_keep_their_own_dtypes(self, dtype):
        old, new, _ = self._grown(dtype=dtype)
        for name in ARRAYS:
            assert getattr(new, name).dtype == getattr(old, name).dtype, name

    def test_growth_is_deterministic_in_seed(self):
        _, first, _ = self._grown(seed=11)
        _, second, _ = self._grown(seed=11)
        _, third, _ = self._grown(seed=12)
        _assert_states_bitwise(first, second)
        assert not np.array_equal(first.phi[40:], third.phi[40:])

    def test_grown_state_validates_and_carries_bookkeeping(self):
        old, new, _ = self._grown()
        new.validate()
        assert new.batches_seen == old.batches_seen
        assert new.mu is not None and new.mu.shape == (60, new.n_clusters - 1)

    def test_localized_windows_survive_growth(self):
        """New clusters are appended after the old ones, so rows localized
        to a prefix keep their exact zero tail after growth."""
        matrix = _random_matrix(seed=9, n_items=80, n_workers=16, per_item=2)
        config = CPAConfig(seed=0)
        engine = VariationalInference(config, matrix)
        for _ in range(2):
            engine.sweep()
        old = engine.state
        _zero_tails(old.phi, seed=1)
        t_old = old.n_clusters
        zero_tail_rows = np.flatnonzero((old.phi == 0.0).any(axis=1))
        grown = grow_state(old, config, 100, 20, old.n_labels, seed=1)
        assert zero_tail_rows.size and grown.n_clusters > t_old
        for row in zero_tail_rows:
            np.testing.assert_array_equal(
                grown.phi[row, :t_old] == 0.0, old.phi[row] == 0.0
            )
            assert np.all(grown.phi[row, t_old:] == 0.0)

    def test_grown_engine_accepts_pre_growth_batches(self):
        """A batch minted before label growth (narrow indicator matrix)
        must still fold after the engine grows."""
        matrix = _random_matrix(seed=10)
        engine, batches = _trained_engine(matrix, n_batches=2)
        engine.grow(matrix.n_items + 5, matrix.n_workers + 3, matrix.n_labels + 2)
        engine.process_batch(batches[2])  # old-width batch
        assert engine.state.batches_seen == 3
        engine.state.validate()
