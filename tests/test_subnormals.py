"""Responsibilities never hold subnormal floats (DESIGN.md §6
"Subnormal responsibilities").

Contracts under test:

* **The invariant** — after a batch-VI fit and after an SVI stream, no
  κ/ϕ entry lies strictly between 0 and the smallest normal of the dtype
  the array is stored in, for float64 and float32 states alike.  Every
  producer (``log_normalize_rows``, ``CPAState.sync_phi_from_mu``,
  ``kernels.truncate_rows``, the SVI κ cast) flushes; a subnormal left
  behind would slow every BLAS contraction that reads it.
* **Exactness** — the fused and the sharded engine, which flush, stay
  within the documented ``1e-8`` of the unflushed seed oracle
  (:class:`repro.core.reference.ReferenceVariationalInference`, which
  keeps a frozen copy of the unflushed normaliser) and predict the same
  label sets.  The oracle's κ must really hold subnormals on this
  scenario, so the comparison cannot pass vacuously.
"""

import numpy as np
import pytest

from repro.core.config import CPAConfig
from repro.core.consensus import estimate_consensus
from repro.core.inference import VariationalInference
from repro.core.prediction import predict_items
from repro.core.reference import ReferenceVariationalInference
from repro.core.state import initialize_state
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.simulation.generator import generate_dataset
from repro.simulation.scenarios import large_scale_config

PARITY = dict(atol=1e-8, rtol=1e-9)
SWEEPS = 12


@pytest.fixture(scope="module")
def dataset():
    """2,000 answers, 100 per worker: peaked enough that the losing
    communities of κ sink into the float64 subnormal band."""
    config = large_scale_config(n_items=200, n_workers=20, answers_per_item=10)
    return generate_dataset(config, seed=0)


def _subnormals(a: np.ndarray) -> int:
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


def _labels(engine, config, answers):
    consensus = estimate_consensus(engine.state, config, answers)
    details = predict_items(engine.state, consensus, answers, config)
    return {item: detail.labels for item, detail in details.items()}


class TestNoSubnormalInvariant:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sync_phi_from_mu_flushes(self, dtype):
        config = CPAConfig(seed=0, dtype=np.dtype(dtype).name)
        state = initialize_state(config, n_items=2, n_workers=2, n_labels=3)
        t = state.n_clusters
        # row 0 puts cluster 0 720 nats above the rest: e^-720 is subnormal
        # in float64 (and e^-90 already is in float32)
        mu = np.zeros((2, t - 1), dtype=dtype)
        mu[0, 0] = 720.0 if dtype == np.float64 else 90.0
        state.mu = mu
        state.sync_phi_from_mu()
        assert state.phi.dtype == dtype
        assert _subnormals(state.phi) == 0
        np.testing.assert_array_equal(state.phi[0], np.eye(t, dtype=dtype)[0])
        np.testing.assert_allclose(state.phi[1], 1.0 / t, rtol=1e-6)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_batch_vi_fit(self, dataset, dtype):
        engine = VariationalInference(CPAConfig(seed=0, dtype=dtype), dataset.answers)
        for _ in range(SWEEPS):
            engine.sweep()
        state = engine.state
        assert state.kappa.dtype == state.phi.dtype == np.dtype(dtype)
        assert _subnormals(state.kappa) == 0
        assert _subnormals(state.phi) == 0
        state.validate()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_svi_stream(self, dataset, dtype):
        engine = StochasticInference(
            CPAConfig(seed=0, dtype=dtype),
            dataset.n_items,
            dataset.n_workers,
            dataset.n_labels,
            total_answers_hint=dataset.n_answers,
        )
        for batch in stream_from_matrix(dataset.answers, answers_per_batch=100, seed=0):
            engine.process_batch(batch)
        state = engine.state
        assert state.kappa.dtype == state.phi.dtype == np.dtype(dtype)
        assert _subnormals(state.kappa) == 0
        assert _subnormals(state.phi) == 0
        state.validate()


class TestUnflushedOracle:
    @pytest.mark.parametrize("backend", ["fused", "sharded"])
    def test_engines_track_unflushed_oracle(self, dataset, backend):
        config = CPAConfig(seed=0)
        oracle = ReferenceVariationalInference(config, dataset.answers)
        engine = VariationalInference(
            config.with_overrides(backend=backend, n_shards=2), dataset.answers
        )
        for _ in range(SWEEPS):
            engine.sweep()
            oracle.sweep()
            for name in ("kappa", "phi", "lam", "cell_mass", "zeta", "rho", "ups"):
                np.testing.assert_allclose(
                    getattr(engine.state, name),
                    getattr(oracle.state, name),
                    err_msg=name,
                    **PARITY,
                )
        assert engine.elbo() == pytest.approx(oracle.elbo(), abs=1e-7, rel=1e-9)
        # the oracle kept the band the engines flush
        assert _subnormals(oracle.state.kappa) > 0
        assert _subnormals(engine.state.kappa) == 0
        assert _labels(engine, config, dataset.answers) == _labels(
            oracle, config, dataset.answers
        )
