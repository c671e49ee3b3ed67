"""Tests for the CPA configuration, state, expectations, and batch VI."""

import numpy as np
import pytest

from repro.core.config import CPAConfig
from repro.core.expectations import (
    answer_log_likelihood,
    expected_log_phi_beta,
    expected_log_pi,
    expected_log_psi,
    expected_log_tau,
    map_estimate_dirichlet,
)
from repro.core.inference import VariationalInference
from repro.core.state import initialize_state
from repro.errors import ValidationError
from repro.simulation.perturbations import reveal_truth_fraction


class TestConfig:
    def test_defaults_valid(self):
        CPAConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", 0.0),
            ("gamma0", -1.0),
            ("max_iterations", 0),
            ("tolerance", 0.0),
            ("forgetting_rate", 0.5),
            ("forgetting_rate", 1.2),
            ("svi_iterations", 0),
            ("svi_batch_answers", 0),
            ("evidence_weight", -0.1),
            ("truncation_clusters", -1),
        ],
    )
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValidationError):
            CPAConfig(**{field: value})

    def test_resolve_truncations_auto(self):
        t, m = CPAConfig().resolve_truncations(100, 40)
        assert 2 <= t <= 40 and 2 <= m <= 40

    def test_resolve_truncations_explicit(self):
        config = CPAConfig(truncation_clusters=7, truncation_communities=5)
        assert config.resolve_truncations(100, 40) == (7, 5)

    def test_resolve_never_exceeds_population(self):
        t, m = CPAConfig(truncation_clusters=50).resolve_truncations(3, 2)
        assert t == 3 and m == 2

    def test_with_overrides(self):
        updated = CPAConfig().with_overrides(alpha=5.0)
        assert updated.alpha == 5.0

    def test_executor_spec_validation(self):
        """The declarative executor selection (DESIGN.md §6 remote lanes)."""
        from repro.errors import ConfigurationError

        CPAConfig(executor="thread", executor_degree=4)
        CPAConfig(executor="remote", workers=("127.0.0.1:9001",))
        with pytest.raises(ConfigurationError, match="executor"):
            CPAConfig(executor="spark")
        with pytest.raises(ValidationError):
            CPAConfig(executor_degree=-1)
        # remote without daemons, and daemons without remote: both loud
        with pytest.raises(ConfigurationError, match="worker"):
            CPAConfig(executor="remote")
        with pytest.raises(ConfigurationError, match="remote"):
            CPAConfig(workers=("127.0.0.1:9001",))

    def test_resolve_executor_builds_the_selected_kind(self):
        from repro.utils.parallel import SerialExecutor, ThreadExecutor

        assert isinstance(CPAConfig().resolve_executor(), SerialExecutor)
        with CPAConfig(
            executor="thread", executor_degree=2
        ).resolve_executor() as pool:
            assert isinstance(pool, ThreadExecutor)
            assert pool.degree == 2

    def test_engines_build_their_executor_from_the_config(self, tiny_dataset):
        """No explicit executor object -> the config's declarative
        selection is honoured (serial stays the default)."""
        from repro.core.svi import StochasticInference
        from repro.utils.parallel import SerialExecutor, ThreadExecutor

        default = VariationalInference(CPAConfig(seed=0), tiny_dataset.answers)
        assert isinstance(default.executor, SerialExecutor)
        threaded = VariationalInference(
            CPAConfig(seed=0, executor="thread", executor_degree=2),
            tiny_dataset.answers,
        )
        assert isinstance(threaded.executor, ThreadExecutor)
        assert threaded.executor.degree == 2
        svi = StochasticInference(
            CPAConfig(seed=0, executor="thread", executor_degree=2),
            tiny_dataset.n_items,
            tiny_dataset.n_workers,
            tiny_dataset.n_labels,
        )
        assert isinstance(svi.executor, ThreadExecutor)
        threaded.executor.close()
        svi.executor.close()

    def test_resolve_executor_remote_lanes(self):
        from repro.utils.parallel import RemoteExecutor

        config = CPAConfig(
            executor="remote", workers=("127.0.0.1:9001", "127.0.0.1:9002")
        )
        pool = config.resolve_executor()  # lazy: no connection yet
        assert isinstance(pool, RemoteExecutor)
        assert pool.degree == 2
        pool.close()

    def test_request_timeout_field_validated(self):
        assert CPAConfig().request_timeout == 30.0
        CPAConfig(request_timeout=0.0)  # 0 disables deadlines
        with pytest.raises(ValidationError, match="request_timeout"):
            CPAConfig(request_timeout=-1.0)

    def test_resolve_executor_arms_deadlines_on_remote_lanes_only(self):
        """The config's request_timeout must reach remote lanes but never
        the local kinds (make_executor refuses it there)."""
        from repro.utils.parallel import SerialExecutor

        config = CPAConfig(
            executor="remote",
            workers=("127.0.0.1:9001",),
            request_timeout=2.5,
        )
        pool = config.resolve_executor()
        assert pool._request_timeout == 2.5
        pool.close()
        local = CPAConfig(request_timeout=2.5).resolve_executor()
        assert isinstance(local, SerialExecutor)
        local.close()


class TestStateInit:
    def test_random_init_valid(self):
        state = initialize_state(CPAConfig(seed=0), 20, 10, 6)
        state.validate()
        assert state.kappa.shape == (10, state.n_communities)

    def test_informed_init_valid(self):
        rng = np.random.default_rng(0)
        state = initialize_state(
            CPAConfig(seed=0),
            20,
            10,
            6,
            item_signatures=rng.random((20, 6)),
            worker_signatures=rng.random((10, 6)),
        )
        state.validate()
        # near-hard assignments: max responsibility well above uniform
        assert state.phi.max(axis=1).min() > 0.5

    def test_copy_isolated(self):
        state = initialize_state(CPAConfig(seed=0), 10, 5, 4)
        clone = state.copy()
        clone.kappa[0, 0] = 0.123
        assert state.kappa[0, 0] != 0.123

    def test_mu_roundtrip(self):
        state = initialize_state(CPAConfig(seed=0), 10, 5, 4)
        phi_before = state.phi.copy()
        state.sync_mu_from_phi()
        state.sync_phi_from_mu()
        np.testing.assert_allclose(state.phi, phi_before, atol=1e-9)

    def test_validate_catches_corruption(self):
        state = initialize_state(CPAConfig(seed=0), 10, 5, 4)
        state.lam[0, 0, 0] = -1.0
        with pytest.raises(ValidationError):
            state.validate()


class TestExpectations:
    def test_expected_log_psi_normalised(self):
        lam = np.random.default_rng(0).random((3, 2, 5)) + 0.5
        e = expected_log_psi(lam)
        # exp(E[ln psi]) is sub-normalised (Jensen)
        assert np.all(np.exp(e).sum(axis=-1) <= 1 + 1e-9)

    def test_expected_log_phi_beta_pairs(self):
        zeta = np.full((2, 3, 2), 2.0)
        e_in, e_out = expected_log_phi_beta(zeta)
        np.testing.assert_allclose(e_in, e_out)  # symmetric Beta
        assert np.all(e_in < 0)

    def test_expected_sticks_shapes(self):
        rho = np.full((4, 2), 1.5)
        assert expected_log_pi(rho).shape == (5,)
        assert expected_log_tau(rho).shape == (5,)

    def test_answer_log_likelihood_matches_naive(self):
        rng = np.random.default_rng(1)
        x = (rng.random((7, 4)) < 0.4).astype(float)
        e_psi = np.log(rng.dirichlet(np.ones(4), size=(3, 2)))
        fast = answer_log_likelihood(x, e_psi)
        naive = np.einsum("nc,tmc->ntm", x, e_psi)
        np.testing.assert_allclose(fast, naive)

    def test_answer_log_likelihood_chunking(self):
        rng = np.random.default_rng(2)
        x = (rng.random((20, 3)) < 0.5).astype(float)
        e_psi = np.log(rng.dirichlet(np.ones(3), size=(2, 2)))
        np.testing.assert_allclose(
            answer_log_likelihood(x, e_psi, chunk_size=7),
            answer_log_likelihood(x, e_psi, chunk_size=1000),
        )

    def test_map_estimate_mode_when_defined(self):
        lam = np.array([[3.0, 2.0]])
        out = map_estimate_dirichlet(lam)
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]])

    def test_map_estimate_mean_fallback(self):
        lam = np.array([[0.5, 0.5]])
        out = map_estimate_dirichlet(lam)
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_map_estimate_rows_are_distributions(self):
        lam = np.random.default_rng(3).random((4, 6)) * 3 + 0.1
        out = map_estimate_dirichlet(lam)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0)
        assert np.all(out >= 0)


class TestVariationalInference:
    def test_elbo_monotone_increase(self, tiny_dataset):
        engine = VariationalInference(
            CPAConfig(seed=2, max_iterations=15), tiny_dataset.answers
        )
        values = [engine.elbo()]
        for _ in range(8):
            engine.sweep()
            values.append(engine.elbo())
        diffs = np.diff(values)
        assert np.all(diffs > -1e-6), f"ELBO decreased: {diffs}"
        assert values[-1] > values[0]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("backend", ["fused", "sharded"])
    def test_elbo_reuses_the_profile_counts_bitwise(
        self, tiny_dataset, monkeypatch, backend, dtype
    ):
        """While the engine holds the kernel, ϕ and κ of the last λ update,
        the ELBO's data term comes from that update's counts, bitwise equal
        to the statistics pass it replaces; a replaced state falls back to
        the pass.  Under a float32 kernel the update's counts are float32
        products, so the data term always comes from the float64 pass."""
        config = CPAConfig(
            seed=2, dtype=dtype, backend=backend, n_shards=2 if backend == "sharded" else 0
        )
        engine = VariationalInference(config, tiny_dataset.answers)
        kernel_type = type(engine.kernel)
        data_pass = kernel_type.data_elbo
        passes = []

        def counted(kernel, *args, **kwargs):
            passes.append(kernel)
            return data_pass(kernel, *args, **kwargs)

        monkeypatch.setattr(kernel_type, "data_elbo", counted)
        for sweeps in (0, 1, 3):  # after init, then after sweeps
            for _ in range(sweeps):
                engine.sweep()
            reused = engine.elbo()
            assert passes == ([] if dtype == "float64" else [engine.kernel])
            passes.clear()
            engine.state = engine.state.copy()  # same values, new arrays
            recomputed = engine.elbo()
            assert passes == [engine.kernel]
            passes.clear()
            assert reused == recomputed

    def test_run_converges_and_validates(self, tiny_dataset):
        engine = VariationalInference(CPAConfig(seed=2), tiny_dataset.answers)
        result = engine.run(track_elbo=True)
        assert result.n_iterations >= 1
        assert np.isfinite(result.final_elbo)
        result.state.validate()

    def test_callback_invoked(self, tiny_dataset):
        calls = []
        engine = VariationalInference(
            CPAConfig(seed=2, max_iterations=3), tiny_dataset.answers
        )
        engine.run(callback=lambda i, d, e: calls.append((i, d, e)), track_elbo=False)
        assert len(calls) >= 1
        assert calls[0][0] == 0

    def test_deterministic_given_seed(self, tiny_dataset):
        a = VariationalInference(CPAConfig(seed=3), tiny_dataset.answers).run().state
        b = VariationalInference(CPAConfig(seed=3), tiny_dataset.answers).run().state
        np.testing.assert_allclose(a.phi, b.phi)
        np.testing.assert_allclose(a.lam, b.lam)

    def test_supervision_updates_zeta(self, tiny_dataset):
        supervised = reveal_truth_fraction(tiny_dataset, 0.5, seed=0)
        engine = VariationalInference(
            CPAConfig(seed=2, max_iterations=10),
            supervised.answers,
            truth=supervised.truth,
        )
        result = engine.run(track_elbo=False)
        # zeta must have moved away from the symmetric prior somewhere
        assert float(np.abs(result.state.zeta - CPAConfig().eta0).max()) > 0.5

    def test_no_truth_keeps_zeta_at_prior(self, tiny_dataset):
        engine = VariationalInference(
            CPAConfig(seed=2, max_iterations=5), tiny_dataset.answers
        )
        engine.run(track_elbo=False)
        np.testing.assert_allclose(engine.state.zeta, CPAConfig().eta0)

    def test_cell_mass_accounts_all_answers(self, tiny_dataset):
        engine = VariationalInference(
            CPAConfig(seed=2, max_iterations=5), tiny_dataset.answers
        )
        engine.run(track_elbo=False)
        np.testing.assert_allclose(
            engine.state.cell_mass.sum(), tiny_dataset.n_answers, rtol=1e-6
        )

    def test_singleton_community_ablation(self, tiny_dataset):
        engine = VariationalInference(
            CPAConfig(seed=2, max_iterations=5),
            tiny_dataset.answers,
            fix_singleton_communities=True,
        )
        result = engine.run(track_elbo=False)
        assert result.state.n_communities == tiny_dataset.n_workers
        np.testing.assert_array_equal(
            result.state.kappa, np.eye(tiny_dataset.n_workers)
        )

    def test_singleton_cluster_ablation(self, tiny_dataset):
        engine = VariationalInference(
            CPAConfig(seed=2, max_iterations=5),
            tiny_dataset.answers,
            fix_singleton_clusters=True,
        )
        result = engine.run(track_elbo=False)
        assert result.state.n_clusters == tiny_dataset.n_items
        np.testing.assert_array_equal(result.state.phi, np.eye(tiny_dataset.n_items))
