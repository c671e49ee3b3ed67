"""Unit and property tests for :mod:`repro.utils.math` and the digamma
identities of :mod:`repro.core.expectations`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.expectations import (
    digamma_expectation_dirichlet,
    stick_breaking_expectations,
)
from repro.errors import ValidationError
from repro.utils.math import (
    clip_probability,
    entropy_categorical,
    log_normalize_rows,
    logsumexp,
    normalize_rows,
    safe_log,
    stick_breaking_weights,
    total_variation,
)


class TestLogsumexp:
    def test_matches_naive_on_moderate_values(self):
        a = np.array([[0.5, -1.0, 2.0], [3.0, 3.0, 3.0]])
        expected = np.log(np.exp(a).sum(axis=1))
        np.testing.assert_allclose(logsumexp(a, axis=1), expected)

    def test_handles_large_values_without_overflow(self):
        a = np.array([1000.0, 1000.0])
        assert np.isfinite(logsumexp(a))
        np.testing.assert_allclose(logsumexp(a), 1000.0 + np.log(2.0))

    def test_all_negative_infinity_row(self):
        a = np.full(3, -np.inf)
        assert logsumexp(a) == -np.inf

    def test_keepdims(self):
        a = np.ones((2, 3))
        assert logsumexp(a, axis=1, keepdims=True).shape == (2, 1)

    @given(
        hnp.arrays(
            float,
            hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(-50, 50),
        )
    )
    def test_always_at_least_max(self, a):
        out = logsumexp(a, axis=-1)
        assert np.all(out >= a.max(axis=-1) - 1e-9)


class TestLogNormalizeRows:
    def test_rows_sum_to_one(self):
        out = log_normalize_rows(np.array([[0.0, 1.0, 2.0], [-5.0, -5.0, -5.0]]))
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_all_neg_inf_row_falls_back_to_uniform(self):
        out = log_normalize_rows(np.array([[-np.inf, -np.inf, -np.inf]]))
        np.testing.assert_allclose(out, 1.0 / 3.0)

    def test_shift_invariance(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(
            log_normalize_rows(scores), log_normalize_rows(scores + 100.0)
        )

    @given(
        hnp.arrays(
            float,
            (3, 4),
            elements=st.floats(-2000, 30),
        )
    )
    def test_output_is_distribution(self, scores):
        out = log_normalize_rows(scores)
        assert np.all(out >= 0)
        assert not np.any((out != 0) & (out < np.finfo(out.dtype).tiny))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_subnormals_flush_to_exact_zero(self):
        """720 nats under the normaliser is subnormal (2.03e-313) in
        float64; the normaliser returns exact zeros there instead."""
        out = log_normalize_rows(np.array([[0.0, -720.0, -800.0]]))
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0]])

    def test_smallest_normals_are_kept(self):
        out = log_normalize_rows(np.array([[0.0, -700.0]]))
        assert out[0, 1] == np.exp(-700.0) > np.finfo(np.float64).tiny

    def test_float32_flushes_against_its_own_tiny(self):
        """float32's subnormal band starts ~87 nats under the normaliser."""
        out = log_normalize_rows(np.array([[0.0, -90.0, -80.0]], dtype=np.float32))
        assert out.dtype == np.float32
        assert out[0, 1] == 0.0  # exp(-90) ~ 8e-40: a float32 subnormal
        assert out[0, 2] >= np.finfo(np.float32).tiny  # exp(-80) ~ 2e-35


class TestNormalizeRows:
    def test_basic(self):
        out = normalize_rows(np.array([[2.0, 2.0], [1.0, 3.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]])

    def test_zero_row_uniform(self):
        out = normalize_rows(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, 1.0 / 3.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            normalize_rows(np.array([[-1.0, 2.0]]))


class TestDirichletExpectation:
    def test_symmetric_is_constant(self):
        out = digamma_expectation_dirichlet(np.full(4, 2.0))
        assert np.allclose(out, out[0])

    def test_is_log_of_something_below_mean(self):
        # E[ln p] < ln E[p] (Jensen), so exp(E[ln p]) < mean.
        conc = np.array([3.0, 1.0, 1.0])
        out = digamma_expectation_dirichlet(conc)
        mean = conc / conc.sum()
        assert np.all(np.exp(out) < mean)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            digamma_expectation_dirichlet(np.array([1.0, 0.0]))

    def test_batched_shapes(self):
        out = digamma_expectation_dirichlet(np.ones((2, 3, 4)))
        assert out.shape == (2, 3, 4)


class TestStickBreaking:
    def test_weights_sum_to_one(self):
        weights = stick_breaking_weights(np.array([0.5, 0.5, 0.5]))
        np.testing.assert_allclose(weights.sum(), 1.0)
        np.testing.assert_allclose(weights, [0.5, 0.25, 0.125, 0.125])

    def test_degenerate_first_stick(self):
        weights = stick_breaking_weights(np.array([1.0, 0.3]))
        np.testing.assert_allclose(weights, [1.0, 0.0, 0.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            stick_breaking_weights(np.array([1.5]))

    @given(
        hnp.arrays(float, 5, elements=st.floats(0.0, 1.0))
    )
    def test_weights_always_distribution(self, sticks):
        weights = stick_breaking_weights(sticks)
        assert weights.shape == (6,)
        assert np.all(weights >= -1e-12)
        np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-9)

    def test_expectations_decrease_for_uninformative_posteriors(self):
        # With Beta(1, alpha) posteriors, earlier sticks get more mass.
        alpha1 = np.ones(4)
        alpha2 = np.full(4, 3.0)
        e_log = stick_breaking_expectations(alpha1, alpha2)
        assert np.all(np.diff(e_log[:-1]) < 0)

    def test_expectations_shapes(self):
        out = stick_breaking_expectations(np.ones(3), np.ones(3))
        assert out.shape == (4,)

    def test_expectation_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            stick_breaking_expectations(np.ones(3), np.ones(2))

    def test_expectations_are_log_subnormalised(self):
        # exp(E[ln w]) must sum to <= 1 (Jensen).
        e_log = stick_breaking_expectations(np.array([2.0, 1.0]), np.array([1.0, 4.0]))
        assert np.exp(e_log).sum() <= 1.0 + 1e-9


class TestSmallHelpers:
    def test_clip_probability_bounds(self):
        out = clip_probability(np.array([-1.0, 0.5, 2.0]))
        assert out[0] > 0 and out[2] < 1 and out[1] == 0.5

    def test_safe_log_no_warning(self):
        out = safe_log(np.array([0.0, 1.0]))
        assert np.isfinite(out).all()

    def test_entropy_uniform_is_log_k(self):
        np.testing.assert_allclose(
            entropy_categorical(np.full(4, 0.25)), np.log(4)
        )

    def test_entropy_onehot_is_zero(self):
        assert entropy_categorical(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_total_variation_identical_zero(self):
        p = np.array([0.2, 0.8])
        assert total_variation(p, p) == 0.0

    def test_total_variation_disjoint_one(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    @given(
        hnp.arrays(float, 4, elements=st.floats(0, 1)),
        hnp.arrays(float, 4, elements=st.floats(0, 1)),
    )
    @settings(max_examples=50)
    def test_total_variation_symmetric(self, p, q):
        assert total_variation(p, q) == pytest.approx(total_variation(q, p))
