import warnings

import numpy as np
import pytest

from tailopt.core import (
    Dataset,
    EvaluationError,
    Penalty,
    RiskParams,
    batch_losses,
    check_dual_weights,
    jacobian_transpose_apply,
)
from tailopt.models import LinearLeastSquares, LinearLogistic
from tailopt.smoothing import smoothed_oracle
from tailopt.superquantile import exact_oracle

from helpers import CountingLoss, random_lsq_dataset, sample_gradient


class TestDataset:
    # The second input's finite entries overflow the finiteness check's sum,
    # so the check falls back to its scan.
    @pytest.mark.parametrize(
        "features, targets",
        [
            (np.ones((3, 2)), np.arange(3.0)),
            ([[1e308, 1e308], [1e308, 1e308], [1.0, 1.0]], [1e308, 1e308, 0.0]),
        ],
    )
    def test_shapes_and_properties(self, features, targets):
        ds = Dataset(features, targets)
        assert (ds.n, ds.d) == (3, 2)

    @pytest.mark.parametrize(
        "features, targets, message",
        [
            (np.ones(3), np.zeros(3), "features must be 2-D"),
            (np.ones((3, 2, 1)), np.zeros(3), "features must be 2-D"),
            (np.ones((3, 2)), np.zeros((3, 1)), "targets must be 1-D"),
        ],
    )
    def test_wrong_dimensions_rejected(self, features, targets, message):
        with pytest.raises(ValueError, match=message):
            Dataset(features, targets)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            Dataset(np.ones((3, 2)), np.arange(4.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_feature_named(self, bad):
        X = np.ones((5, 2))
        X[3, 1] = bad
        with pytest.raises(ValueError, match="sample 3"):
            Dataset(X, np.zeros(5))

    def test_nonfinite_target_named(self):
        y = np.zeros(4)
        y[2] = np.nan
        with pytest.raises(ValueError, match="sample 2"):
            Dataset(np.ones((4, 2)), y)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((0, 2)), np.zeros(0))

    def test_arrays_read_only(self):
        ds = Dataset(np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.targets[0] = 5.0

    def test_construction_copies_input(self):
        X = np.ones((2, 2))
        y = np.zeros(2)
        ds = Dataset(X, y)
        X[0, 0] = 99.0
        assert ds.features[0, 0] == 1.0

    def test_column_major_copy_is_read_only_and_equal(self):
        ds = random_lsq_dataset(15, n=30, d=4)
        X = ds._column_major
        assert X.flags.f_contiguous and not X.flags.writeable
        assert np.array_equal(X, ds.features)
        assert ds.features.flags.c_contiguous

    def test_column_major_copy_is_built_once_on_the_first_oracle_call(self):
        ds = random_lsq_dataset(16, n=30, d=4)
        assert "_column_major" not in vars(ds)
        exact_oracle(LinearLeastSquares(), ds, np.ones(4), 0.5)
        X = vars(ds)["_column_major"]
        exact_oracle(LinearLeastSquares(), ds, np.zeros(4), 0.5)
        batch_losses(LinearLeastSquares(), ds, np.zeros(4))
        jacobian_transpose_apply(LinearLeastSquares(), ds, np.zeros(4), np.full(30, 1 / 30))
        assert vars(ds)["_column_major"] is X

    def test_inverse_gram_is_read_only_and_built_once(self):
        ds = random_lsq_dataset(17, n=30, d=4)
        assert "_inverse_gram" not in vars(ds)
        M = ds._inverse_gram
        assert not M.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 1.0
        with pytest.raises(AttributeError):
            ds._inverse_gram = np.eye(4)
        assert ds._inverse_gram is M
        X = ds.features
        np.testing.assert_allclose(M @ (X.T @ X / ds.n), np.eye(4), atol=1e-10)


class TestRiskParams:
    def test_cap_formula(self):
        rp = RiskParams(p=0.9)
        assert rp.cap(10) == pytest.approx(1.0)
        assert RiskParams(p=0.0).cap(4) == 0.25

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_bad_p_rejected(self, p):
        with pytest.raises(ValueError):
            RiskParams(p=p)

    def test_bad_mu_rejected(self):
        with pytest.raises(ValueError):
            RiskParams(p=0.5, mu=0.0)

    def test_penalty_coercion_from_string(self):
        assert RiskParams(p=0.5, penalty="entropic").penalty is Penalty.ENTROPIC


class TestCheckDualWeights:
    def test_accepts_uniform(self):
        check_dual_weights(np.full(4, 0.25), cap=0.5)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            check_dual_weights(np.full(4, 0.3), cap=0.5)

    def test_rejects_cap_violation(self):
        with pytest.raises(ValueError, match="cap"):
            check_dual_weights(np.array([0.7, 0.3, 0.0, 0.0]), cap=0.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="below"):
            check_dual_weights(np.array([1.2, -0.2]), cap=2.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="sum"):
            check_dual_weights(np.array([0.5, np.nan]), cap=1.0)


class TestBatchLosses:
    def test_zero_parameters_give_half_y_squared(self):
        ds = random_lsq_dataset(0, n=7, d=3)
        values = batch_losses(LinearLeastSquares(), ds, np.zeros(3))
        assert np.allclose(values, 0.5 * ds.targets**2)

    def test_single_sample(self):
        ds = Dataset([[2.0]], [1.0])
        values = batch_losses(LinearLeastSquares(), ds, np.array([0.0]))
        assert values.shape == (1,)
        assert values[0] == pytest.approx(0.5)

    def test_exact_fit_is_zero(self):
        ds = Dataset(np.eye(3), np.array([1.0, 0.0, 0.0]))
        values = batch_losses(LinearLeastSquares(), ds, np.array([1.0, 0.0, 0.0]))
        assert values[0] == 0.0

    def test_bitwise_deterministic(self):
        ds = random_lsq_dataset(1, n=50, d=4)
        w = np.random.default_rng(2).standard_normal(4)
        a = batch_losses(LinearLeastSquares(), ds, w)
        b = batch_losses(LinearLeastSquares(), ds, w)
        assert np.array_equal(a, b)

    def test_wrong_parameter_length(self):
        ds = random_lsq_dataset(0, n=5, d=3)
        with pytest.raises(ValueError):
            batch_losses(LinearLeastSquares(), ds, np.zeros(4))

    def test_nonfinite_loss_names_sample(self):
        class Exploding(LinearLeastSquares):
            def value(self, z, y):
                return np.where(y > 2.5, np.inf, 0.0)

        ds = Dataset(np.ones((5, 1)), np.arange(5.0))
        with pytest.raises(EvaluationError, match="sample 3"):
            batch_losses(Exploding(), ds, np.zeros(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_loss_names_first_sample_among_huge_ones(self, bad):
        # The finite losses alone overflow the sum that screens for a bad one.
        class Exploding(LinearLeastSquares):
            def value(self, z, y):
                return np.where(y > 2.5, bad, 1e308)

        ds = Dataset(np.ones((5, 1)), np.arange(5.0))
        with pytest.raises(EvaluationError, match="sample 3"):
            batch_losses(Exploding(), ds, np.zeros(1))

    def test_finite_losses_whose_sum_overflows_pass(self):
        # Two losses of 1.125e308: each is finite, their sum is not.  pytest
        # turns a RuntimeWarning into an error, so numpy must not warn either.
        ds = Dataset(np.ones((2, 1)), np.zeros(2))
        values = batch_losses(LinearLeastSquares(), ds, [1.5e154])
        assert np.isfinite(values).all() and values.min() > 1e308


class TestOverflowingLosses:
    """Margins or losses that overflow raise EvaluationError with no numpy
    warning first, so a caller that turns every warning into an error still
    gets the EvaluationError."""

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda ds, w: batch_losses(LinearLeastSquares(), ds, w),
            lambda ds, w: exact_oracle(LinearLeastSquares(), ds, w, 0.9),
            lambda ds, w: smoothed_oracle(LinearLeastSquares(), ds, w, RiskParams(p=0.9, mu=1.0)),
        ],
        ids=["batch_losses", "exact_oracle", "smoothed_oracle"],
    )
    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_raise_without_warning(self, evaluate, scale):
        # 1e200 overflows the squared loss, 1e308 already the margins.
        ds = random_lsq_dataset(3, n=20, d=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="non-finite loss value"):
                evaluate(ds, np.full(4, scale))


class TestJacobianTransposeApply:
    @pytest.mark.parametrize("q", [np.full(5, 0.2), np.full((6, 1), 1.0 / 6)])
    def test_wrong_weight_shape_rejected(self, q):
        ds = random_lsq_dataset(3, n=6, d=4)
        with pytest.raises(ValueError, match=r"expected \(6,\)"):
            jacobian_transpose_apply(LinearLeastSquares(), ds, np.zeros(4), q)

    def test_unit_weight_selects_one_gradient(self):
        ds = random_lsq_dataset(3, n=6, d=4)
        loss = LinearLeastSquares()
        w = np.random.default_rng(4).standard_normal(4)
        q = np.zeros(6)
        q[2] = 1.0
        got = jacobian_transpose_apply(loss, ds, w, q)
        want = sample_gradient(loss, w, ds.features[2], ds.targets[2])
        assert np.allclose(got, want, rtol=1e-12)

    def test_uniform_weights_give_mean_gradient(self):
        ds = random_lsq_dataset(5, n=8, d=3)
        loss = LinearLeastSquares()
        w = np.random.default_rng(6).standard_normal(3)
        got = jacobian_transpose_apply(loss, ds, w, np.full(8, 1.0 / 8))
        want = np.mean(
            [sample_gradient(loss, w, ds.features[i], ds.targets[i]) for i in range(8)], axis=0
        )
        assert np.allclose(got, want, rtol=1e-12)

    def test_matches_dense_jacobian_product(self):
        ds = random_lsq_dataset(7, n=9, d=4)
        loss = LinearLeastSquares()
        rng = np.random.default_rng(8)
        w = rng.standard_normal(4)
        q = rng.random(9)
        J = np.array([sample_gradient(loss, w, ds.features[i], ds.targets[i]) for i in range(9)])
        got = jacobian_transpose_apply(loss, ds, w, q)
        assert np.allclose(got, J.T @ q, atol=1e-12, rtol=1e-12)

    def test_linear_in_weights(self):
        ds = random_lsq_dataset(9, n=20, d=5)
        loss = LinearLeastSquares()
        rng = np.random.default_rng(10)
        w = rng.standard_normal(5)
        cap = 1.0 / (20 * 0.5)
        for _ in range(20):
            q1 = rng.random(20)
            q1 = np.minimum(q1 / q1.sum(), cap)
            q1 /= q1.sum()
            q2 = rng.random(20)
            q2 = np.minimum(q2 / q2.sum(), cap)
            q2 /= q2.sum()
            t = rng.random()
            mixed = jacobian_transpose_apply(loss, ds, w, t * q1 + (1 - t) * q2)
            parts = t * jacobian_transpose_apply(loss, ds, w, q1) + (
                1 - t
            ) * jacobian_transpose_apply(loss, ds, w, q2)
            scale = max(1.0, float(np.linalg.norm(parts)))
            assert np.linalg.norm(mixed - parts) / scale < 1e-10

    def test_zero_weights_skip_gradient_calls(self):
        ds = random_lsq_dataset(11, n=10, d=2)
        loss = CountingLoss()
        q = np.zeros(10)
        q[[1, 4]] = 0.5
        jacobian_transpose_apply(loss, ds, np.zeros(2), q)
        assert (loss.slope_calls, loss.slope_samples) == (1, 2)

    def test_full_support_passes_stored_arrays_without_copy(self):
        ds = random_lsq_dataset(13, n=300, d=7)
        seen = []

        class Spy(LinearLeastSquares):
            def slope(self, z, y):
                seen.append(y)
                return super().slope(z, y)

        rng = np.random.default_rng(14)
        w = rng.standard_normal(7)
        q = rng.random(300) + 0.1
        got = jacobian_transpose_apply(Spy(), ds, w, q)
        assert len(seen) == 1 and seen[0] is ds.targets
        # Same arithmetic as on a column-major copy of the features: bit-identical.
        X = np.asfortranarray(ds.features)
        want = X.T @ (q * LinearLeastSquares().slope(X @ w, ds.targets))
        assert np.array_equal(got, want)

    def test_all_zero_weights(self):
        # The empty support goes through the general gather: each loss sees
        # empty margins, and the product is +0.0 in every coordinate.
        rng = np.random.default_rng(12)
        ds = Dataset(rng.standard_normal((4, 3)), np.where(rng.random(4) < 0.5, -1.0, 1.0))
        for loss in (CountingLoss(), LinearLeastSquares(), LinearLogistic()):
            got = jacobian_transpose_apply(loss, ds, rng.standard_normal(3), np.zeros(4))
            assert got.dtype == np.float64 and got.shape == (3,)
            assert np.array_equal(got, np.zeros(3)) and not np.signbit(got).any()

    def test_nonfinite_gradient_names_sample(self):
        class BadSlope(LinearLeastSquares):
            def slope(self, z, y):
                return np.where(y == 2.0, np.nan, 0.0)

        ds = Dataset(np.ones((4, 2)), np.arange(4.0))
        with pytest.raises(EvaluationError, match="sample 2"):
            jacobian_transpose_apply(BadSlope(), ds, np.zeros(2), np.full(4, 0.25))
        # On a sparse support the sample is named by its index in the data.
        q = np.array([0.0, 0.0, 0.5, 0.5])
        with pytest.raises(EvaluationError, match="sample 2"):
            jacobian_transpose_apply(BadSlope(), ds, np.zeros(2), q)

    def test_overflowing_accumulation_raises_without_warning(self):
        # Each slope is finite but X.T @ (q * slope) overflows; pytest turns a
        # RuntimeWarning into an error, so numpy must not warn first.
        ds = Dataset(np.full((2, 1), 1e200), [1e200, -1e200])
        with pytest.raises(EvaluationError, match="non-finite gradient accumulation"):
            jacobian_transpose_apply(LinearLeastSquares(), ds, [1.0], [0.5, 0.5])
