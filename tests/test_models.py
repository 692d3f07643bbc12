import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from tailopt.core import Dataset, RiskParams, batch_losses, jacobian_transpose_apply
from tailopt.models import (
    LinearLeastSquares,
    LinearLogistic,
    SingularSystemError,
    ols_closed_form,
)
from tailopt.smoothing import smoothed_oracle
from tailopt.solvers import SolverConfig, run_solver
from tailopt.superquantile import exact_oracle

from helpers import (
    central_difference_gradient,
    random_lsq_dataset,
    sample_gradient,
    sample_value,
)


class TestLinearLeastSquares:
    def test_zero_parameters(self):
        loss = LinearLeastSquares()
        x = np.array([1.0, -2.0, 3.0])
        assert sample_value(loss, np.zeros(3), x, 2.0) == pytest.approx(2.0)
        assert np.allclose(sample_gradient(loss, np.zeros(3), x, 2.0), -2.0 * x)

    def test_exact_fit(self):
        loss = LinearLeastSquares()
        w = np.array([1.0, 0.0])
        x = np.array([1.0, 5.0])
        assert sample_value(loss, w, x, 1.0) == 0.0
        assert np.allclose(sample_gradient(loss, w, x, 1.0), 0.0)

    def test_gradient_matches_central_differences(self):
        loss = LinearLeastSquares()
        rng = np.random.default_rng(0)
        for _ in range(20):
            w, x = rng.standard_normal((2, 4))
            y = float(rng.standard_normal())
            fd = central_difference_gradient(lambda v: sample_value(loss, v, x, y), w)
            got = sample_gradient(loss, w, x, y)
            assert np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1.0) < 1e-7

    def test_batch_hooks_match_scalar_paths(self):
        loss = LinearLeastSquares()
        ds = random_lsq_dataset(1, n=9, d=3)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(3)
        q = rng.random(9)
        vals = batch_losses(loss, ds, w)
        scalar_vals = [sample_value(loss, w, ds.features[i], ds.targets[i]) for i in range(9)]
        assert np.allclose(vals, scalar_vals, rtol=1e-14)
        acc = jacobian_transpose_apply(loss, ds, w, q)
        scalar_acc = sum(
            q[i] * sample_gradient(loss, w, ds.features[i], ds.targets[i]) for i in range(9)
        )
        assert np.allclose(acc, scalar_acc, rtol=1e-12)


    def test_value_is_bit_equal_to_half_r_times_r(self):
        loss = LinearLeastSquares()
        rng = np.random.default_rng(3)
        z = rng.standard_normal(2000) * 10.0 ** rng.integers(-200, 150, 2000)
        y = rng.standard_normal(2000) * 10.0 ** rng.integers(-200, 150, 2000)
        # Residuals near 1.5e154: (0.5 * r) * r is finite where r * r overflows.
        z = np.concatenate([z, [1.5e154, -1.5e154, 1.8e154, 1.34e154]])
        y = np.concatenate([y, [0.0, 0.0, 0.0, -1e140]])
        r = y - z
        expected = 0.5 * r * r
        got = loss.value(z, y)
        assert np.array_equal(got, expected)
        assert np.isfinite(got).all()


class TestLinearLogistic:
    def test_zero_margin(self):
        loss = LinearLogistic()
        x = np.array([2.0, -1.0])
        for y in (-1.0, 1.0):
            assert sample_value(loss, np.zeros(2), x, y) == pytest.approx(np.log(2.0))
            assert np.allclose(sample_gradient(loss, np.zeros(2), x, y), -(y / 2.0) * x)

    def test_large_margin_is_stable(self):
        loss = LinearLogistic()
        w = np.array([40.0])
        x = np.array([1.0])
        v = sample_value(loss, w, x, 1.0)
        assert 0.0 < v < 1e-17
        assert v == pytest.approx(np.exp(-40.0), rel=1e-10)
        # The mirrored case must not overflow either.
        v_neg = sample_value(loss, w, x, -1.0)
        assert v_neg == pytest.approx(40.0, rel=1e-12)

    def test_slope_at_extreme_margins(self):
        loss = LinearLogistic()
        special = np.array([0.0, 1e-300, 36.7, 40.0, 700.0, 709.0, 800.0])
        margins = np.concatenate([special, -special, np.linspace(-750.0, 750.0, 301)])
        tiny = np.finfo(float).tiny
        for y in (-1.0, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = loss.slope(y * margins, np.full_like(margins, y))  # y * z == margin
            for t, g in zip(margins, got):
                with localcontext() as ctx:
                    ctx.prec = 80
                    ref = -Decimal(y) / (1 + Decimal(float(t)).exp())
                if abs(ref) >= Decimal(tiny):
                    ulp = Decimal(float(np.spacing(abs(float(ref)))))
                    assert abs(Decimal(float(g)) - ref) <= 4 * ulp, (y, t, g)
                else:  # the reference is past the normal range: the limit 0
                    assert abs(g) < tiny, (y, t, g)
            assert got[margins == -800.0][0] == -y
            assert got[margins == 800.0][0] == 0.0

    def test_label_validation(self):
        loss = LinearLogistic()
        with pytest.raises(ValueError):
            sample_value(loss, np.zeros(1), np.ones(1), 0.5)
        ds = Dataset(np.ones((2, 1)), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="sample 1"):
            batch_losses(loss, ds, np.zeros(1))

    def test_gradient_matches_central_differences(self):
        loss = LinearLogistic()
        rng = np.random.default_rng(3)
        for _ in range(20):
            w, x = rng.standard_normal((2, 3))
            y = float(rng.choice([-1.0, 1.0]))
            fd = central_difference_gradient(lambda v: sample_value(loss, v, x, y), w)
            got = sample_gradient(loss, w, x, y)
            assert np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1.0) < 1e-7

    def test_batch_hooks_match_scalar_paths(self):
        loss = LinearLogistic()
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 3))
        y = rng.choice([-1.0, 1.0], size=8)
        w = rng.standard_normal(3)
        q = rng.random(8)
        ds = Dataset(X, y)
        vals = batch_losses(loss, ds, w)
        assert np.allclose(vals, [sample_value(loss, w, X[i], y[i]) for i in range(8)])
        acc = jacobian_transpose_apply(loss, ds, w, q)
        assert np.allclose(acc, sum(q[i] * sample_gradient(loss, w, X[i], y[i]) for i in range(8)))


class TestOlsClosedForm:
    def test_identity_design(self):
        y = np.array([3.0, -1.0, 2.0])
        ds = Dataset(np.eye(3), y)
        assert np.allclose(ols_closed_form(ds), y)

    def test_consistent_overdetermined_system(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 4))
        w_true = rng.standard_normal(4)
        ds = Dataset(X, X @ w_true)
        w = ols_closed_form(ds)
        assert np.allclose(w, w_true, atol=1e-10)
        assert np.linalg.norm(X @ w - ds.targets) < 1e-9

    def test_normal_equation_residual(self):
        ds = random_lsq_dataset(6, n=100, d=5)
        w = ols_closed_form(ds)
        X, y = ds.features, ds.targets
        assert np.linalg.norm(X.T @ (X @ w - y)) <= 1e-8 * np.linalg.norm(X.T @ y)

    def test_singular_system_names_collinear_features(self):
        X = np.ones((5, 2))  # duplicated column
        ds = Dataset(X, np.arange(5.0))
        with pytest.raises(SingularSystemError, match="features are collinear"):
            ols_closed_form(ds)

    def test_matches_lbfgs_on_mean_objective(self):
        ds = random_lsq_dataset(8, n=100, d=5)
        w_ols = ols_closed_form(ds)
        loss = LinearLeastSquares()
        params = RiskParams(p=0.0, mu=1.0)

        def oracle(w):
            return smoothed_oracle(loss, ds, w, params)

        result = run_solver(
            oracle,
            SolverConfig(
                algorithm="lbfgs", max_iters=500, grad_tol=1e-12, f_tol=0.0,
                initial_point=np.zeros(5),
            ),
        )
        assert np.max(np.abs(result.solution - w_ols)) <= 1e-5


class TestConvexity:
    @pytest.mark.parametrize("loss_cls", [LinearLeastSquares, LinearLogistic])
    def test_per_sample_jensen(self, loss_cls):
        loss = loss_cls()
        rng = np.random.default_rng(9)
        for _ in range(100):
            w1, w2, x = rng.standard_normal((3, 4))
            y = float(rng.choice([-1.0, 1.0]))
            t = float(rng.random())
            mid = sample_value(loss, t * w1 + (1 - t) * w2, x, y)
            chord = t * sample_value(loss, w1, x, y) + (1 - t) * sample_value(loss, w2, x, y)
            assert mid <= chord + 1e-10

    def test_tail_objective_midpoint_convexity(self):
        ds = random_lsq_dataset(10, n=25, d=3)
        loss = LinearLeastSquares()
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = float(rng.choice([0.3, 0.8, 0.95]))
            w1 = rng.standard_normal(3)
            w2 = rng.standard_normal(3)
            f_mid, _ = exact_oracle(loss, ds, 0.5 * (w1 + w2), p)
            f1, _ = exact_oracle(loss, ds, w1, p)
            f2, _ = exact_oracle(loss, ds, w2, p)
            assert f_mid <= 0.5 * (f1 + f2) + 1e-10
