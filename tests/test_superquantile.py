import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailopt.core import Dataset, batch_losses, check_dual_weights
from tailopt.models import LinearLeastSquares
from tailopt.superquantile import (
    exact_oracle,
    exact_subgradient_weights,
    quantile,
    superquantile,
)

from helpers import (
    lp_max_value,
    quantile_by_cdf_scan,
    random_lsq_dataset,
    sample_gradient,
    sample_value,
    superquantile_by_integration,
    vertex_max_value,
)

P_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]


def random_losses(rng, n=None, ties=False):
    n = n if n is not None else int(rng.integers(2, 21))
    L = rng.standard_normal(n)
    if ties:
        L = np.round(L, 1)  # coarse grid forces duplicated values
    return L


class TestQuantile:
    def test_four_point_median(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_p_zero_is_min(self):
        rng = np.random.default_rng(0)
        L = rng.standard_normal(17)
        assert quantile(L, 0.0) == L.min()

    def test_p_one_is_max(self):
        assert quantile([3.0, 1.0, 2.0], 1.0) == 3.0

    def test_constant_losses(self):
        for p in P_GRID:
            assert quantile([4.0, 4.0, 4.0], p) == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    # np.partition sorts NaN last and min propagates it, so an unchecked
    # quantile is NaN at some levels and a finite loss at others.
    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_loss_rejected(self, bad, p):
        with pytest.raises(ValueError, match="losses contain non-finite entries"):
            quantile([bad, 1.0, 2.0], p)

    def test_matches_cdf_scan(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            L = random_losses(rng, ties=bool(rng.integers(2)))
            p = float(rng.choice(P_GRID))
            assert quantile(L, p) == quantile_by_cdf_scan(L, p)

    def test_matches_sorted_order_statistic(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            L = random_losses(rng)
            p = float(rng.uniform(1e-9, 1.0))
            k = int(np.ceil(L.size * p))
            assert quantile(L, p) == np.sort(L)[k - 1]


class TestSuperquantile:
    def test_p_zero_is_mean(self):
        rng = np.random.default_rng(3)
        L = rng.standard_normal(23)
        assert superquantile(L, 0.0) == pytest.approx(L.mean(), rel=1e-15)

    def test_four_point_example(self):
        assert superquantile([1.0, 2.0, 3.0, 4.0], 0.75) == pytest.approx(4.0)

    def test_two_point_example(self):
        assert superquantile([0.0, 10.0], 0.5) == pytest.approx(10.0)

    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            superquantile([1.0, 2.0], 1.0)

    @pytest.mark.parametrize("position", [0, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_loss_rejected(self, bad, position):
        L = np.array([1.0, 2.0, 3.0, 4.0])
        L[position] = bad
        with pytest.raises(ValueError, match="losses contain non-finite entries"):
            superquantile(L, 0.5)

    def test_matches_quantile_integration(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            L = random_losses(rng, ties=bool(rng.integers(2)))
            p = float(rng.choice(P_GRID))
            if p >= 1.0:
                continue
            want = superquantile_by_integration(L, p)
            assert superquantile(L, p) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            L = random_losses(rng)
            vals = [superquantile(L, p) for p in P_GRID]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sandwich(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            L = random_losses(rng)
            for p in P_GRID:
                v = superquantile(L, p)
                assert L.mean() - 1e-12 <= v <= L.max() + 1e-12
                assert v >= quantile(L, p) - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        losses=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=30
        ),
        p=st.sampled_from([0.0, 0.1, 0.5, 0.75, 0.9]),
        a=st.floats(min_value=0.01, max_value=50),
        b=st.floats(min_value=-50, max_value=50),
    )
    def test_affine_equivariance(self, losses, p, a, b):
        L = np.asarray(losses)
        lhs = superquantile(a * L + b, p)
        rhs = a * superquantile(L, p) + b
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestExactSubgradientWeights:
    def test_four_point_example(self):
        out = exact_subgradient_weights([1.0, 2.0, 3.0, 4.0], 0.5)
        assert np.allclose(out.weights, [0.0, 0.0, 0.5, 0.5])
        assert out.value == pytest.approx(3.5)
        assert out.quantile == 2.0
        assert out.tie_set_size == 1

    def test_all_equal_gives_uniform(self):
        for p in [0.0, 0.3, 0.9]:
            out = exact_subgradient_weights([7.0] * 5, p)
            assert np.allclose(out.weights, 0.2)
            assert out.tie_set_size == 5

    # In the four-point example at p = 0.5, position 0 has weight 0 and
    # position 3 the cap; 0 * -inf in the dot must raise with no warning.
    @pytest.mark.parametrize("position", [0, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_loss_rejected(self, bad, position):
        L = np.array([1.0, 2.0, 3.0, 4.0])
        L[position] = bad
        with pytest.raises(ValueError, match="losses contain non-finite entries"):
            exact_subgradient_weights(L, 0.5)

    @pytest.mark.parametrize("losses, p", [([np.nan, 1.0, 2.0], 0.0), ([np.nan] * 3 + [1.0], 0.5)])
    def test_nan_quantile_rejected(self, losses, p):
        with pytest.raises(ValueError, match="losses contain non-finite entries"):
            exact_subgradient_weights(losses, p)

    @pytest.mark.parametrize("p", [-0.1, 1.0])
    def test_bad_p_rejected(self, p):
        with pytest.raises(ValueError, match="tail level must lie in"):
            exact_subgradient_weights([1.0, 2.0], p)

    def test_p_zero_gives_uniform(self):
        out = exact_subgradient_weights([1.0, 5.0, 2.0], 0.0)
        assert np.allclose(out.weights, 1.0 / 3)
        assert out.value == pytest.approx(8.0 / 3)
        # Every weight is the cap 1/n exactly, and the minimum is the quantile.
        L = np.array([2.0, 0.5, 7.0, 0.5, 3.0])
        out = exact_subgradient_weights(L, 0.0)
        assert np.array_equal(out.weights, np.full(5, 1.0 / 5)) and out.support is None
        assert (out.value, out.quantile, out.tie_set_size) == (float(np.full(5, 0.2) @ L), 0.5, 2)

    def test_weights_feasible_and_attain_superquantile(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            L = random_losses(rng, ties=bool(rng.integers(2)))
            p = float(rng.choice(P_GRID))
            out = exact_subgradient_weights(L, p)
            cap = 1.0 / (L.size * (1.0 - p)) if p > 0 else 1.0 / L.size
            check_dual_weights(out.weights, cap if p > 0 else 1.0 / L.size)
            want = superquantile(L, p)
            assert out.value == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_attains_vertex_enumeration_optimum(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            L = random_losses(rng, n=n, ties=bool(rng.integers(2)))
            p = float(rng.choice([0.1, 0.5, 0.9, 0.99]))
            cap = 1.0 / (n * (1.0 - p))
            out = exact_subgradient_weights(L, p)
            assert out.value == pytest.approx(vertex_max_value(L, cap), abs=1e-9)

    def test_attains_lp_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(5, 51))
            L = random_losses(rng, n=n, ties=bool(rng.integers(2)))
            p = float(rng.choice([0.1, 0.5, 0.9]))
            cap = 1.0 / (n * (1.0 - p))
            out = exact_subgradient_weights(L, p)
            assert out.value == pytest.approx(lp_max_value(L, cap), abs=1e-9)


class TestExactOracle:
    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n, ties", [(1, False), (8, True), (300, False), (300, True)])
    def test_superquantile_is_the_oracle_value_bit_for_bit(self, n, ties, p):
        rng = np.random.default_rng(n)
        loss = LinearLeastSquares()
        if ties:
            # Small integer features, targets and weights: the residuals repeat.
            ds = Dataset(rng.integers(-2, 3, (n, 3)), rng.integers(-3, 4, n))
            w = np.array([1.0, -1.0, 2.0])
        else:
            ds = random_lsq_dataset(n, n=n, d=3)
            w = rng.standard_normal(3)
        L = batch_losses(loss, ds, w)
        assert (np.unique(L).size < n) == ties
        assert superquantile(L, p) == exact_oracle(loss, ds, w, p)[0]

    def test_single_sample_any_level(self):
        ds = random_lsq_dataset(10, n=1, d=3)
        loss = LinearLeastSquares()
        w = np.array([0.3, -0.2, 0.1])
        for p in [0.0, 0.5, 0.9]:
            value, grad = exact_oracle(loss, ds, w, p)
            assert value == pytest.approx(sample_value(loss, w, ds.features[0], ds.targets[0]))
            assert np.allclose(grad, sample_gradient(loss, w, ds.features[0], ds.targets[0]))

    def test_p_zero_matches_mean_gradient(self):
        ds = random_lsq_dataset(11, n=12, d=4)
        loss = LinearLeastSquares()
        w = np.random.default_rng(12).standard_normal(4)
        value, grad = exact_oracle(loss, ds, w, 0.0)
        L = np.array([sample_value(loss, w, ds.features[i], ds.targets[i]) for i in range(12)])
        G = np.mean(
            [sample_gradient(loss, w, ds.features[i], ds.targets[i]) for i in range(12)], axis=0
        )
        assert value == pytest.approx(L.mean())
        assert np.allclose(grad, G, rtol=1e-12)

    def test_small_instance_matches_brute_force(self):
        ds = random_lsq_dataset(13, n=4, d=2)
        loss = LinearLeastSquares()
        w = np.array([0.5, -1.0])
        p = 0.5
        value, grad = exact_oracle(loss, ds, w, p)
        L = np.array([sample_value(loss, w, ds.features[i], ds.targets[i]) for i in range(4)])
        assert value == pytest.approx(vertex_max_value(L, cap=0.5), abs=1e-12)
        out = exact_subgradient_weights(L, p)
        J = np.array([sample_gradient(loss, w, ds.features[i], ds.targets[i]) for i in range(4)])
        assert np.allclose(grad, J.T @ out.weights, atol=1e-12)

    def test_subgradient_inequality(self):
        ds = random_lsq_dataset(14, n=30, d=4)
        loss = LinearLeastSquares()
        rng = np.random.default_rng(15)
        for _ in range(100):
            p = float(rng.choice([0.0, 0.5, 0.8, 0.95]))
            w = rng.standard_normal(4)
            w_other = rng.standard_normal(4)
            f_w, g = exact_oracle(loss, ds, w, p)
            f_other, _ = exact_oracle(loss, ds, w_other, p)
            assert f_other >= f_w + g @ (w_other - w) - 1e-9
