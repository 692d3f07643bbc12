import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailopt.core import Dataset, EvaluationError, RiskParams, check_dual_weights
from tailopt.models import LinearLeastSquares
import tailopt.smoothing
from tailopt.smoothing import (
    smoothed_oracle,
    smoothed_weights_entropic,
    smoothed_weights_euclidean,
)
from tailopt.superquantile import exact_subgradient_weights, superquantile

from helpers import (
    central_difference_gradient,
    exact_euclidean_value,
    max_penalized_entropic,
    max_penalized_euclidean,
    penalized_objective,
    penalty_max_on_vertices,
    random_lsq_dataset,
    sample_gradient,
    sample_value,
    scan_weights_entropic,
    sorting_weights_entropic,
    sorting_weights_euclidean,
    theta_prime,
)

SUBROUTINES = {
    "euclidean": (smoothed_weights_euclidean, max_penalized_euclidean),
    "entropic": (smoothed_weights_entropic, max_penalized_entropic),
}


@st.composite
def loss_vectors(draw):
    """Loss vectors of length 1..60 with |L| <= 100: heavy ties, constants,
    mixed magnitudes (1e-8 to 1e2 in one vector) or plain floats."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["ties", "constant", "mixed", "plain"]))
    unit = st.floats(-1.0, 1.0)
    if kind == "constant":
        return np.full(n, draw(st.floats(-100.0, 100.0)))
    if kind == "ties":
        pool = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        return np.array(pool)[picks]
    mantissas = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    if kind == "mixed":
        exponents = np.array(draw(st.lists(st.integers(-8, 2), min_size=n, max_size=n)))
        return mantissas * 10.0**exponents
    return 100.0 * mantissas


def dual_value(out) -> float:
    """A reference's value as the dual function at its multiplier.

    The sorting references report q @ L - mu*d(q), which moves by lam times
    the drift of sum q (up to about 5e-12); subtracting lam * (sum q - 1)
    removes that.  The routines under test need no such term: their weights
    sum to 1 within a few ulp.
    """
    return out.value - out.lam * (float(out.weights.sum()) - 1.0)


LEVELS = st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-9])
SCALES = st.sampled_from([1e-3, 0.1, 1.0, 1e3])


def random_instance(rng, n_max=20):
    n = int(rng.integers(2, n_max + 1))
    L = rng.standard_cauchy(n) if rng.integers(2) else rng.standard_normal(n)
    p = float(rng.choice([0.1, 0.5, 0.9, 0.99]))
    mu = float(rng.choice([1e-3, 0.1, 1.0, 1000.0]))
    return L, p, mu


class TestEuclideanSubroutine:
    def test_two_point_worked_example(self):
        out = smoothed_weights_euclidean([0.0, 1.0], 0.5, 1.0)
        assert out.lam == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out.weights, [0.0, 1.0], atol=1e-12)
        assert out.value == pytest.approx(0.75, abs=1e-12)
        assert out.penalty_value == pytest.approx(0.25, abs=1e-12)

    def test_equal_losses_give_uniform(self):
        for p in [0.0, 0.4, 0.9]:
            for mu in [1e-3, 1.0, 1000.0]:
                out = smoothed_weights_euclidean([3.0] * 6, p, mu)
                assert np.allclose(out.weights, 1.0 / 6, atol=1e-12)
                assert out.penalty_value == pytest.approx(0.0, abs=1e-15)

    def test_p_zero_short_circuits_to_uniform(self):
        out = smoothed_weights_euclidean([5.0, -2.0, 1.0], 0.0, 0.5)
        assert np.allclose(out.weights, 1.0 / 3)
        assert out.value == pytest.approx(np.mean([5.0, -2.0, 1.0]))

    def test_matches_reference_maximizer(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            L, p, mu = random_instance(rng)
            got = smoothed_weights_euclidean(L, p, mu)
            want = max_penalized_euclidean(L, p, mu)
            assert np.max(np.abs(got.weights - want)) <= 1e-7

    def test_kkt_residuals(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            L, p, mu = random_instance(rng)
            out = smoothed_weights_euclidean(L, p, mu)
            n = L.size
            cap = 1.0 / (n * (1.0 - p))
            check_dual_weights(out.weights, cap, sum_tol=1e-8)
            # Stationarity: the weights are the clipped dual solution at lam.
            u = L + mu / n
            recon = np.clip((u - out.lam) / mu, 0.0, cap)
            assert np.max(np.abs(out.weights - recon)) <= 1e-8

    def test_value_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            L, p, mu = random_instance(rng)
            out = smoothed_weights_euclidean(L, p, mu)
            direct = float(out.weights @ L - mu * out.penalty_value)
            assert out.value == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_value_accurate_to_rounding_at_small_mu(self):
        # At mu = 1e-3, n = 200, one ulp of lam moves sum q by about 5e-13, and
        # q @ L - mu*d(q) alone moves by lam times that drift of sum q.
        ds = random_lsq_dataset(6, n=200, d=5, noise=0.3)
        w_ls = np.linalg.lstsq(ds.features, ds.targets, rcond=None)[0]
        rng = np.random.default_rng(7)
        for scale in [1e-1, 1e-2]:
            for _ in range(20):
                w = w_ls + scale * rng.standard_normal(5)
                L = 0.5 * (ds.features @ w - ds.targets) ** 2
                out = smoothed_weights_euclidean(L, 0.9, 1e-3)
                exact = exact_euclidean_value(L, 0.9, 1e-3)
                assert abs(float(Fraction(out.value) - exact)) <= 4 * np.spacing(out.value)

    def test_root_bracketed_by_breakpoints(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            L, p, mu = random_instance(rng)
            if p == 0.0:
                continue
            out = smoothed_weights_euclidean(L, p, mu)
            u = L + mu / (L.size * (1.0 - p)) * 0 + mu / L.size
            cap = 1.0 / (L.size * (1.0 - p))
            bps = np.concatenate([u, u - mu * cap])
            assert bps.min() - 1e-9 <= out.lam <= bps.max() + 1e-9

    def test_uniform_contraction_at_large_mu(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            L = rng.standard_normal(int(rng.integers(2, 15)))
            for mu in [1.0, 10.0, 1e4]:
                out = smoothed_weights_euclidean(L, 0.8, mu)
                dist = np.linalg.norm(out.weights - 1.0 / L.size)
                assert dist <= np.linalg.norm(L) / mu + 1e-12

    def test_bitwise_deterministic(self):
        L = np.random.default_rng(5).standard_normal(40)
        a = smoothed_weights_euclidean(L, 0.7, 0.01)
        b = smoothed_weights_euclidean(L, 0.7, 0.01)
        assert np.array_equal(a.weights, b.weights)
        assert a.value == b.value

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_bad_mu_rejected(self, mu):
        with pytest.raises(ValueError):
            smoothed_weights_euclidean([1.0, 2.0], 0.5, mu)

    @pytest.mark.parametrize("p", [-0.1, 1.0])
    def test_bad_p_rejected(self, p):
        with pytest.raises(ValueError):
            smoothed_weights_euclidean([1.0, 2.0], p, 1.0)


    def test_lost_bracket_is_an_evaluation_error(self):
        # At loss/mu = 1e20 the rounding of the prefix sums hides the sign
        # change of the dual derivative between adjacent breakpoints.
        with pytest.raises(EvaluationError, match=r"loss-to-mu ratio 1e\+20"):
            smoothed_weights_euclidean([1e17, -2e16, 5e16], 0.1, 1e-3)


    def test_weights_off_the_simplex_are_an_evaluation_error(self):
        # At loss/mu = 1e17 the window mu*cap below 5e16 rounds away, so 5e16
        # counts as capped beside 1e17, and the capped mass exceeds 1.
        with pytest.raises(EvaluationError, match=r"off the capped simplex at loss-to-mu ratio 1e\+17"):
            smoothed_weights_euclidean([1e17, 3e16, -2e16, 5e16], 0.7, 1.0)

    # pytest turns a RuntimeWarning into an error, so in the next two tests
    # numpy must not warn of the overflow that the step handles.
    def test_overflowing_quotient_clips_to_the_cap(self):
        # (u - lam) / mu overflows for the largest loss, which gets the cap.
        out = smoothed_weights_euclidean([1e300, -1e300, 0.0, 5.0], 0.5, 1e-10)
        assert np.array_equal(out.weights, [0.5, 0.0, 0.0, 0.5])
        assert np.array_equal(out.support, [0, 3])

    def test_overflowing_prefix_sums_raise_evaluation_error(self):
        with pytest.raises(EvaluationError, match=r"not bracketed at loss-to-mu ratio 1e\+308"):
            smoothed_weights_euclidean([1e308, 1e308, 0.0, 5.0], 0.5, 1.0)


class TestEuclideanMassAtLargeLossToMuRatios:
    """Losses |N(0, 1)| or Cauchy times a scale, at mu = 1: the weights stay in
    the capped simplex to rounding, or the step raises."""

    @staticmethod
    def _draws(scale):
        rng = np.random.default_rng(int(np.log10(scale)))
        for draw in range(200):
            n = int(rng.integers(2, 2000))
            L = rng.standard_cauchy(n) if draw % 2 else np.abs(rng.standard_normal(n))
            p = float(rng.choice([0.5, 0.9, 0.99]))
            yield scale * L, p, 1.0 / (n * (1.0 - p))

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9, 1e12])
    def test_weights_sum_to_one_to_rounding(self, scale):
        for L, p, cap in self._draws(scale):
            out = smoothed_weights_euclidean(L, p, 1.0)
            check_dual_weights(out.weights, cap, sum_tol=1e-14)

    @pytest.mark.parametrize("scale", [1e15, 1e18])
    def test_weights_in_the_simplex_or_an_evaluation_error(self, scale):
        raised = 0
        for L, p, cap in self._draws(scale):
            try:
                out = smoothed_weights_euclidean(L, p, 1.0)
            except EvaluationError as err:
                assert "loss-to-mu ratio" in str(err)
                raised += 1
            else:
                check_dual_weights(out.weights, cap)
        assert 0 < raised < 200


class TestThetaPrime:
    def test_worked_root(self):
        assert theta_prime(0.5, [0.0, 1.0], 0.5, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_limit_above_all_breakpoints(self):
        L = np.array([0.0, 1.0, 2.0])
        assert theta_prime(100.0, L, 0.5, 1.0) == pytest.approx(1.0)

    def test_limit_below_all_breakpoints(self):
        L = np.array([0.0, 1.0])
        n_cap = 2 * (1.0 / (2 * 0.5))
        assert theta_prime(-100.0, L, 0.5, 1.0) == pytest.approx(1.0 - n_cap)
        assert theta_prime(-100.0, L, 0.5, 1.0) < 0.0

    def test_nondecreasing(self):
        rng = np.random.default_rng(6)
        L = rng.standard_normal(10)
        grid = np.linspace(L.min() - 2, L.max() + 2, 200)
        vals = [theta_prime(g, L, 0.8, 0.3) for g in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestLossVectorChecks:
    """Both weight routines reject what is not a finite nonempty loss vector."""

    @pytest.mark.parametrize("weights", [smoothed_weights_euclidean, smoothed_weights_entropic])
    @pytest.mark.parametrize("losses", [[], [[1.0, 2.0]], 3.0])
    def test_bad_shape_rejected(self, weights, losses):
        with pytest.raises(ValueError, match="losses must be a nonempty 1-D vector"):
            weights(losses, 0.5, 1.0)

    @pytest.mark.parametrize("weights", [smoothed_weights_euclidean, smoothed_weights_entropic])
    @pytest.mark.parametrize("position", [0, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_loss_rejected(self, weights, bad, position):
        L = np.array([1.0, 2.0, 3.0, 4.0])
        L[position] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="losses contain non-finite entries"):
                weights(L, 0.5, 1.0)


class TestEntropicSubroutine:
    def test_equal_losses_give_uniform(self):
        for p in [0.0, 0.4, 0.9]:
            out = smoothed_weights_entropic([2.0] * 5, p, 0.7)
            assert np.allclose(out.weights, 0.2, atol=1e-12)
            assert out.penalty_value == pytest.approx(0.0, abs=1e-12)

    def test_p_zero_short_circuits_to_uniform(self):
        out = smoothed_weights_entropic([9.0, -3.0, 0.5, 1.0], 0.0, 2.0)
        assert np.allclose(out.weights, 0.25)

    def test_matches_reference_maximizer(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            L, p, mu = random_instance(rng)
            got = smoothed_weights_entropic(L, p, mu)
            want = max_penalized_entropic(L, p, mu)
            assert np.max(np.abs(got.weights - want)) <= 1e-7

    def test_no_overflow_for_large_loss_to_mu_ratio(self):
        L = np.array([0.0, 5e3, 1e4])
        out = smoothed_weights_entropic(L, 0.5, 1.0)
        assert np.isfinite(out.weights).all()
        cap = 1.0 / (3 * 0.5)
        check_dual_weights(out.weights, cap)
        # Mass concentrates on the largest loss up to the cap.
        assert out.weights[2] == pytest.approx(cap)

    @pytest.mark.parametrize(
        "scale", [1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e20, 1e100, 1e200, 1e300]
    )
    def test_cap_count_found_at_extreme_loss_to_mu_ratio(self, scale):
        # The step tuner's long trial steps drive losses this high.
        L = scale * np.random.default_rng(0).standard_normal(200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = smoothed_weights_entropic(L, 0.9, 1.0)
        check_dual_weights(out.weights, 1.0 / (200 * 0.1))
        # Gaps between losses dwarf mu, so the softmax is a hard selection.
        exact = exact_subgradient_weights(L, 0.9).weights
        assert np.max(np.abs(out.weights - exact)) <= 1e-12

    def test_caps_bind_progressively(self):
        # Small mu concentrates the softmax; the cap forces spreading.
        L = np.array([5.0, 4.0, 0.0, -1.0, -2.0])
        out = smoothed_weights_entropic(L, 0.5, 0.01)
        cap = 1.0 / (5 * 0.5)
        assert out.weights[0] == pytest.approx(cap)
        assert out.weights[1] == pytest.approx(cap)
        assert out.weights[2:].sum() == pytest.approx(1 - 2 * cap, abs=1e-9)

    def test_value_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            L, p, mu = random_instance(rng)
            out = smoothed_weights_entropic(L, p, mu)
            direct = float(out.weights @ L - mu * out.penalty_value)
            assert out.value == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_penalty_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            L, p, mu = random_instance(rng)
            out = smoothed_weights_entropic(L, p, mu)
            assert out.penalty_value >= 0.0

    def test_bitwise_deterministic(self):
        L = np.random.default_rng(10).standard_normal(30)
        a = smoothed_weights_entropic(L, 0.9, 0.05)
        b = smoothed_weights_entropic(L, 0.9, 0.05)
        assert np.array_equal(a.weights, b.weights)


class TestAgainstSortingReferences:
    """The candidate-set routines against the full-sort routines they replaced.

    Both are exact up to rounding of order eps * |L| / mu in each weight, so
    agreement is asserted to 1e-12 on that scale.
    """

    @pytest.mark.parametrize(
        "penalty, fast, reference",
        [
            ("euclidean", smoothed_weights_euclidean, sorting_weights_euclidean),
            ("entropic", smoothed_weights_entropic, sorting_weights_entropic),
        ],
    )
    @settings(max_examples=300, deadline=None)
    @given(L=loss_vectors(), p=LEVELS, mu=SCALES)
    def test_matches_reference(self, penalty, fast, reference, L, p, mu):
        got, want = fast(L, p, mu), reference(L, p, mu)
        scale = max(1.0, float(np.abs(L).max()) / mu)
        assert np.max(np.abs(got.weights - want.weights)) <= 1e-12 * scale
        assert got.value == pytest.approx(dual_value(want), rel=1e-12, abs=1e-12 * scale * mu)
        check_dual_weights(got.weights, 1.0 / (L.size * (1.0 - p)), sum_tol=1e-10 * scale)

    @pytest.mark.parametrize("spread", [100.0, 1000.0, 5000.0])
    def test_entropic_tail_sums_at_narrow_and_wide_spreads(self, spread):
        # The 31 largest losses (the candidates at p = 0.9, n = 300) span
        # [0, spread]; past a spread of about 700 in L/mu, exp(-spread)
        # underflows, so the tail sums must stay in the log domain.
        rng = np.random.default_rng(int(spread))
        L = np.concatenate([np.linspace(0.0, spread, 31), -1.0 - rng.random(269)])
        rng.shuffle(L)
        got = smoothed_weights_entropic(L, 0.9, 1.0)
        want = sorting_weights_entropic(L, 0.9, 1.0)
        assert np.max(np.abs(got.weights - want.weights)) <= 1e-12 * spread
        check_dual_weights(got.weights, 1.0 / (300 * 0.1))
        # 100 takes the shifted cumulative sum, 1000 and 5000 the logaddexp
        # recurrence; either way the weights are those of the scan.
        scan = scan_weights_entropic(L, 0.9, 1.0)
        assert got.weights.tobytes() == scan.weights.tobytes()
        assert got.value == scan.value

    @pytest.mark.parametrize("n", [10_000, 50_001])
    @pytest.mark.parametrize("p", [0.5, 0.9, 0.999])
    def test_large_vectors_match_reference(self, n, p):
        rng = np.random.default_rng(n)
        L = np.concatenate([rng.standard_normal(n - n // 10), np.full(n // 10, 2.0)])
        rng.shuffle(L)
        for mu in [1e-2, 1.0, 1e3]:
            for fast, reference in [
                (smoothed_weights_euclidean, sorting_weights_euclidean),
                (smoothed_weights_entropic, sorting_weights_entropic),
            ]:
                got, want = fast(L, p, mu), reference(L, p, mu)
                scale = max(1.0, float(np.abs(L).max()) / mu)
                assert np.max(np.abs(got.weights - want.weights)) <= 1e-12 * scale


@st.composite
def entropic_instances(draw):
    """(L, p, mu) with L/mu spread over 1e-2 to 1e9, on both sides of the 700
    past which the tail sums leave the shifted cumulative sum for logaddexp;
    quantized draws tie, and small n (n = 1 included) or small p make the K
    largest every loss, with no rest."""
    n = draw(st.one_of(st.integers(1, 4), st.integers(5, 300)))
    p = draw(st.sampled_from([0.01, 0.1, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-9]))
    mu = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    spread = draw(st.sampled_from([1e-2, 1.0, 50.0, 300.0, 650.0, 750.0, 2e3, 1e5, 1e9]))
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        u = np.round(4.0 * u) / 4.0
    offset = draw(st.floats(-1e3, 1e3))
    return mu * (offset + spread * u), p, mu


class TestEntropicScanReference:
    """The entropic routine against the logaddexp scan it replaced: the tail
    sums may round differently, but the cap count, and so every weight bit,
    must not move."""

    @settings(max_examples=500, deadline=None)
    @given(case=entropic_instances())
    def test_bit_identical_to_scan(self, case):
        L, p, mu = case
        got, want = smoothed_weights_entropic(L, p, mu), scan_weights_entropic(L, p, mu)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.value == want.value
        assert got.penalty_value == want.penalty_value
        if want.support is None:
            assert got.support is None
        else:
            assert np.array_equal(got.support, want.support)
        # lam = -mu * (log_rem - T + 1) cancels when its terms nearly balance,
        # so a rounding change in T is relative to mu times the size of L/mu.
        scale = max(1.0, float(np.abs(L).max()) / mu)
        assert abs(got.lam - want.lam) <= 1e-14 * max(abs(want.lam), mu * scale)

    def test_lost_cap_count_raises_evaluation_error(self, monkeypatch):
        monkeypatch.setattr(
            tailopt.smoothing, "_tail_ratios", lambda ascending: np.full(ascending.size - 1, np.nan)
        )
        with pytest.raises(EvaluationError, match="loss-to-mu ratio 5"):
            smoothed_weights_entropic([1.0, 5.0, 2.0, 3.0], 0.5, 1.0)

    def test_overflowing_loss_to_mu_ratio_raises_evaluation_error(self):
        # L/mu overflows; pytest turns a RuntimeWarning into an error, so the
        # step must raise with no warning first.
        with pytest.raises(EvaluationError, match="cap count not found at loss-to-mu ratio inf"):
            smoothed_weights_entropic([1e300, -1e300, 0.0, 5.0], 0.5, 1e-10)

    def test_scaled_loss_span_past_the_float_range(self):
        # The span 1e308 - (-1e308) of L/mu overflows; the step takes the log
        # domain without forming it, so numpy has nothing to warn of.
        out = smoothed_weights_entropic([1e308, -1e308, 0.0, 5.0], 0.5, 1.0)
        e5 = np.exp(5.0)
        assert out.weights[:2].tolist() == [0.5, 0.0]
        assert np.allclose(out.weights[2:], [0.5 / (1 + e5), 0.5 * e5 / (1 + e5)], rtol=1e-12)


class TestSupport:
    """Each weight routine returns the support that the oracle's gradient gathers."""

    @settings(max_examples=300, deadline=None)
    @given(L=loss_vectors(), p=LEVELS, mu=SCALES, quantum=st.sampled_from([None, 1.0, 0.25]))
    def test_support_is_the_nonzero_weights(self, L, p, mu, quantum):
        if quantum is not None:
            L = np.round(L / quantum) * quantum  # quantized losses tie often
        outputs = [
            exact_subgradient_weights(L, p),
            smoothed_weights_euclidean(L, p, mu),
            smoothed_weights_entropic(L, p, mu),
        ]
        for out in outputs:
            nonzero = np.flatnonzero(out.weights)
            if nonzero.size == L.size:
                assert out.support is None
            else:
                assert out.support.dtype.kind == "i"
                assert np.array_equal(out.support, nonzero)


class TestApproximationBounds:
    @pytest.mark.parametrize("penalty", ["euclidean", "entropic"])
    def test_sandwich_with_measured_gap(self, penalty):
        rng = np.random.default_rng(11)
        sub = SUBROUTINES[penalty][0]
        for _ in range(100):
            n = int(rng.integers(2, 7))
            L = rng.standard_normal(n) * float(rng.choice([0.5, 5.0]))
            p = float(rng.choice([0.1, 0.5, 0.9]))
            mu = float(rng.choice([0.01, 0.3, 2.0]))
            f = superquantile(L, p)
            f_mu = sub(L, p, mu).value
            cap = 1.0 / (n * (1.0 - p))
            d_max = penalty_max_on_vertices(n, cap, penalty)
            assert f_mu <= f + 1e-9
            assert f - f_mu <= mu * d_max + 1e-9

    def test_two_point_gap_is_exact(self):
        # f = 1, f_mu = 0.75, d_max = 0.25 at mu = 1: the bound is tight.
        f = superquantile([0.0, 1.0], 0.5)
        out = smoothed_weights_euclidean([0.0, 1.0], 0.5, 1.0)
        d_max = penalty_max_on_vertices(2, 1.0, "euclidean")
        assert f == pytest.approx(1.0)
        assert out.value + 1.0 * d_max == pytest.approx(f, abs=1e-12)

    @pytest.mark.parametrize("penalty", ["euclidean", "entropic"])
    def test_gap_monotone_and_vanishing_in_mu(self, penalty):
        rng = np.random.default_rng(12)
        sub = SUBROUTINES[penalty][0]
        mus = [10.0**k for k in range(0, -7, -1)]
        for _ in range(30):
            L = np.round(rng.standard_normal(int(rng.integers(2, 12))), 1)
            p = float(rng.choice([0.3, 0.7, 0.95]))
            f = superquantile(L, p)
            gaps = [f - sub(L, p, mu).value for mu in mus]
            assert all(g >= -1e-10 for g in gaps)
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] <= 1e-5
            # Dual value converges to the tail average as smoothing vanishes.
            tail = float(sub(L, p, mus[-1]).weights @ L)
            assert tail == pytest.approx(f, abs=1e-5)


class TestSmoothedOracle:
    def test_single_sample(self):
        ds = random_lsq_dataset(13, n=1, d=2)
        loss = LinearLeastSquares()
        w = np.array([0.4, -0.7])
        for penalty in ["euclidean", "entropic"]:
            params = RiskParams(p=0.6, mu=0.5, penalty=penalty)
            value, grad = smoothed_oracle(loss, ds, w, params)
            assert value == pytest.approx(sample_value(loss, w, ds.features[0], ds.targets[0]))
            assert np.allclose(grad, sample_gradient(loss, w, ds.features[0], ds.targets[0]))

    @pytest.mark.parametrize("penalty", ["euclidean", "entropic"])
    def test_gradient_matches_central_differences(self, penalty):
        ds = random_lsq_dataset(14, n=10, d=3)
        loss = LinearLeastSquares()
        params = RiskParams(p=0.5, mu=0.1, penalty=penalty)
        rng = np.random.default_rng(15)
        for _ in range(10):
            w = rng.standard_normal(3)
            _, grad = smoothed_oracle(loss, ds, w, params)
            fd = central_difference_gradient(
                lambda v: smoothed_oracle(loss, ds, v, params)[0], w
            )
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5

    def test_requires_mu(self):
        ds = random_lsq_dataset(16, n=5, d=2)
        with pytest.raises(ValueError):
            smoothed_oracle(LinearLeastSquares(), ds, np.zeros(2), RiskParams(p=0.5))
