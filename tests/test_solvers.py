import numpy as np
import pytest

from tailopt.core import Dataset, EvaluationError, RiskParams
from tailopt.models import LinearLeastSquares
from tailopt.smoothing import smoothed_oracle
from tailopt.solvers import (
    Algorithm,
    SolverConfig,
    Termination,
    TuneStepWarning,
    run_solver,
    tune_initial_step,
)
from tailopt.superquantile import exact_oracle

from helpers import (
    AbsoluteDeviationLoss,
    RecordingOracle,
    quadratic_oracle,
    random_lsq_dataset,
    scan_initial_step,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def nesterov_alpha_next(alpha):
    """Reference momentum recursion a -> (1 + sqrt(1 + 4 a^2)) / 2."""
    return 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * alpha * alpha))


def abs_toy_oracle():
    # n = 1 with |y - w x|, x = 1, y = 0: the objective is |w| at any level.
    ds = Dataset([[1.0]], [0.0])
    loss = AbsoluteDeviationLoss()
    return lambda w: exact_oracle(loss, ds, w, 0.5)


def tail_toy(seed=6, n=200, d=5, noise=0.3, p=0.9, mu=1e-3):
    ds = random_lsq_dataset(seed, n=n, d=d, noise=noise)
    loss = LinearLeastSquares()
    params = RiskParams(p=p, mu=mu, penalty="euclidean")
    exact = lambda w: exact_oracle(loss, ds, w, p)
    smooth = lambda w: smoothed_oracle(loss, ds, w, params)
    return ds, exact, smooth


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(step_size=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(step_size="fast")
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=-1e-3)

    def test_start_point_resolution(self):
        assert np.array_equal(SolverConfig(initial_point=np.zeros(3)).start_point(), np.zeros(3))
        x0 = np.array([1.0, 2.0])
        assert np.array_equal(SolverConfig(initial_point=x0).start_point(), x0)
        with pytest.raises(ValueError):
            SolverConfig().start_point()


class TestTuneInitialStep:
    def test_quadratic_picks_largest_decreasing_grid_point(self):
        # f = w^2/2 from x0 = 1: any step in (0, 2) decreases f; the grid
        # 2^k/(1+1) contains 1.0 and 2.0, and 2.0 gives no strict decrease.
        # The tuner tries k = 0, 10, 5, 2 and 1; 0 and 1 decrease f.
        oracle = RecordingOracle(lambda w: (0.5 * float(w @ w), w.copy()))
        assert tune_initial_step(oracle, np.array([1.0]), 0.5, np.array([1.0])) == 1.0
        assert [float(x[0]) for x in oracle.points] == [0.5, -511.0, -15.0, -1.0, 0.0]

    def test_small_steps_are_scanned_when_the_unit_grid_step_fails(self):
        # f = 10 w^2 from x0 = 0.05: g0 = 1, so base = 0.5, and a step decreases
        # f only below 0.1.  The tuner tries k = 0, -11, -6, -3 and -2; k = -3
        # is the largest that decreases f.
        oracle = RecordingOracle(lambda w: (10.0 * float(w @ w), 20.0 * w))
        x0 = np.array([0.05])
        f0, g0 = 0.025, np.array([1.0])
        assert tune_initial_step(oracle, x0, f0, g0) == 0.5 * 2.0**-3
        assert len(oracle.points) == 5
        assert scan_initial_step(oracle.oracle, x0, f0, g0) == 0.5 * 2.0**-3

    @staticmethod
    def _assert_matches_full_scan(ds, seed):
        # f is convex along every ray here, so bisection finds the scan's step.
        # Returns how many of the 9 (oracle, start) pairs tuned below k = 0.
        loss = LinearLeastSquares()
        oracles = [
            lambda w: exact_oracle(loss, ds, w, 0.9),
            lambda w: smoothed_oracle(loss, ds, w, RiskParams(p=0.9, mu=1e-2)),
            lambda w: smoothed_oracle(
                loss, ds, w, RiskParams(p=0.9, mu=1.0, penalty="entropic")
            ),
        ]
        starts = [np.zeros(5), np.ones(5), 3.0 * np.random.default_rng(seed).standard_normal(5)]
        below_unit = 0
        for oracle in oracles:
            for x0 in starts:
                f0, g0 = oracle(x0)
                rec = RecordingOracle(oracle)
                step = tune_initial_step(rec, x0, f0, g0)
                assert step == scan_initial_step(oracle, x0, f0, g0)
                assert len(rec.points) <= 6
                below_unit += step < 1.0 / (1.0 + float(np.linalg.norm(g0)))
        return below_unit

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_full_scan_on_tail_toys(self, seed):
        ds = random_lsq_dataset(seed, n=200, d=5, noise=0.3)
        self._assert_matches_full_scan(ds, seed)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_full_scan_below_the_unit_grid_step(self, seed):
        # With the features scaled by 8 the curvature grows faster than the
        # gradient norm in base, so from some starts the step k = 0 no longer
        # decreases f and the search runs below it.
        ds = random_lsq_dataset(seed, n=200, d=5, noise=0.3)
        scaled = Dataset(8.0 * ds.features, ds.targets)
        assert self._assert_matches_full_scan(scaled, seed) > 0

    def test_constant_objective_warns_and_falls_back(self):
        # The trials k = 0, -11, -16, -19 and -20 all fail.
        oracle = RecordingOracle(lambda w: (1.0, np.ones(1)))
        with pytest.warns(TuneStepWarning):
            step = tune_initial_step(oracle, np.zeros(1), 1.0, np.ones(1))
        assert step == pytest.approx(0.5 * 2.0**-20)
        assert len(oracle.points) == 5

    def test_deterministic(self):
        ds, _, smooth = tail_toy()
        x0 = np.ones(5)
        f0, g0 = smooth(x0)
        assert tune_initial_step(smooth, x0, f0, g0) == tune_initial_step(smooth, x0, f0, g0)

    def test_given_value_and_gradient_are_not_evaluated_again(self):
        _, _, smooth = tail_toy()
        x0 = np.ones(5)
        rec = RecordingOracle(smooth)
        f0, g0 = smooth(x0)
        tune_initial_step(rec, x0, f0, g0)
        # Only trial steps were evaluated, never x0 itself.
        assert not any(np.array_equal(x, x0) for x in rec.points)


class TestSubgradientMethod:
    def test_abs_toy_converges(self):
        oracle = abs_toy_oracle()
        cfg = SolverConfig(
            algorithm="subgradient", max_iters=10000, f_tol=0.0, initial_point=np.array([1.0])
        )
        r = run_solver(oracle, cfg)
        assert r.objective_trace.min() <= 1e-2
        assert len(r.objective_trace) <= 10000

    def test_zero_gradient_start(self):
        oracle = lambda w: (0.0, np.zeros(2))
        x0 = np.array([3.0, -1.0])
        r = run_solver(
            oracle, SolverConfig(algorithm="subgradient", max_iters=50, initial_point=x0)
        )
        assert r.termination is Termination.GRAD_TOL
        assert len(r.objective_trace) == 1
        assert np.array_equal(r.solution, x0)

    def test_agrees_with_lbfgs_reference(self):
        ds, exact, _ = tail_toy(mu=1e-4)
        loss = LinearLeastSquares()
        params = RiskParams(p=0.9, mu=1e-4)
        ref = run_solver(
            lambda w: smoothed_oracle(loss, ds, w, params),
            SolverConfig(
                algorithm="lbfgs", max_iters=300, grad_tol=1e-10, f_tol=0.0,
                initial_point=np.zeros(5),
            ),
        )
        f_ref = exact(ref.solution)[0]
        r = run_solver(
            exact,
            SolverConfig(
                algorithm="subgradient", max_iters=30000, grad_tol=0.0, f_tol=0.0,
                initial_point=np.zeros(5)
            ),
        )
        assert exact(r.solution)[0] <= f_ref + 1e-3

    def test_nonfinite_gradient_aborts_with_trace(self):
        def oracle(w):
            if w[0] < 0.7:
                return 0.0, np.array([np.nan])
            return float(w[0]), np.array([1.0])

        cfg = SolverConfig(
            algorithm="subgradient",
            max_iters=100,
            step_size=0.5,
            f_tol=0.0,
            initial_point=np.array([1.0]),
        )
        with pytest.raises(EvaluationError) as err:
            run_solver(oracle, cfg)
        assert len(err.value.objective_trace) >= 1


class TestDualAveraging:
    def test_constant_gradient_closed_form(self):
        g_const = np.array([3.0, 4.0])
        oracle = RecordingOracle(lambda w: (float(g_const @ w), g_const.copy()))
        step = 0.1
        cfg = SolverConfig(
            algorithm="dual_averaging",
            max_iters=6,
            grad_tol=0.0,
            f_tol=0.0,
            step_size=step,
            initial_point=np.zeros(2),
        )
        r = run_solver(oracle, cfg)
        assert len(oracle.points) == len(r.objective_trace) == 6  # fixed step: no tuning calls
        ghat = g_const / np.linalg.norm(g_const)
        a = 1.0 / (step * np.linalg.norm(g_const))
        for k in range(1, 6):
            # s_k = k * ghat, so the iterate sits sqrt(k)/a along -ghat.
            expect = -(k / (a * np.sqrt(k))) * ghat
            assert np.allclose(oracle.points[k], expect, atol=1e-14)

    def test_abs_toy_converges(self):
        r = run_solver(
            abs_toy_oracle(),
            SolverConfig(
                algorithm="dual_averaging", max_iters=10000, f_tol=0.0, initial_point=np.array([1.0])
            ),
        )
        assert r.objective_trace.min() <= 1e-2

    def test_zero_gradient_terminates(self):
        oracle = lambda w: (0.0, np.zeros(1))
        r = run_solver(
            oracle,
            SolverConfig(
                algorithm="dual_averaging", max_iters=10, grad_tol=0.0,
                initial_point=np.zeros(1),
            ),
        )
        assert r.termination is Termination.GRAD_TOL

    def test_agrees_with_lbfgs_reference(self):
        ds, exact, _ = tail_toy(mu=1e-4)
        loss = LinearLeastSquares()
        params = RiskParams(p=0.9, mu=1e-4)
        ref = run_solver(
            lambda w: smoothed_oracle(loss, ds, w, params),
            SolverConfig(
                algorithm="lbfgs", max_iters=300, grad_tol=1e-10, f_tol=0.0,
                initial_point=np.zeros(5),
            ),
        )
        f_ref = exact(ref.solution)[0]
        r = run_solver(
            exact,
            SolverConfig(
                algorithm="dual_averaging", max_iters=40000, grad_tol=0.0, f_tol=0.0,
                initial_point=np.zeros(5)
            ),
        )
        assert exact(r.solution)[0] <= f_ref + 1e-3


class TestGradientDescent:
    def test_quadratic_single_step_contraction(self):
        oracle, _, _ = quadratic_oracle(np.eye(1), np.zeros(1))
        cfg = SolverConfig(
            algorithm="gradient_descent",
            max_iters=200,
            grad_tol=1e-8,
            f_tol=0.0,
            step_size=1.0,
            initial_point=np.array([5.0]),
        )
        r = run_solver(oracle, cfg)
        assert r.termination is Termination.GRAD_TOL
        assert len(r.objective_trace) <= 200

    def test_zero_gradient_start(self):
        oracle, _, _ = quadratic_oracle(np.eye(2), np.zeros(2))
        r = run_solver(
            oracle, SolverConfig(
                algorithm="gradient_descent", max_iters=10,
                initial_point=np.zeros(2),
            )
        )
        assert r.termination is Termination.GRAD_TOL
        assert len(r.objective_trace) == 1

    def test_monotone_trace_and_lbfgs_agreement(self):
        ds, exact, smooth = tail_toy()
        gd = run_solver(
            smooth,
            SolverConfig(
                algorithm="gradient_descent", max_iters=4000, grad_tol=1e-9, f_tol=0.0,
                initial_point=np.zeros(5)
            ),
        )
        diffs = np.diff(gd.objective_trace)
        assert (diffs <= 1e-14).all()
        ref = run_solver(
            smooth, SolverConfig(
                algorithm="lbfgs", max_iters=500, grad_tol=1e-8, f_tol=0.0,
                initial_point=np.zeros(5),
            )
        )
        assert abs(gd.objective_trace.min() - ref.objective_trace.min()) <= 1e-6

    def test_accepted_trial_is_not_evaluated_again(self):
        # f = |w|^2/2 with step 1 lands on the minimizer in one trial; every
        # oracle call is then a recorded iterate.
        oracle, _, _ = quadratic_oracle(np.eye(2), np.zeros(2))
        cfg = SolverConfig(
            algorithm="gradient_descent",
            max_iters=10,
            step_size=1.0,
            initial_point=np.array([3.0, -4.0]),
        )
        r = run_solver(oracle, cfg)
        assert r.termination is Termination.GRAD_TOL
        assert r.oracle_calls == len(r.objective_trace) == 2

    def test_line_search_failure_on_adversarial_oracle(self):
        # The reported gradient points away from descent: no trial step helps,
        # and the search gives up after its 51 trials.
        oracle = lambda w: (float(w[0]), np.array([-1.0]))
        cfg = SolverConfig(
            algorithm="gradient_descent",
            max_iters=10,
            grad_tol=0.0,
            f_tol=0.0,
            step_size=1.0,
            initial_point=np.array([0.0]),
        )
        r = run_solver(oracle, cfg)
        assert r.termination is Termination.LINE_SEARCH_FAILURE
        assert r.oracle_calls == 1 + 51

    def test_f_tol_stall_detection(self):
        oracle, _, _ = quadratic_oracle(np.eye(1), np.zeros(1))
        cfg = SolverConfig(
            algorithm="gradient_descent",
            max_iters=1000,
            grad_tol=0.0,
            f_tol=1e-6,
            step_size=1e-12,
            initial_point=np.array([1.0]),
        )
        r = run_solver(oracle, cfg)
        assert r.termination is Termination.F_TOL
        assert len(r.objective_trace) == 11  # detected right after the window fills


class TestAcceleratedGradient:
    def test_momentum_recursion_values(self):
        assert nesterov_alpha_next(1.0) == pytest.approx(GOLDEN, abs=1e-15)
        a2 = nesterov_alpha_next(GOLDEN)
        assert a2 == pytest.approx((1.0 + np.sqrt(1.0 + 4.0 * GOLDEN**2)) / 2.0)
        gamma = (1.0 - GOLDEN) / a2
        assert gamma == pytest.approx(-0.28183, abs=1e-4)

    def test_scheme_matches_manual_unroll(self):
        A = np.diag([1.0, 0.25])
        b = np.array([0.5, -0.25])
        oracle = RecordingOracle(quadratic_oracle(A, b)[0])
        step = 0.7
        cfg = SolverConfig(
            algorithm="accelerated_gradient",
            max_iters=6,
            grad_tol=0.0,
            f_tol=0.0,
            step_size=step,
            initial_point=np.zeros(2),
        )
        r = run_solver(oracle, cfg)
        assert len(oracle.points) == len(r.objective_trace) == 6  # fixed step: no tuning calls
        x_prev = np.zeros(2)
        y = np.zeros(2)
        a_cur = 1.0
        for k in range(5):
            assert np.allclose(oracle.points[k], y, atol=1e-14)
            g = A @ y - b
            x_next = y - step * g
            a_next = nesterov_alpha_next(a_cur)
            y = x_next + ((a_cur - 1.0) / a_next) * (x_next - x_prev)
            x_prev, a_cur = x_next, a_next

    def test_quadratic_converges_quickly(self):
        oracle, _, _ = quadratic_oracle(np.eye(1), np.zeros(1))
        cfg = SolverConfig(
            algorithm="accelerated_gradient",
            max_iters=100,
            grad_tol=1e-8,
            f_tol=0.0,
            step_size=1.0,
            initial_point=np.array([2.0]),
        )
        r = run_solver(oracle, cfg)
        assert r.termination is Termination.GRAD_TOL
        assert len(r.objective_trace) <= 100

    def test_beats_gradient_descent_on_ill_conditioned_quadratic(self):
        d = 20
        A = np.diag(np.logspace(-4, 0, d))  # condition number 1e4
        b = A @ np.ones(d)
        oracle, _, f_star = quadratic_oracle(A, b)
        gd = run_solver(
            oracle,
            SolverConfig(
                algorithm="gradient_descent",
                max_iters=25000,
                grad_tol=0.0,
                f_tol=0.0,
                step_size=1.0,
                initial_point=np.zeros(d),
            ),
        )
        agd = run_solver(
            oracle,
            SolverConfig(
                algorithm="accelerated_gradient",
                max_iters=2500,
                grad_tol=0.0,
                f_tol=0.0,
                step_size=1.0,
                initial_point=np.zeros(d),
            ),
        )

        def first_hit(trace):
            best = np.minimum.accumulate(trace)
            hits = np.nonzero(best - f_star <= 1e-6)[0]
            assert hits.size, "tolerance never reached"
            return hits[0]

        gd_hit = first_hit(gd.objective_trace)
        agd_hit = first_hit(agd.objective_trace)
        assert agd_hit <= gd_hit / 10
        assert agd.oracle_calls < gd.oracle_calls


class TestLbfgs:
    def test_strongly_convex_quadratic(self):
        # Minimum value 0 keeps Armijo comparisons exact at every scale, so
        # the run is not limited by the floating-point floor of f.
        rng = np.random.default_rng(0)
        d = 10
        M = rng.standard_normal((d, d))
        A = M @ M.T + np.eye(d)
        oracle, _, _ = quadratic_oracle(A, np.zeros(d))
        r = run_solver(
            oracle,
            SolverConfig(
                algorithm="lbfgs",
                max_iters=50,
                grad_tol=1e-10,
                f_tol=0.0,
                initial_point=rng.standard_normal(d),
            ),
        )
        assert r.termination is Termination.GRAD_TOL
        assert len(r.objective_trace) <= 50

    def test_already_optimal_start(self):
        oracle, w_star, _ = quadratic_oracle(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
        r = run_solver(
            oracle,
            SolverConfig(algorithm="lbfgs", max_iters=50, grad_tol=1e-8, initial_point=w_star),
        )
        assert r.termination is Termination.GRAD_TOL
        assert len(r.objective_trace) == 1
        assert r.oracle_calls == 1

    def test_tail_toy_reaches_tight_gradient(self):
        _, _, smooth = tail_toy()
        r = run_solver(
            smooth, SolverConfig(
                algorithm="lbfgs", max_iters=500, grad_tol=1e-8, f_tol=0.0,
                initial_point=np.zeros(5),
            )
        )
        assert r.termination is Termination.GRAD_TOL
        # Armijo steps never raise the objective, so the solution, the latest
        # minimizer of the trace, is the last iterate.  The trace may end in a
        # tie: at |g| ~ 1e-8 the decrease of a step is below half an ulp of f.
        assert (np.diff(r.objective_trace) <= 0.0).all()
        assert np.linalg.norm(smooth(r.solution)[1]) <= 1e-8

    def test_synthetic_smoke_run_with_heavy_smoothing(self):
        from tailopt.dataio import SyntheticSpec, generate_low_rank, generate_targets, resolve_w_bar

        spec = SyntheticSpec(n=300, d=10, effective_rank=5, seed=3)
        X = generate_low_rank(spec.n, spec.d, spec.effective_rank, 3)
        w_bar = resolve_w_bar(spec, 4)
        y = generate_targets(X, w_bar, spec, seed=5)
        ds = Dataset(np.hstack([X, np.ones((spec.n, 1))]), y)
        loss = LinearLeastSquares()
        params = RiskParams(p=0.9, mu=1000.0, penalty="euclidean")
        r = run_solver(
            lambda w: smoothed_oracle(loss, ds, w, params),
            SolverConfig(
                algorithm="lbfgs", max_iters=300, grad_tol=1e-8, f_tol=0.0,
                initial_point=np.zeros(11),
            ),
        )
        assert r.termination is not Termination.LINE_SEARCH_FAILURE

    def test_line_search_failure_on_adversarial_oracle(self):
        oracle = lambda w: (float(w[0]), np.array([-1.0]))
        r = run_solver(
            oracle,
            SolverConfig(
                algorithm="lbfgs", max_iters=10, grad_tol=0.0, f_tol=0.0, initial_point=np.zeros(1)
            ),
        )
        assert r.termination is Termination.LINE_SEARCH_FAILURE
        assert r.oracle_calls == 1 + 51  # no memory yet, so no steepest-descent retry

    def test_tail_toys_take_few_calls_and_never_spin(self):
        # Backtracking by halving took 33,895 calls on these 30 runs, three of
        # which repeated a step that left x unchanged until max_iters.
        calls = 0
        for seed in range(30):
            _, _, smooth = tail_toy(seed)
            r = run_solver(
                smooth, SolverConfig(
                    algorithm="lbfgs", max_iters=500, grad_tol=1e-8, f_tol=0.0,
                    initial_point=np.zeros(5),
                )
            )
            assert r.termination in (Termination.GRAD_TOL, Termination.NO_PROGRESS)
            calls += r.oracle_calls
        assert calls <= 4000


def ray_oracle(value_at):
    """Recorded 1-D oracle with value ``value_at(w)`` and gradient -1 everywhere.

    From x = 0, gradient descent searches along d = +1 with slope -1, so each
    trial point equals its trial step.
    """
    return RecordingOracle(lambda w: (value_at(float(w[0])), np.array([-1.0])))


def descend_once(oracle):
    """One gradient-descent step from x = 0 with trial step 1."""
    run_solver(
        oracle,
        SolverConfig(
            algorithm="gradient_descent", max_iters=2, grad_tol=0.0, f_tol=0.0,
            step_size=1.0, initial_point=np.zeros(1),
        ),
    )


class TestLineSearch:
    @pytest.mark.parametrize("algo", ["gradient_descent", "lbfgs"])
    def test_quadratic_accepts_the_interpolated_minimiser(self, algo):
        # f = 2 x^2 from x = 1: the unit step along -g = -4 lands on -3 and is
        # rejected; the quadratic through f(0) = 2, slope -16 and f(1) = 18 is
        # f itself, so the second trial is its minimiser t = 1/4, x = 0.
        rec = RecordingOracle(lambda w: (2.0 * float(w @ w), 4.0 * w))
        r = run_solver(
            rec,
            SolverConfig(
                algorithm=algo, max_iters=10, step_size=1.0, initial_point=np.array([1.0])
            ),
        )
        assert [float(x[0]) for x in rec.points] == [1.0, -3.0, 0.0]
        assert r.termination is Termination.GRAD_TOL
        assert r.oracle_calls == 3

    def test_huge_value_clips_to_a_tenth(self):
        rec = ray_oracle(lambda t: -t if t <= 2e-3 else 1e300)
        descend_once(rec)
        assert [float(x[0]) for x in rec.points] == pytest.approx([0.0, 1.0, 0.1, 0.01, 0.001])

    def test_barely_rejected_value_clips_to_a_half(self):
        # Just above the Armijo line the quadratic's minimiser lies a little
        # past t / 2.
        rec = ray_oracle(lambda t: -t if t <= 0.2 else -0.99e-4 * t)
        descend_once(rec)
        assert [float(x[0]) for x in rec.points] == [0.0, 1.0, 0.5, 0.25, 0.125]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_value_halves(self, bad):
        rec = ray_oracle(lambda t: -t if t <= 0.3 else bad)
        descend_once(rec)
        assert [float(x[0]) for x in rec.points] == [0.0, 1.0, 0.5, 0.25]

    @pytest.mark.parametrize("algo", ["gradient_descent", "lbfgs"])
    def test_step_that_leaves_x_unchanged_stops_the_run(self, algo):
        # At x = 1 the step 1e-20 rounds away, so the accepted trial is x again.
        rec = RecordingOracle(lambda w: (1.0 + 1e-20 * float(w[0]), np.array([1e-20])))
        r = run_solver(
            rec,
            SolverConfig(
                algorithm=algo, max_iters=50, grad_tol=0.0, f_tol=0.0, step_size=1.0,
                initial_point=np.array([1.0]),
            ),
        )
        assert r.termination is Termination.NO_PROGRESS
        assert r.oracle_calls == 2
        assert list(r.objective_trace) == [1.0]
        assert np.array_equal(r.solution, [1.0])

    @pytest.mark.parametrize("algo", ["gradient_descent", "lbfgs"])
    def test_step_that_moves_x_but_ties_f_goes_on(self, algo):
        # At x = 0 the same step moves x while f stays 1.0 to the last bit.
        rec = RecordingOracle(lambda w: (1.0 + 1e-20 * float(w[0]), np.array([1e-20])))
        r = run_solver(
            rec,
            SolverConfig(
                algorithm=algo, max_iters=5, grad_tol=0.0, f_tol=0.0, step_size=1.0,
                initial_point=np.array([0.0]),
            ),
        )
        assert r.termination is Termination.MAX_ITERS
        assert list(r.objective_trace) == [1.0] * 5
        assert len({float(x[0]) for x in rec.points}) == 5


def last_argmin(trace: np.ndarray) -> int:
    """Index of the latest minimum of ``trace``: ties go to the later iterate."""
    return len(trace) - 1 - int(np.argmin(trace[::-1]))


def iterate_points(r, rec: RecordingOracle) -> list[np.ndarray]:
    """The evaluated points behind ``r.objective_trace``, matched in call order.

    Fails unless the trace is a subsequence of the recorded oracle values.
    """
    points, j = [], 0
    for f in r.objective_trace:
        while rec.values[j] != f:
            j += 1
        points.append(rec.points[j])
        j += 1
    return points


class TestSharedContract:
    def test_trace_invariants_all_solvers(self):
        ds, exact, smooth = tail_toy()
        budget = 60
        runs = [
            ("subgradient", exact),
            ("dual_averaging", exact),
            ("gradient_descent", smooth),
            ("accelerated_gradient", smooth),
            ("lbfgs", smooth),
        ]
        for algo, oracle in runs:
            rec = RecordingOracle(oracle)
            r = run_solver(rec, SolverConfig(
                algorithm=algo, max_iters=budget, f_tol=0.0,
                initial_point=np.zeros(5),
            ))
            assert 1 <= len(r.objective_trace) <= budget
            assert r.oracle_calls == len(rec.points)
            iterates = iterate_points(r, rec)
            best_idx = last_argmin(r.objective_trace)
            assert np.array_equal(r.solution, iterates[best_idx])
            assert r.oracle_calls >= len(r.objective_trace)

    def test_solution_is_argmin_of_trace(self):
        _, _, smooth = tail_toy()
        rec = RecordingOracle(smooth)
        r = run_solver(rec, SolverConfig(
            algorithm="lbfgs", max_iters=40, f_tol=0.0,
            initial_point=np.zeros(5),
        ))
        best_idx = last_argmin(r.objective_trace)
        assert np.array_equal(r.solution, iterate_points(r, rec)[best_idx])
        f_check, _ = smooth(r.solution)
        assert abs(f_check - r.objective_trace.min()) <= 1e-12

    def test_tied_best_objective_returns_latest_iterate(self):
        # A flat objective ties every iterate with the best.
        rec = RecordingOracle(lambda w: (0.0, np.ones(1)))
        r = run_solver(
            rec,
            SolverConfig(
                algorithm="subgradient", max_iters=3, step_size=0.5, grad_tol=0.0, f_tol=0.0,
                initial_point=np.zeros(1),
            ),
        )
        assert len(rec.points) == 3
        assert np.array_equal(r.solution, rec.points[-1])
        assert not np.array_equal(r.solution, rec.points[0])

    def test_bitwise_deterministic_runs(self):
        _, _, smooth = tail_toy()
        cfg = dict(algorithm="lbfgs", max_iters=60, f_tol=0.0, initial_point=np.zeros(5))
        r1 = run_solver(smooth, SolverConfig(**cfg))
        r2 = run_solver(smooth, SolverConfig(**cfg))
        assert np.array_equal(r1.objective_trace, r2.objective_trace)
        assert np.array_equal(r1.solution, r2.solution)

    def test_run_solver_dispatch(self):
        oracle, _, _ = quadratic_oracle(np.eye(2), np.zeros(2))
        for algo in Algorithm:
            r = run_solver(
                oracle,
                SolverConfig(algorithm=algo, max_iters=5, f_tol=0.0, initial_point=np.ones(2)),
            )
            assert len(r.objective_trace) >= 1

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_no_oracle_calls_after_last_iterate(self, algo):
        # An auto step is tuned only when the run goes on past the first iterate.
        oracle, _, _ = quadratic_oracle(np.eye(2), np.zeros(2))
        r = run_solver(
            oracle, SolverConfig(algorithm=algo, max_iters=1, initial_point=np.ones(2))
        )
        assert r.termination is Termination.MAX_ITERS
        assert r.oracle_calls == 1

    @pytest.mark.parametrize(
        "algo", [a for a in Algorithm if a is not Algorithm.LBFGS]
    )
    def test_auto_step_tuning_reuses_first_evaluation(self, algo):
        # f = w^2/2 from x0 = 1: the tuner tries the grid steps 2^k/2 for
        # k = 0, 10, 5, 2, 1 and returns k = 1, so two iterates cost x0, five
        # trials and x1; x0 is not evaluated a second time inside the tuner.
        oracle = lambda w: (0.5 * float(w @ w), w.copy())
        r = run_solver(
            oracle,
            SolverConfig(
                algorithm=algo, max_iters=2, grad_tol=0.0, f_tol=0.0, initial_point=np.ones(1)
            ),
        )
        assert len(r.objective_trace) == 2
        assert r.oracle_calls == 7

    def test_smoothing_consistency_toward_exact_optimum(self):
        ds, exact, _ = tail_toy()
        loss = LinearLeastSquares()
        cap = 1.0 / (200 * 0.1)
        d_max = 0.5 * (20 * (cap - 1 / 200.0) ** 2 + 180 * (1 / 200.0) ** 2)
        ref = run_solver(
            exact,
            SolverConfig(
                algorithm="subgradient", max_iters=60000, grad_tol=0.0, f_tol=0.0,
                initial_point=np.zeros(5),
            ),
        )
        f_star = exact(ref.solution)[0]
        prev = np.inf
        for mu in [1e-1, 1e-2, 1e-3]:
            params = RiskParams(p=0.9, mu=mu)
            r = run_solver(
                lambda w: smoothed_oracle(loss, ds, w, params),
                SolverConfig(
                    algorithm="lbfgs", max_iters=500, grad_tol=1e-9, f_tol=0.0,
                    initial_point=np.zeros(5),
                ),
            )
            f_at_smooth_solution = exact(r.solution)[0]
            assert abs(f_at_smooth_solution - f_star) <= mu * d_max + 1e-3
            assert f_at_smooth_solution <= prev + 1e-9
            prev = f_at_smooth_solution
