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
    nesterov_alpha_next,
    run_solver,
    tune_initial_step,
)
from tailopt.superquantile import exact_oracle

from helpers import AbsoluteDeviationLoss, RecordingOracle, quadratic_oracle, random_lsq_dataset

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


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
        assert np.array_equal(SolverConfig(dim=3).start_point(), np.zeros(3))
        x0 = np.array([1.0, 2.0])
        assert np.array_equal(SolverConfig(initial_point=x0).start_point(), x0)
        with pytest.raises(ValueError):
            SolverConfig().start_point()


class TestTuneInitialStep:
    def test_quadratic_picks_largest_decreasing_grid_point(self):
        # f = w^2/2 from x0 = 1: any step in (0, 2) decreases f; the grid
        # 2^k/(1+1) contains 1.0 and 2.0, and 2.0 gives no strict decrease.
        oracle = lambda w: (0.5 * float(w @ w), w.copy())
        assert tune_initial_step(oracle, np.array([1.0])) == 1.0

    def test_constant_objective_warns_and_falls_back(self):
        oracle = lambda w: (1.0, np.ones(1))
        with pytest.warns(TuneStepWarning):
            step = tune_initial_step(oracle, np.zeros(1))
        assert step == pytest.approx(0.5 * 2.0**-20)

    def test_deterministic(self):
        ds, _, smooth = tail_toy()
        x0 = np.ones(5)
        assert tune_initial_step(smooth, x0) == tune_initial_step(smooth, x0)


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
            SolverConfig(algorithm="lbfgs", max_iters=300, grad_tol=1e-10, f_tol=0.0, dim=5),
        )
        f_ref = exact(ref.solution)[0]
        r = run_solver(
            exact,
            SolverConfig(
                algorithm="subgradient", max_iters=30000, grad_tol=0.0, f_tol=0.0, dim=5
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
            SolverConfig(algorithm="dual_averaging", max_iters=10, grad_tol=0.0, dim=1),
        )
        assert r.termination is Termination.GRAD_TOL

    def test_agrees_with_lbfgs_reference(self):
        ds, exact, _ = tail_toy(mu=1e-4)
        loss = LinearLeastSquares()
        params = RiskParams(p=0.9, mu=1e-4)
        ref = run_solver(
            lambda w: smoothed_oracle(loss, ds, w, params),
            SolverConfig(algorithm="lbfgs", max_iters=300, grad_tol=1e-10, f_tol=0.0, dim=5),
        )
        f_ref = exact(ref.solution)[0]
        r = run_solver(
            exact,
            SolverConfig(
                algorithm="dual_averaging", max_iters=40000, grad_tol=0.0, f_tol=0.0, dim=5
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
            oracle, SolverConfig(algorithm="gradient_descent", max_iters=10, dim=2)
        )
        assert r.termination is Termination.GRAD_TOL
        assert len(r.objective_trace) == 1

    def test_monotone_trace_and_lbfgs_agreement(self):
        ds, exact, smooth = tail_toy()
        gd = run_solver(
            smooth,
            SolverConfig(
                algorithm="gradient_descent", max_iters=4000, grad_tol=1e-9, f_tol=0.0, dim=5
            ),
        )
        diffs = np.diff(gd.objective_trace)
        assert (diffs <= 1e-14).all()
        ref = run_solver(
            smooth, SolverConfig(algorithm="lbfgs", max_iters=500, grad_tol=1e-8, f_tol=0.0, dim=5)
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
        # The reported gradient points away from descent: no halving helps.
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
                dim=d,
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
                dim=d,
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
            smooth, SolverConfig(algorithm="lbfgs", max_iters=500, grad_tol=1e-8, f_tol=0.0, dim=5)
        )
        assert r.termination is Termination.GRAD_TOL
        # The Armijo trace strictly decreases, so the solution is the last iterate.
        assert (np.diff(r.objective_trace) < 0.0).all()
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
            SolverConfig(algorithm="lbfgs", max_iters=300, grad_tol=1e-8, f_tol=0.0, dim=11),
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
            r = run_solver(rec, SolverConfig(algorithm=algo, max_iters=budget, f_tol=0.0, dim=5))
            assert 1 <= len(r.objective_trace) <= budget
            assert r.oracle_calls == len(rec.points)
            iterates = iterate_points(r, rec)
            best_idx = int(np.argmin(r.objective_trace))
            assert np.array_equal(r.solution, iterates[best_idx])
            assert r.oracle_calls >= len(r.objective_trace)

    def test_solution_is_argmin_of_trace(self):
        _, _, smooth = tail_toy()
        rec = RecordingOracle(smooth)
        r = run_solver(rec, SolverConfig(algorithm="lbfgs", max_iters=40, f_tol=0.0, dim=5))
        best_idx = int(np.argmin(r.objective_trace))
        assert np.array_equal(r.solution, iterate_points(r, rec)[best_idx])
        f_check, _ = smooth(r.solution)
        assert abs(f_check - r.objective_trace.min()) <= 1e-12

    def test_bitwise_deterministic_runs(self):
        _, _, smooth = tail_toy()
        cfg = dict(algorithm="lbfgs", max_iters=60, f_tol=0.0, dim=5)
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

    def test_smoothing_consistency_toward_exact_optimum(self):
        ds, exact, _ = tail_toy()
        loss = LinearLeastSquares()
        cap = 1.0 / (200 * 0.1)
        d_max = 0.5 * (20 * (cap - 1 / 200.0) ** 2 + 180 * (1 / 200.0) ** 2)
        ref = run_solver(
            exact,
            SolverConfig(algorithm="subgradient", max_iters=60000, grad_tol=0.0, f_tol=0.0, dim=5),
        )
        f_star = exact(ref.solution)[0]
        prev = np.inf
        for mu in [1e-1, 1e-2, 1e-3]:
            params = RiskParams(p=0.9, mu=mu)
            r = run_solver(
                lambda w: smoothed_oracle(loss, ds, w, params),
                SolverConfig(algorithm="lbfgs", max_iters=500, grad_tol=1e-9, f_tol=0.0, dim=5),
            )
            f_at_smooth_solution = exact(r.solution)[0]
            assert abs(f_at_smooth_solution - f_star) <= mu * d_max + 1e-3
            assert f_at_smooth_solution <= prev + 1e-9
            prev = f_at_smooth_solution
