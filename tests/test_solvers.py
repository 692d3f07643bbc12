import itertools
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailopt.core import Dataset, EvaluationError, RiskParams
from tailopt.dataio import (
    SyntheticSpec,
    append_intercept,
    generate_low_rank,
    generate_targets,
    resolve_w_bar,
    seed_streams,
)
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
from tailopt.solvers import _LBFGS_MEMORY, _Memory
from tailopt.superquantile import exact_oracle

from helpers import (
    AbsoluteDeviationLoss,
    RecordingOracle,
    quadratic_oracle,
    random_lsq_dataset,
    scan_initial_step,
    two_loop_direction,
)

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
        with pytest.raises(TypeError):
            SolverConfig(step_size=0.1)  # the step is always tuned
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=-1e-3)

    @pytest.mark.parametrize("field", ["grad_tol", "f_tol"])
    def test_nan_tolerance_rejected(self, field):
        # NaN fails every comparison, so it would disable its stopping test.
        with pytest.raises(ValueError, match="nonnegative"):
            SolverConfig(**{field: float("nan")})

    def test_gradient_descent_is_not_an_algorithm(self):
        with pytest.raises(ValueError):
            SolverConfig(algorithm="gradient_descent")
        assert [a.value for a in Algorithm] == ["subgradient", "dual_averaging", "lbfgs"]

    def test_start_point_resolution(self):
        assert np.array_equal(SolverConfig(initial_point=np.zeros(3)).start_point(), np.zeros(3))
        x0 = np.array([1.0, 2.0])
        assert np.array_equal(SolverConfig(initial_point=x0).start_point(), x0)
        with pytest.raises(ValueError):
            SolverConfig().start_point()

    @pytest.mark.parametrize("x0", [1.0, np.zeros((2, 2))])
    def test_start_point_must_be_1d(self, x0):
        with pytest.raises(ValueError, match="initial_point must be 1-D"):
            SolverConfig(initial_point=x0).start_point()

    @pytest.mark.parametrize("algo", ["lbfgs", "subgradient"])
    @pytest.mark.parametrize(
        "M, match",
        [
            (np.eye(2), "shape"),
            (np.eye(3)[:, :2], "shape"),
            (np.ones(3), "shape"),
            (np.diag([1.0, np.nan, 1.0]), "finite"),
            (np.diag([1.0, np.inf, 1.0]), "finite"),
            (np.triu(np.ones((3, 3))), "symmetric"),
        ],
    )
    def test_bad_preconditioner_raises_before_any_call(self, algo, M, match):
        rec = RecordingOracle(lambda w: (float(w @ w), 2.0 * w))
        config = SolverConfig(algorithm=algo, initial_point=np.ones(3), preconditioner=M)
        with pytest.raises(ValueError, match=match):
            run_solver(rec, config)
        assert rec.points == []

    def test_preconditioner_symmetric_to_rounding_is_accepted(self):
        # pinv(..., hermitian=True) returns U diag(1/s) U^T, whose mirror
        # entries can differ in their last bits.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 7))
        M = np.linalg.pinv(X.T @ X / 50, hermitian=True)
        assert not np.array_equal(M, M.T)
        oracle, _, _ = quadratic_oracle(X.T @ X / 50, np.ones(7))
        r = run_solver(oracle, SolverConfig(initial_point=np.zeros(7), preconditioner=M))
        assert r.termination is Termination.GRAD_TOL


class TestTuneInitialStep:
    def test_quadratic_picks_largest_decreasing_grid_point(self):
        # f = w^2/2 from x0 = 1: any step in (0, 2) decreases f; the grid
        # 2^k/(1+1) contains 1.0 and 2.0, and 2.0 gives no strict decrease.
        # The quadratic through the k = 0 trial is f itself and climbs back to
        # f0 at the step 2, so the tuner tries k = 0, 2 and then bisects to 1;
        # 0 and 1 decrease f.
        oracle = RecordingOracle(lambda w: (0.5 * float(w @ w), w.copy()))
        assert tune_initial_step(oracle, np.array([1.0]), 0.5, np.array([1.0])) == 1.0
        assert [float(x[0]) for x in oracle.points] == [0.5, -1.0, 0.0]

    def test_small_steps_are_scanned_when_the_unit_grid_step_fails(self):
        # f = 10 w^2 from x0 = 0.05: g0 = 1, so base = 0.5, and a step decreases
        # f only below 0.1.  The quadratic through the k = 0 trial places that
        # end at 0.1, so the tuner tries k = 0, -3 and -2; k = -3 is the
        # largest that decreases f.
        oracle = RecordingOracle(lambda w: (10.0 * float(w @ w), 20.0 * w))
        x0 = np.array([0.05])
        f0, g0 = 0.025, np.array([1.0])
        assert tune_initial_step(oracle, x0, f0, g0) == 0.5 * 2.0**-3
        assert len(oracle.points) == 3
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

    @pytest.mark.parametrize("seed", range(5))
    def test_benchmark_problem_takes_three_trials(self, seed):
        # The subgradient benchmark's problem at n = 2000: four low-rank
        # features and an intercept, drawn as `tailopt gen-data` draws them,
        # the exact oracle at p = 0.9 from 0.  Bisection takes 6 trials.
        spec = SyntheticSpec(n=2000, d=4, effective_rank=4, seed=seed)
        streams = seed_streams(seed)
        X = generate_low_rank(spec.n, spec.d, spec.effective_rank, streams["train_matrix"])
        y = generate_targets(X, resolve_w_bar(spec, streams["w_bar"]), spec, streams["train_noise"])
        data = append_intercept(Dataset(X, y))
        oracle = lambda w: exact_oracle(LinearLeastSquares(), data, w, 0.9)
        x0 = np.zeros(5)
        f0, g0 = oracle(x0)
        rec = RecordingOracle(oracle)
        assert tune_initial_step(rec, x0, f0, g0) == scan_initial_step(oracle, x0, f0, g0)
        assert len(rec.points) == 3

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), min_size=8, max_size=8), f0=st.floats(-1e3, 1e3))
    @example(values=[0.0] * 8, f0=1.0)
    def test_any_trial_values_take_at_most_eight_trials(self, values, f0):
        # An oracle that returns arbitrary values, NaN and infinities among
        # them, in turn: whatever the model proposes, the halving rule ends the
        # search within 8 trials, and no arithmetic on the values warns.  On
        # the explicit example every model trial lands one exponent above
        # lo, so without the rule the search would climb to k = 20.
        trials = itertools.cycle(values)
        rec = RecordingOracle(lambda w: (next(trials), np.ones(1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", TuneStepWarning)
            step = tune_initial_step(rec, np.zeros(1), f0, np.ones(1))
        assert len(rec.points) <= 8
        assert step in [0.5 * 2.0**k for k in range(-20, 21)]

    def test_constant_objective_warns_and_falls_back(self):
        # The trials k = 0, -11, -16, -19 and -20 all fail.
        oracle = RecordingOracle(lambda w: (1.0, np.ones(1)))
        with pytest.warns(TuneStepWarning):
            step = tune_initial_step(oracle, np.zeros(1), 1.0, np.ones(1))
        assert step == pytest.approx(0.5 * 2.0**-20)
        assert len(oracle.points) == 5

    def test_trial_that_raises_does_not_decrease(self):
        # The quadratic case above with an oracle that raises past |w| > 0.75:
        # the model's trial k = 2 lands on -1 and raises, so the tuner bisects
        # to k = 1 and still returns 1.0.
        calls = []

        def oracle(w):
            calls.append(float(w[0]))
            if abs(w[0]) > 0.75:
                raise EvaluationError("no value past 0.75")
            return 0.5 * float(w @ w), w.copy()

        assert tune_initial_step(oracle, np.array([1.0]), 0.5, np.array([1.0])) == 1.0
        assert calls == [0.5, -1.0, 0.0]

    def test_every_trial_raising_raises_the_last_error(self):
        calls = []

        def oracle(w):
            calls.append(float(w[0]))
            raise EvaluationError(f"no value at trial {len(calls)}")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="no value at trial 5$"):
                tune_initial_step(oracle, np.zeros(1), 1.0, np.ones(1))
        assert len(calls) == 5

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
            f_tol=0.0,
            initial_point=np.array([1.0]),
        )
        with pytest.raises(EvaluationError) as err:
            run_solver(oracle, cfg)
        assert len(err.value.objective_trace) >= 1


class TestOracleErrorsCarryTheTrace:
    """An EvaluationError that the oracle raises leaves the driver with the
    objectives recorded before it, as the driver's own non-finite check does."""

    def test_at_the_first_iterate(self):
        # A 1e200 target overflows the squared loss at the start w = 0.
        ds = Dataset(np.ones((3, 1)), [1.0, 2.0, 1e200])
        oracle = lambda w: exact_oracle(LinearLeastSquares(), ds, w, 0.5)
        for algo in Algorithm:
            with pytest.raises(EvaluationError, match="non-finite loss value at sample 2") as err:
                run_solver(oracle, SolverConfig(algorithm=algo, initial_point=np.zeros(1)))
            assert list(err.value.objective_trace) == []

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_at_a_later_point(self, algo):
        # f = w^2/2 from w = 4: the oracle fails once |w| < 1, at an
        # iterate or, for L-BFGS, at every trial of its third search.
        def oracle(w):
            if abs(w[0]) < 1.0:
                raise EvaluationError("no value below 1")
            return 0.5 * float(w @ w), w.copy()

        with pytest.raises(EvaluationError, match="no value below 1") as err:
            run_solver(
                oracle,
                SolverConfig(algorithm=algo, f_tol=0.0, initial_point=np.full(1, 4.0)),
            )
        assert len(err.value.objective_trace) >= 1
        assert err.value.objective_trace[0] == 8.0


class TestTrialsThatFailToEvaluate:
    """An EvaluationError at a tuning or line-search trial rejects that trial;
    only a search whose every trial raises ends the run with it."""

    @staticmethod
    def bounded_oracle(w):
        # f = 5 w^2, with an oracle that raises past |w| > 1.5.  From w = 1,
        # L-BFGS's unit trial lands on -9.  The tuner's k = 0 and 1 trials
        # decrease f, and its bisecting trials at k = 11, 6, 3 and 2 land
        # past -2.5.
        if abs(w[0]) > 1.5:
            raise EvaluationError("no value past 1.5")
        return 5.0 * float(w @ w), 10.0 * w

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_run_goes_on_past_a_trial_that_raises(self, algo):
        r = run_solver(
            self.bounded_oracle,
            SolverConfig(algorithm=algo, max_iters=50, initial_point=np.ones(1)),
        )
        assert r.termination is not Termination.LINE_SEARCH_FAILURE
        assert r.objective_trace.min() < 1e-2

    def test_lbfgs_shortens_the_step_until_a_trial_evaluates(self):
        # Trials at -9 and -4 raise and halve t; -1.5 evaluates and is
        # rejected, and the interpolated t = 0.1 reaches the minimum 0.
        rec = RecordingOracle(self.bounded_oracle)
        calls = []

        def counted(w):
            calls.append(float(w[0]))
            return rec(w)

        r = run_solver(counted, SolverConfig(algorithm="lbfgs", initial_point=np.ones(1)))
        assert calls == pytest.approx([1.0, -9.0, -4.0, -1.5, 0.0])
        assert [float(x[0]) for x in rec.points] == pytest.approx([1.0, -1.5, 0.0])
        assert r.termination is Termination.GRAD_TOL

    def test_search_whose_every_trial_raises_ends_the_run_with_the_last_error(self):
        calls = []

        def oracle(w):
            calls.append(float(w[0]))
            if len(calls) > 1:
                raise EvaluationError(f"no value at call {len(calls)}")
            return 0.5 * float(w @ w), w.copy()

        with pytest.raises(EvaluationError, match="no value at call 52$") as err:
            run_solver(oracle, SolverConfig(algorithm="lbfgs", initial_point=np.ones(1)))
        assert len(calls) == 1 + 51
        assert list(err.value.objective_trace) == [0.5]


class TestOverflowingGradient:
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_overflowing_gradient_norm_raises_without_warning(self, algo):
        # Features near 1e160 give a finite gradient at w = 0 whose norm
        # overflows; no method can step along it.
        rng = np.random.default_rng(0)
        X = np.hstack([1e160 * rng.standard_normal((30, 3)), np.ones((30, 1))])
        ds = Dataset(X, rng.standard_normal(30))
        params = RiskParams(p=0.9, mu=1000.0)
        oracle = lambda w: smoothed_oracle(LinearLeastSquares(), ds, w, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="non-finite oracle output at iteration 0"):
                run_solver(oracle, SolverConfig(algorithm=algo, initial_point=np.zeros(4)))


class TestDualAveraging:
    def test_constant_gradient_closed_form(self):
        g_const = np.array([3.0, 4.0])
        linear = lambda w: (float(g_const @ w), g_const.copy())
        trials = RecordingOracle(linear)
        step = tune_initial_step(trials, np.zeros(2), 0.0, g_const)
        oracle = RecordingOracle(linear)
        cfg = SolverConfig(
            algorithm="dual_averaging",
            max_iters=6,
            grad_tol=0.0,
            f_tol=0.0,
            initial_point=np.zeros(2),
        )
        r = run_solver(oracle, cfg)
        assert len(r.objective_trace) == 6
        # x0, the tuner's trials (x1 among them, not evaluated again), x2..x5.
        assert len(oracle.points) == 1 + len(trials.points) + 4
        points = iterate_points(r, oracle)
        ghat = g_const / np.linalg.norm(g_const)
        a = 1.0 / (step * np.linalg.norm(g_const))
        assert np.array_equal(points[1], -step * g_const)
        for k in range(1, 6):
            # s_k = k * ghat, so the iterate sits sqrt(k)/a along -ghat.
            expect = -(k / (a * np.sqrt(k))) * ghat
            assert np.allclose(points[k], expect, rtol=1e-14, atol=0.0)

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
    """L-BFGS's gradient steps: with empty memory, at the first iterate and on
    the retry after a failed quasi-Newton search, it searches along -g from
    the unit trial step."""

    def test_zero_gradient_start(self):
        oracle, _, _ = quadratic_oracle(np.eye(2), np.zeros(2))
        r = run_solver(
            oracle, SolverConfig(
                algorithm="lbfgs", max_iters=10,
                initial_point=np.zeros(2),
            )
        )
        assert r.termination is Termination.GRAD_TOL
        assert len(r.objective_trace) == 1

    def test_accepted_trial_is_not_evaluated_again(self):
        # f = |w|^2/2: the unit step along -g lands on the minimizer in one
        # trial; every oracle call is then a recorded iterate.
        oracle, _, _ = quadratic_oracle(np.eye(2), np.zeros(2))
        cfg = SolverConfig(
            algorithm="lbfgs",
            max_iters=10,
            initial_point=np.array([3.0, -4.0]),
        )
        r = run_solver(oracle, cfg)
        assert r.termination is Termination.GRAD_TOL
        assert r.oracle_calls == len(r.objective_trace) == 2

    def test_line_search_failure_on_adversarial_oracle(self):
        # f = w^2/2 for w > 0 and |w| below, with the gradient reported as 1
        # at w <= 0.  The unit step from 2 lands on 0 and stores the pair
        # s = -2, y = -1, so the quasi-Newton direction there is -2.  Every
        # trial along it, and then along -g, raises f: both searches give up
        # after their 51 trials.
        def oracle(w):
            x = float(w[0])
            return (0.5 * x * x, np.array([x])) if x > 0.0 else (abs(x), np.array([1.0]))

        rec = RecordingOracle(oracle)
        cfg = SolverConfig(
            algorithm="lbfgs",
            max_iters=10,
            grad_tol=0.0,
            f_tol=0.0,
            initial_point=np.array([2.0]),
        )
        r = run_solver(rec, cfg)
        assert r.termination is Termination.LINE_SEARCH_FAILURE
        assert r.oracle_calls == 2 + 51 + 51
        assert [float(rec.points[k][0]) for k in (1, 2, 53)] == [0.0, -2.0, -1.0]
        assert list(r.objective_trace) == [2.0, 0.0]

    def test_f_tol_stall_detection(self):
        # f = 1e-9 w: each unit step along -g gains 1e-18, far below f_tol,
        # and the zero curvature pairs are discarded.
        oracle = lambda w: (1e-9 * float(w[0]), np.array([1e-9]))
        cfg = SolverConfig(
            algorithm="lbfgs",
            max_iters=1000,
            grad_tol=0.0,
            f_tol=1e-6,
            initial_point=np.array([1.0]),
        )
        r = run_solver(oracle, cfg)
        assert r.termination is Termination.F_TOL
        assert len(r.objective_trace) == 11  # detected right after the window fills


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

    def test_direction_that_is_not_descent_falls_back_to_minus_g(self):
        # From x = 0 (g = -1e-155) the first step accepts x = 1e-155, where
        # g = 1.4e-154.  The pair's s @ y ~ 1.5e-309 makes 1 / (s @ y)
        # overflow, and the two-loop direction comes out NaN: the memory is
        # cleared and the step taken along -g, with no trial at a NaN point.
        rec = RecordingOracle(
            lambda w: (0.0, np.array([-1e-155])) if w[0] == 0.0
            else (-1.0 - float(w[0]), np.array([1.4e-154]))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run_solver(
                rec,
                SolverConfig(
                    algorithm="lbfgs", max_iters=3, grad_tol=0.0, f_tol=0.0,
                    initial_point=np.zeros(1),
                ),
            )
        assert [float(x[0]) for x in rec.points] == [0.0, 1e-155, 1e-155 - 1.4e-154]
        assert r.termination is Termination.MAX_ITERS

    def test_underflowing_curvature_pair_falls_back_to_minus_g(self):
        # y = 1e-163: y @ y underflows to 0, so the two-loop scale
        # (s @ y) / (y @ y) is inf, not a division error, and the step
        # falls back to -g.
        g1 = -1e-150 + 1e-163
        rec = RecordingOracle(
            lambda w: (0.0, np.array([-1e-150])) if w[0] == 0.0
            else (-1.0 - float(w[0]), np.array([g1]))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_solver(
                rec,
                SolverConfig(
                    algorithm="lbfgs", max_iters=3, grad_tol=0.0, f_tol=0.0,
                    initial_point=np.zeros(1),
                ),
            )
        assert [float(x[0]) for x in rec.points] == [0.0, 1e-150, 1e-150 - g1]

    def test_overflowing_slope_falls_back_to_minus_g_without_a_trial(self, monkeypatch):
        # f = |w|^2/4 from (8, 8): the unit step along -g lands on (4, 4) and
        # stores a pair.  There the memory gives a finite direction whose
        # slope g @ d overflows to -inf, so every Armijo bound would be -inf;
        # the step goes along -g at once, to (2, 2), in one call.
        directions = []

        def overflowing(self, g):
            directions.append(np.full(g.size, -1.7e308))
            return directions[-1]

        def oracle(w):
            with np.errstate(over="ignore"):  # trials along d overflow
                return 0.25 * float(w @ w), 0.5 * w

        monkeypatch.setattr(_Memory, "direction", overflowing)
        rec = RecordingOracle(oracle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run_solver(
                rec,
                SolverConfig(
                    algorithm="lbfgs", max_iters=3, grad_tol=0.0, f_tol=0.0,
                    initial_point=np.full(2, 8.0),
                ),
            )
        assert len(directions) == 1 and np.isfinite(directions[0]).all()
        assert r.oracle_calls == 3
        assert [list(x) for x in rec.points] == [[8.0, 8.0], [4.0, 4.0], [2.0, 2.0]]
        assert r.termination is Termination.MAX_ITERS

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
            assert (np.diff(r.objective_trace) <= 0.0).all()
            calls += r.oracle_calls
        assert calls <= 4000

    def test_identity_preconditioner_reproduces_the_plain_run(self):
        # With M = I every product M v is v exactly, so each iterate is
        # bit-identical to the run without a preconditioner.
        _, _, smooth = tail_toy()
        runs = [
            run_solver(smooth, SolverConfig(
                max_iters=200, grad_tol=1e-10, f_tol=0.0, initial_point=np.zeros(5),
                preconditioner=M,
            ))
            for M in (None, np.eye(5))
        ]
        assert runs[0].oracle_calls == runs[1].oracle_calls > 20
        assert np.array_equal(runs[0].objective_trace, runs[1].objective_trace)
        assert np.array_equal(runs[0].solution, runs[1].solution)
        assert runs[0].termination is runs[1].termination

    @pytest.mark.parametrize(
        "M, x0", [(-np.eye(3), [1.0, 1.0, 1.0]), (np.diag([1.0, -1.0, 1.0]), [0.0, 1.0, 0.5])]
    )
    def test_ascent_preconditioner_fails_without_a_trial(self, M, x0):
        # With M not positive semidefinite, -M g can point uphill; a positive
        # slope -g @ M g ends the run before any search along it.
        rec = RecordingOracle(lambda w: (float(w @ w), 2.0 * w))
        r = run_solver(rec, SolverConfig(initial_point=np.array(x0), preconditioner=M))
        assert r.termination is Termination.LINE_SEARCH_FAILURE
        assert r.oracle_calls == 1

    def test_gradient_in_the_preconditioners_null_space_makes_no_progress(self):
        # A singular M with M g = 0 gives the zero direction and slope -0.0:
        # the unit trial is x itself.
        rec = RecordingOracle(lambda w: (float(w @ w), 2.0 * w))
        M = np.diag([0.0, 1.0, 1.0])
        r = run_solver(rec, SolverConfig(initial_point=np.array([1.0, 0.0, 0.0]), preconditioner=M))
        assert r.termination is Termination.NO_PROGRESS
        assert r.oracle_calls == 2

    def test_inverse_hessian_preconditioner_takes_the_newton_step(self):
        # On f = 0.5 w A w - b w with M = A^-1 the first step -M g is the
        # Newton step, and its unit trial lands on the minimiser.
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        A = (Q * 10.0 ** np.linspace(-3, 3, 6)) @ Q.T
        A = 0.5 * (A + A.T)
        oracle, w_star, _ = quadratic_oracle(A, rng.standard_normal(6))
        rec = RecordingOracle(oracle)
        r = run_solver(rec, SolverConfig(
            max_iters=50, grad_tol=1e-6, f_tol=0.0, initial_point=np.zeros(6),
            preconditioner=np.linalg.inv(A),
        ))
        assert r.termination is Termination.GRAD_TOL
        assert r.oracle_calls == 2
        np.testing.assert_allclose(rec.points[1], w_star, rtol=1e-8)

    def test_inverse_gram_preconditioner_cuts_calls_on_low_rank_features(self):
        # Low-rank features with an intercept column: most of the curvature
        # lies in X^T X / n, so starting from its pseudo-inverse saves most
        # of the calls (808 -> 299 here) and ends at the same objective.
        loss = LinearLeastSquares()
        plain = preconditioned = 0
        for seed in range(5):
            spec = SyntheticSpec(n=300, d=10, effective_rank=5, seed=seed)
            X = generate_low_rank(spec.n, spec.d, spec.effective_rank, seed)
            y = generate_targets(X, resolve_w_bar(spec, seed + 1), spec, seed=seed + 2)
            ds = append_intercept(Dataset(X, y))
            M = np.linalg.pinv(ds.features.T @ ds.features / ds.n, hermitian=True)
            for penalty, mu in (("euclidean", 1000.0), ("entropic", 1.0)):
                params = RiskParams(p=0.9, mu=mu, penalty=penalty)
                plain_run, run = (
                    run_solver(
                        lambda w: smoothed_oracle(loss, ds, w, params),
                        SolverConfig(max_iters=500, initial_point=np.zeros(11), preconditioner=P),
                    )
                    for P in (None, M)
                )
                assert run.termination is not Termination.LINE_SEARCH_FAILURE
                best, plain_best = run.objective_trace.min(), plain_run.objective_trace.min()
                assert best <= plain_best + 1e-12 * plain_best
                plain += plain_run.oracle_calls
                preconditioned += run.oracle_calls
        assert preconditioned <= plain / 2


def curvature_pairs(rng, d: int, count: int):
    """``count`` pairs (s, y = A s) for one SPD A with eigenvalues in
    [1e-3, 1e3], and steps s of norms spread over six decades."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = (Q * 10.0 ** rng.uniform(-3, 3, d)) @ Q.T
    for _ in range(count):
        s = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
        yield s, A @ s


class TestLbfgsMemory:
    @settings(max_examples=100, deadline=None)
    @given(
        d=st.sampled_from([1, 5, 41]),
        pairs=st.integers(1, 150),
        cleared_after=st.integers(0, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=1, pairs=150, cleared_after=150, seed=0)
    @example(d=5, pairs=150, cleared_after=150, seed=1)
    @example(d=41, pairs=150, cleared_after=150, seed=2)
    @example(d=41, pairs=150, cleared_after=120, seed=3)
    def test_direction_matches_two_loop(self, d, pairs, cleared_after, seed):
        # Past 100 pairs the oldest are dropped; a clear, as on L-BFGS's
        # fallback to -g, empties both memories, and at least one pair follows.
        rng = np.random.default_rng(seed)
        memory, reference = _Memory(d), deque(maxlen=_LBFGS_MEMORY)
        for i, (s, y) in enumerate(curvature_pairs(rng, d, pairs)):
            if i == cleared_after:
                memory.clear()
                reference.clear()
            sy = float(s @ y)
            memory.append(s, y, sy)
            reference.append((s, y, 1.0 / sy))
        assert len(memory) == len(reference)
        g = rng.standard_normal(d)
        expected = two_loop_direction(g, reference)
        assert np.linalg.norm(memory.direction(g) - expected) <= 1e-10 * np.linalg.norm(expected)

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.sampled_from([1, 5, 41]),
        pairs=st.integers(1, 150),
        cleared_after=st.integers(0, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=41, pairs=150, cleared_after=150, seed=0)
    @example(d=41, pairs=150, cleared_after=120, seed=1)
    def test_preconditioned_direction_matches_two_loop_in_whitened_coordinates(
        self, d, pairs, cleared_after, seed
    ):
        # With M = P P^T, L-BFGS from H0 = gamma M is plain L-BFGS in the
        # coordinates v = P^-1 w: there s_v = P^-1 s, y_v = P^T y and
        # g_v = P^T g, and a direction d_v maps back to P d_v.
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        P = Q * 10.0 ** rng.uniform(-1, 1, d)
        M = P @ P.T
        memory, reference = _Memory(d, M), deque(maxlen=_LBFGS_MEMORY)
        for i, (s, y) in enumerate(curvature_pairs(rng, d, pairs)):
            if i == cleared_after:
                memory.clear()
                reference.clear()
            sy = float(s @ y)
            memory.append(s, y, sy)
            reference.append((np.linalg.solve(P, s), P.T @ y, 1.0 / sy))
        assert len(memory) == len(reference)
        g = rng.standard_normal(d)
        expected = P @ two_loop_direction(P.T @ g, reference)
        assert np.linalg.norm(memory.direction(g) - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_holds_the_newest_pairs_in_fixed_arrays(self):
        d = 5
        memory = _Memory(d)
        arrays = {name: (a, a.shape) for name, a in vars(memory).items() if isinstance(a, np.ndarray)}
        S, Y = map(np.array, zip(*curvature_pairs(np.random.default_rng(0), d, 150)))
        for s, y in zip(S, Y):
            memory.append(s, y, float(s @ y))
        k = _LBFGS_MEMORY
        assert len(memory) == k == 100
        S, Y = S[-k:], Y[-k:]
        assert np.array_equal(memory.S, S) and np.array_equal(memory.Y, Y)
        assert np.array_equal(memory.D, [s @ y for s, y in zip(S, Y)])
        np.testing.assert_allclose(memory.YY, Y @ Y.T, rtol=1e-12)
        R = np.triu(S @ Y.T)
        np.testing.assert_allclose(memory.Rinv @ R, np.eye(k), atol=1e-9)
        assert {name: (a, a.shape) for name, a in vars(memory).items() if isinstance(a, np.ndarray)} == arrays


def ray_oracle(value_at):
    """Recorded 1-D oracle with value ``value_at(w)`` and gradient -1 everywhere.

    From x = 0, L-BFGS's first search runs along d = -g = +1 with slope -1, so
    each trial point equals its trial step.
    """
    return RecordingOracle(lambda w: (value_at(float(w[0])), np.array([-1.0])))


def descend_once(oracle):
    """L-BFGS's first step from x = 0: a gradient step from trial step 1."""
    run_solver(
        oracle,
        SolverConfig(
            algorithm="lbfgs", max_iters=2, grad_tol=0.0, f_tol=0.0, initial_point=np.zeros(1)
        ),
    )


class TestLineSearch:
    @pytest.mark.parametrize("algo", ["lbfgs"])
    def test_quadratic_accepts_the_interpolated_minimiser(self, algo):
        # f = 2 x^2 from x = 1: the unit step along -g = -4 lands on -3 and is
        # rejected; the quadratic through f(0) = 2, slope -16 and f(1) = 18 is
        # f itself, so the second trial is its minimiser t = 1/4, x = 0.
        rec = RecordingOracle(lambda w: (2.0 * float(w @ w), 4.0 * w))
        r = run_solver(
            rec, SolverConfig(algorithm=algo, max_iters=10, initial_point=np.array([1.0]))
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

    @pytest.mark.parametrize("algo", ["lbfgs"])
    def test_step_that_leaves_x_unchanged_stops_the_run(self, algo):
        # At x = 1 the step 1e-20 rounds away, so the accepted trial is x again.
        rec = RecordingOracle(lambda w: (1.0 + 1e-20 * float(w[0]), np.array([1e-20])))
        r = run_solver(
            rec,
            SolverConfig(
                algorithm=algo, max_iters=50, grad_tol=0.0, f_tol=0.0,
                initial_point=np.array([1.0]),
            ),
        )
        assert r.termination is Termination.NO_PROGRESS
        assert r.oracle_calls == 2
        assert list(r.objective_trace) == [1.0]
        assert np.array_equal(r.solution, [1.0])

    @pytest.mark.parametrize("algo", ["lbfgs"])
    def test_step_that_moves_x_but_ties_f_goes_on(self, algo):
        # At x = 0 the same step moves x while f stays 1.0 to the last bit.
        rec = RecordingOracle(lambda w: (1.0 + 1e-20 * float(w[0]), np.array([1e-20])))
        r = run_solver(
            rec,
            SolverConfig(
                algorithm=algo, max_iters=5, grad_tol=0.0, f_tol=0.0,
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
        # A flat objective ties every iterate with the best.  No trial step
        # decreases it, so the tuner warns, and its smallest grid step,
        # which no trial evaluated, costs one more call.
        flat = lambda w: (0.0, np.ones(1))
        trials = RecordingOracle(flat)
        with pytest.warns(TuneStepWarning):
            tune_initial_step(trials, np.zeros(1), 0.0, np.ones(1))
        rec = RecordingOracle(flat)
        with pytest.warns(TuneStepWarning):
            r = run_solver(
                rec,
                SolverConfig(
                    algorithm="subgradient", max_iters=3, grad_tol=0.0, f_tol=0.0,
                    initial_point=np.zeros(1),
                ),
            )
        assert len(rec.points) == 1 + len(trials.points) + 2
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
        # k = 0, 2, 1 and returns k = 1, so two iterates cost x0 and three
        # trials; x0 is not evaluated a second time inside the tuner, and x1
        # is the k = 1 trial, not evaluated again.
        oracle = lambda w: (0.5 * float(w @ w), w.copy())
        r = run_solver(
            oracle,
            SolverConfig(
                algorithm=algo, max_iters=2, grad_tol=0.0, f_tol=0.0, initial_point=np.ones(1)
            ),
        )
        assert len(r.objective_trace) == 2
        assert r.oracle_calls == 4

    @pytest.mark.parametrize("algo", [Algorithm.SUBGRADIENT, Algorithm.DUAL_AVERAGING])
    def test_tuned_step_is_the_first_move(self, algo):
        _, exact, _ = tail_toy()
        x0 = np.zeros(5)
        f0, g0 = exact(x0)
        step = tune_initial_step(exact, x0, f0, g0)
        rec = RecordingOracle(exact)
        r = run_solver(
            rec,
            SolverConfig(
                algorithm=algo, max_iters=2, grad_tol=0.0, f_tol=0.0, initial_point=x0
            ),
        )
        assert r.objective_trace[0] == f0
        assert np.array_equal(iterate_points(r, rec)[1], x0 - step * g0)

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
