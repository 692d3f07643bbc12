"""Batch first-order solvers: one driver loop over per-method step generators.

:func:`run_solver` takes an oracle closure ``w -> (value, gradient)`` and a
:class:`SolverConfig`, and runs the method named by ``config.algorithm``:
the subgradient and dual-averaging methods, meant for the exact nonsmooth
oracle, which take their base step from :func:`tune_initial_step` at the
first iterate, or L-BFGS, meant for the smoothed one, which keeps its newest
100 curvature pairs in compact form.  L-BFGS starts from the initial inverse
Hessian gamma M for an optional preconditioner M in the config; the CLI
passes the pseudo-inverse of the features' Gram matrix X^T X / n, where most
of a margin loss's curvature lies.  Each method is a step generator
``(oracle, x0, config)`` that yields its evaluated iterates ``(x, f, g)``
one at a time, starting with ``x0``; it only decides where to evaluate
next.  A generator that returns ends the run with the
:class:`Termination` it returns: L-BFGS returns when its line search fails,
or when it accepts a step that leaves x unchanged.  The driver alone counts
oracle calls, checks that each yielded value and gradient are finite,
records the objective trace and runs the stopping tests.  Because a
generator is only resumed when the run goes on, no method spends oracle
calls after an iterate that passes one of these tests.

The returned solution is the evaluated iterate with the lowest recorded
objective (the subgradient and dual-averaging methods are not descent
methods, so last-iterate would be wrong); among tied iterates it is the
latest, so a run that stops on the gradient test at a value tied with the
best returns the iterate whose gradient passed.

The driver's stopping tests run after each recorded iterate in the order:
gradient norm, best-objective stall, then the iteration budget.  Since
``grad_tol >= 0``, an exactly zero gradient always stops the run.  The stall
test compares the running best objective against its value ten recorded
iterations earlier, and ``f_tol = 0`` disables it.  It runs only for the
descent method, L-BFGS: the iterates of the other two oscillate, so their
best objective can stay flat for ten iterations while they still approach
the minimum.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generator

import numpy as np

from .core import EvaluationError

__all__ = [
    "Algorithm",
    "SolverConfig",
    "SolverResult",
    "Termination",
    "TuneStepWarning",
    "run_solver",
    "tune_initial_step",
]

Oracle = Callable[[np.ndarray], tuple[float, np.ndarray]]
Steps = Generator[tuple[np.ndarray, float, np.ndarray], None, "Termination"]

_STALL_WINDOW = 10
_ARMIJO_C = 1e-4
_MAX_TRIALS = 51
_LBFGS_MEMORY = 100


class Algorithm(str, Enum):
    SUBGRADIENT = "subgradient"
    DUAL_AVERAGING = "dual_averaging"
    LBFGS = "lbfgs"


class Termination(str, Enum):
    MAX_ITERS = "max_iters"
    GRAD_TOL = "grad_tol"
    F_TOL = "f_tol"
    LINE_SEARCH_FAILURE = "line_search_failure"
    NO_PROGRESS = "no_progress"


class TuneStepWarning(UserWarning):
    """No trial step decreased the objective; the smallest grid step was returned."""


@dataclass
class SolverConfig:
    """Shared solver settings.

    ``f_tol`` is the stall tolerance of L-BFGS; the other two methods ignore
    it.  The subgradient and dual-averaging methods take their base step from
    :func:`tune_initial_step` at the first iterate, so no field sets it.  The
    starting point ``initial_point`` must be given before a run.
    ``preconditioner`` is an optional symmetric positive semidefinite d-by-d
    array M: L-BFGS then starts from the initial inverse Hessian gamma M in
    place of gamma I.  The other two methods ignore it.
    """

    algorithm: Algorithm = Algorithm.LBFGS
    max_iters: int = 1000
    grad_tol: float = 1e-8
    f_tol: float = 1e-10
    initial_point: np.ndarray | None = None
    preconditioner: np.ndarray | None = None

    def __post_init__(self):
        self.algorithm = Algorithm(self.algorithm)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.grad_tol >= 0.0 and self.f_tol >= 0.0):
            raise ValueError("grad_tol and f_tol must be nonnegative")

    def start_point(self) -> np.ndarray:
        if self.initial_point is None:
            raise ValueError("provide initial_point in SolverConfig")
        x0 = np.asarray(self.initial_point, dtype=float)
        if x0.ndim != 1:
            raise ValueError(f"initial_point must be 1-D, got shape {x0.shape}")
        return x0.copy()

    def check_preconditioner(self, d: int) -> None:
        """Raise ``ValueError`` unless ``preconditioner`` is None or a finite
        d-by-d array, symmetric to rounding (as ``np.linalg.pinv`` returns)."""
        if self.preconditioner is None:
            return
        M = np.asarray(self.preconditioner, dtype=float)
        if M.shape != (d, d):
            raise ValueError(f"preconditioner must have shape ({d}, {d}), got {M.shape}")
        if not np.isfinite(M).all():
            raise ValueError("preconditioner must be finite")
        if np.abs(M - M.T).max() > 1e-10 * np.abs(M).max():
            raise ValueError("preconditioner must be symmetric")


@dataclass
class SolverResult:
    """Outcome of one solver run; ``solution`` is the last minimizer of ``objective_trace``."""

    solution: np.ndarray
    objective_trace: np.ndarray
    termination: Termination
    oracle_calls: int


def tune_initial_step(oracle: Oracle, x0, f0: float, g0) -> float:
    """Largest step on a geometric grid that strictly decreases the objective.

    ``f0`` and ``g0`` are the oracle's value and gradient at ``x0``.  The grid
    is base * 2**k for k = -20..20, with base = 1 / (1 + ||g0||).  A bracket
    search over k in [-21, 21) keeps ``lo`` an exponent whose step decreases
    f and ``hi`` one whose step does not; neither end is evaluated, and the
    first trial is k = 0.  It returns base * 2**lo, or, when no trial
    decreased f, emits a :class:`TuneStepWarning` and returns the smallest
    grid step.  A trial where the oracle raises :class:`EvaluationError` does
    not decrease f; if every trial raises, the last error is raised.

    Each finite trial at step a fixes the quadratic through f0, the slope
    -||g0||**2 and f(a) along the ray (Nocedal & Wright, *Numerical
    Optimization*, section 3.5).  When its curvature is positive it climbs
    back to f0 at a*, and the next trial is the exponent of the largest grid
    step up to a*, clamped into the bracket, provided it lies below ``hi``;
    otherwise, and after a model trial that did not halve the bracket, the
    next trial bisects it.  On least-squares superquantile fits, exact or
    smoothed, this takes 3 or 4 trials where bisection takes 5 or 6; the
    halving rule bounds the search at 8 trials whatever the values.

    This is the largest decreasing grid step whenever phi(a) = f(x0 - a*g0)
    is convex in a, as it is for the exact and smoothed superquantile of a
    convex margin loss: the steps with phi(a) < f0 then form an interval
    that starts at 0, so the decreasing exponents are exactly those up to
    the largest one, and any bracket search finds it.  For an oracle that is
    not convex along the ray the result can differ from a full scan of the
    grid from the top.
    """
    return _tune(oracle, x0, f0, g0)[0]


def _tune(oracle: Oracle, x0, f0: float, g0) -> tuple[float, tuple[float, np.ndarray] | None]:
    """:func:`tune_initial_step`, with the oracle's output at x0 - step * g0,
    or None when the returned step was not evaluated."""
    x0 = np.asarray(x0, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    f0 = float(f0)
    with np.errstate(over="ignore", invalid="ignore"):
        gg = float(g0 @ g0)
    base = 1.0 / (1.0 + math.sqrt(gg))
    lo, hi, at_lo = -21, 21, None
    error, evaluated = None, False
    mid, bisected = 0, True
    while hi - lo > 1:
        width, step = hi - lo, base * 2.0**mid
        try:
            f_trial, g_trial = oracle(x0 - step * g0)
            evaluated = True
        except EvaluationError as err:
            error, f_trial = err, math.nan
        if np.isfinite(f_trial) and f_trial < f0:
            lo, at_lo = mid, (f_trial, g_trial)
        else:
            hi = mid
        # The quadratic's curvature term at the trial, c * step**2; it climbs
        # back to f0 at a* = step * ratio.
        rise = float(f_trial) - f0 + gg * step
        ratio = gg * step / rise if rise > 0.0 else math.nan
        k = mid + math.floor(math.log2(ratio)) if 0.0 < ratio < math.inf else hi
        if k < hi and (bisected or 2 * (hi - lo) <= width):
            mid, bisected = min(max(k, lo + 1), hi - 1), False
        else:
            mid, bisected = (lo + hi) // 2, True
    if not evaluated:
        raise error
    if lo == -21:
        warnings.warn("no decreasing trial step found; returning smallest grid step", TuneStepWarning)
        return base * 2.0**-20, None
    return base * 2.0**lo, at_lo


def _first_step(
    oracle: Oracle, x: np.ndarray, f: float, g: np.ndarray
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """The step tuned at ``x``, with the first move x - step * g and the
    oracle's output there, taken from the tuner when it evaluated that point;
    ``f`` and ``g`` are the output at ``x``."""
    step, at_step = _tune(oracle, x, f, g)
    x1 = x - step * g
    f1, g1 = at_step or oracle(x1)
    return step, x1, f1, g1


def _backtrack(
    oracle: Oracle, x: np.ndarray, f: float, d: np.ndarray, slope: float
) -> tuple[np.ndarray, float, np.ndarray] | Termination:
    """Armijo backtracking along ``d`` from the unit step, by safeguarded interpolation.

    ``slope`` is the directional derivative g @ d, and the first trial is
    x + d.  After a rejected trial at step t with a finite value f_t, the next
    trial is the minimiser of the quadratic through f, ``slope`` and f_t,
    clipped to [0.1 t, 0.5 t] (Nocedal & Wright, *Numerical Optimization*,
    section 3.5); after a non-finite value or an :class:`EvaluationError` it
    is t / 2.  Returns the accepted ``(x, f, g)``; ``LINE_SEARCH_FAILURE``
    when all ``_MAX_TRIALS`` trials are rejected (the last error if all
    raised), and ``NO_PROGRESS`` when the accepted point is bit-identical to
    ``x``, since the same search would then repeat at every later iteration.
    """
    t, error, evaluated = 1.0, None, False
    for _ in range(_MAX_TRIALS):
        with np.errstate(over="ignore", invalid="ignore"):
            x_trial = x + t * d
        try:
            f_trial, g_trial = oracle(x_trial)
            evaluated = True
        except EvaluationError as err:
            error, f_trial = err, math.nan
        if not np.isfinite(f_trial):
            t *= 0.5
        elif f_trial <= f + _ARMIJO_C * t * slope:
            if np.array_equal(x_trial, x):
                return Termination.NO_PROGRESS
            return x_trial, f_trial, g_trial
        else:
            # A rejected trial has f_t > f + slope * t, so the quadratic is
            # convex; a NaN from overflow falls to the lower clip.
            t_min = -0.5 * slope * t * t / (f_trial - f - slope * t)
            t = min(max(0.1 * t, t_min), 0.5 * t)
    if not evaluated:
        raise error
    return Termination.LINE_SEARCH_FAILURE


def _subgradient(oracle: Oracle, x: np.ndarray, config: SolverConfig) -> Steps:
    """Fixed-schedule subgradient descent, step a / sqrt(k + 1).

    The first step goes to x - a * g, the point where a tuned step a was
    found, so the tuner's evaluation there serves as the second iterate's.
    """
    f, g = oracle(x)
    yield x, f, g
    alpha, x, f, g = _first_step(oracle, x, f, g)
    for k in itertools.count(2):
        yield x, f, g
        x = x - (alpha / math.sqrt(k)) * g
        f, g = oracle(x)


def _dual_averaging(oracle: Oracle, x0: np.ndarray, config: SolverConfig) -> Steps:
    """Weighted dual averaging with normalized subgradients.

    Maintains s_{k+1} = sum of g_i / ||g_i|| and maps it back through a
    sqrt(k+1) divisor: x_{k+1} = x0 - s_{k+1} / (a * sqrt(k+1)).  The scale
    a = 1 / (step * ||g_0||) makes x_1 the tuned raw gradient step, taken as
    x0 - step * g_0 so that the tuner's evaluation serves.
    Zero subgradients never enter the sum: the driver's gradient test stops
    the run first.
    """
    f, g0 = oracle(x0)
    yield x0, f, g0
    step, x, f, g = _first_step(oracle, x0, f, g0)
    gnorm = float(np.linalg.norm(g0))
    a, s = 1.0 / (step * gnorm), g0 / gnorm
    for k in itertools.count(2):
        yield x, f, g
        s = s + g / float(np.linalg.norm(g))
        x = x0 - s / (a * math.sqrt(k))
        f, g = oracle(x)


class _Memory:
    """The newest ``_LBFGS_MEMORY`` curvature pairs of L-BFGS, in the compact
    form of Byrd, Nocedal & Schnabel (*Math. Prog.* 63, 1994), for the initial
    inverse Hessian H0 = gamma M, with M the identity when ``M`` is None.

    Rows ``S[:k]``, ``Y[:k]`` and ``MY[:k]`` hold the k pairs s, y and the
    rows M y, oldest first.  With D = diag(S Y^T) and R the upper triangle of
    S Y^T, the memory keeps D, Y M Y^T and R^-1, all in arrays of fixed size
    allocated once.  Appending a pair costs O(k d + k^2), plus O(d^2) for
    M y; dropping the oldest one takes the trailing blocks, since the
    trailing block of R^-1 is the inverse of R's.
    """

    def __init__(self, d: int, M: np.ndarray | None = None):
        m = _LBFGS_MEMORY
        self.k = 0
        # The identity's products are exact, so M = I gives the arithmetic of
        # H0 = gamma I bit for bit.
        self.M = np.eye(d) if M is None else np.asarray(M, dtype=float)
        self.S, self.Y, self.MY = np.empty((m, d)), np.empty((m, d)), np.empty((m, d))
        self.D, self.YY = np.empty(m), np.empty((m, m))
        self.Rinv = np.zeros((m, m))  # stays upper triangular

    def __len__(self) -> int:
        return self.k

    def clear(self) -> None:
        self.k = 0

    def append(self, s: np.ndarray, y: np.ndarray, sy: float) -> None:
        """Store the pair (s, y) with s @ y = sy > 0, dropping the oldest when full."""
        S, Y, MY, D, YY, Rinv = self.S, self.Y, self.MY, self.D, self.YY, self.Rinv
        k = self.k
        if k == _LBFGS_MEMORY:
            S[:-1], Y[:-1], MY[:-1], D[:-1] = S[1:], Y[1:], MY[1:], D[1:]
            YY[:-1, :-1], Rinv[:-1, :-1] = YY[1:, 1:], Rinv[1:, 1:]
            k -= 1
        My = self.M @ y
        Rinv[:k, k] = (Rinv[:k, :k] @ (S[:k] @ y)) / -sy
        Rinv[k, k] = 1.0 / sy
        YY[k, :k] = YY[:k, k] = MY[:k] @ y
        YY[k, k] = My @ y
        S[k], Y[k], MY[k], D[k] = s, y, My, sy
        self.k = k + 1

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g for the L-BFGS inverse Hessian H of the stored pairs, with
        H0 = gamma M scaled by the newest pair: gamma = s @ y / y @ M y."""
        k = self.k
        S, MY, D = self.S[:k], self.MY[:k], self.D[:k]
        YY, Rinv = self.YY[:k, :k], self.Rinv[:k, :k]
        gamma = D[-1] / YY[-1, -1]  # numpy division: y @ M y may underflow to 0
        p = Rinv @ (S @ g)
        q = Rinv.T @ (D * p + gamma * (YY @ p - MY @ g))
        return -(gamma * (self.M @ g) + S.T @ q - gamma * (MY.T @ p))


def _lbfgs(oracle: Oracle, x: np.ndarray, config: SolverConfig) -> Steps:
    """Limited-memory BFGS (memory 100) with an Armijo line search from t = 1.

    With empty memory, at the first iterate, the direction is -M g, for the
    preconditioner M of ``config`` (the identity when it is None), so the
    first step is a preconditioned gradient step from a unit trial.
    Curvature pairs with s @ y <= 1e-12 * ||s|| ||y|| are discarded; the
    others go to a :class:`_Memory`, whose compact form gives the direction
    in a few matrix products.  A quasi-Newton step fails when its direction
    is not a descent direction with a finite slope, or when its line search
    rejects every trial; the memory is then cleared and the step retried once
    along -M g before failure is reported.  That retry, like the first step,
    also fails at once when its slope -g @ M g is positive or NaN.
    """
    memory = _Memory(x.size, config.preconditioner)
    f, g = oracle(x)
    while True:
        yield x, f, g
        step = Termination.LINE_SEARCH_FAILURE
        if memory:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                d = memory.direction(g)
                slope = float(g @ d)
            # A slope that overflows to -inf would make every Armijo bound
            # -inf, so the search would spend all its trials.
            if -math.inf < slope < 0.0:
                step = _backtrack(oracle, x, f, d, slope)
        if step is Termination.LINE_SEARCH_FAILURE:
            memory.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                Mg = memory.M @ g
                slope = -float(g @ Mg)
            # A positive or NaN slope, from an M that is not positive
            # semidefinite or from overflow, is no descent direction: the
            # Armijo test would accept a rise in f along it.
            if not slope <= 0.0:
                return Termination.LINE_SEARCH_FAILURE
            step = _backtrack(oracle, x, f, -Mg, slope)
        if isinstance(step, Termination):
            return step
        x_new, f_new, g_new = step
        with np.errstate(over="ignore", invalid="ignore"):
            s = x_new - x
            yv = g_new - g
            sy = float(s @ yv)
            if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
                memory.append(s, yv, sy)
        x, f, g = x_new, f_new, g_new


_STEPS: dict[Algorithm, Callable[[Oracle, np.ndarray, SolverConfig], Steps]] = {
    Algorithm.SUBGRADIENT: _subgradient,
    Algorithm.DUAL_AVERAGING: _dual_averaging,
    Algorithm.LBFGS: _lbfgs,
}


def run_solver(oracle: Oracle, config: SolverConfig) -> SolverResult:
    """Minimize with the method named by ``config.algorithm``.

    Raises :class:`EvaluationError` at the first non-finite value or gradient
    norm among the yielded iterates, and passes on one that the oracle raises
    at an iterate or at every trial of a search.  Either way its
    ``objective_trace`` attribute holds the objectives recorded before it.
    """
    calls = 0

    def counted(w: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal calls
        calls += 1
        f, g = oracle(w)
        return float(f), np.asarray(g, dtype=float)

    trace: list[float] = []
    best_f, best_x = math.inf, None
    best_hist: deque[float] = deque(maxlen=_STALL_WINDOW + 1)
    algorithm = Algorithm(config.algorithm)
    f_tol = config.f_tol if algorithm is Algorithm.LBFGS else 0.0
    x0 = config.start_point()
    config.check_preconditioner(x0.size)
    steps = _STEPS[algorithm](counted, x0, config)
    while True:
        try:
            x, f, g = next(steps)
            with np.errstate(over="ignore", invalid="ignore"):
                gnorm = float(np.linalg.norm(g))
            if not (math.isfinite(f) and math.isfinite(gnorm)):
                raise EvaluationError(f"non-finite oracle output at iteration {len(trace)}")
        except StopIteration as stop:
            termination = stop.value
            break
        except EvaluationError as err:
            err.objective_trace = trace
            raise
        trace.append(f)
        if f <= best_f:
            best_f, best_x = f, x.copy()
        best_hist.append(best_f)
        if gnorm <= config.grad_tol:
            termination = Termination.GRAD_TOL
        elif f_tol > 0.0 and len(best_hist) > _STALL_WINDOW and best_hist[0] - best_f <= f_tol:
            termination = Termination.F_TOL
        elif len(trace) >= config.max_iters:
            termination = Termination.MAX_ITERS
        else:
            continue
        break
    return SolverResult(
        solution=best_x,
        objective_trace=np.asarray(trace),
        termination=termination,
        oracle_calls=calls,
    )
