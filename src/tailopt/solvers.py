"""Batch first-order solvers: one driver loop over per-method step generators.

:func:`run_solver` takes an oracle closure ``w -> (value, gradient)`` and a
:class:`SolverConfig`, and runs the method named by ``config.algorithm``.
Each method is a step generator ``(oracle, x0, config)`` that yields its
evaluated iterates ``(x, f, g)`` one at a time, starting with ``x0``; it only
decides where to evaluate next.  A generator that returns ends the run with
the :class:`Termination` it returns: gradient descent and L-BFGS return when
their line search fails, or when it accepts a step that leaves x unchanged.
The driver alone counts oracle calls, checks that each yielded value and
gradient are finite, records the objective trace and runs the stopping tests.
Because a generator is only resumed when the run goes on, no method spends
oracle calls after an iterate that passes one of these tests.

The returned solution is the evaluated iterate with the lowest recorded
objective (subgradient-type and accelerated methods are not descent methods,
so last-iterate would be wrong); among tied iterates it is the latest, so a
run that stops on the gradient test at a value tied with the best returns
the iterate whose gradient passed.

The driver's stopping tests run after each recorded iterate in the order:
gradient norm, best-objective stall, then the iteration budget.  Since
``grad_tol >= 0``, an exactly zero gradient always stops the run.  The stall
test compares the running best objective against its value ten recorded
iterations earlier; ``f_tol = 0`` disables it, since a literal
zero-improvement test would stop any oscillating method almost immediately.
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
_LBFGS_MEMORY = 10


class Algorithm(str, Enum):
    SUBGRADIENT = "subgradient"
    DUAL_AVERAGING = "dual_averaging"
    GRADIENT_DESCENT = "gradient_descent"
    ACCELERATED_GRADIENT = "accelerated_gradient"
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

    ``step_size`` is either a positive float or the string ``"auto"``, in
    which case :func:`tune_initial_step` picks it at the first iterate.  The
    starting point ``initial_point`` must be given before a run.
    """

    algorithm: Algorithm = Algorithm.LBFGS
    max_iters: int = 1000
    grad_tol: float = 1e-8
    f_tol: float = 1e-10
    step_size: float | str = "auto"
    initial_point: np.ndarray | None = None

    def __post_init__(self):
        self.algorithm = Algorithm(self.algorithm)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_tol < 0.0 or self.f_tol < 0.0:
            raise ValueError("grad_tol and f_tol must be nonnegative")
        if isinstance(self.step_size, str):
            if self.step_size != "auto":
                raise ValueError(f"step_size must be positive or 'auto', got {self.step_size!r}")
        elif not self.step_size > 0.0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")

    def start_point(self) -> np.ndarray:
        if self.initial_point is None:
            raise ValueError("provide initial_point in SolverConfig")
        x0 = np.asarray(self.initial_point, dtype=float)
        if x0.ndim != 1:
            raise ValueError(f"initial_point must be 1-D, got shape {x0.shape}")
        return x0.copy()


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
    is base * 2**k for k = -20..20, with base = 1 / (1 + ||g0||).  One
    bisection over k in [-21, 21) keeps ``lo`` an exponent whose step
    decreases f and ``hi`` one whose step does not; neither end is evaluated,
    so the first trial is k = 0 and there are at most 6 trials.  It returns
    base * 2**lo, or, when no trial decreased f, emits a
    :class:`TuneStepWarning` and returns the smallest grid step.

    This is the largest decreasing grid step whenever phi(a) = f(x0 - a*g0)
    is convex in a, as it is for the exact and smoothed superquantile of a
    convex margin loss: the steps with phi(a) < f0 then form an interval
    that starts at 0, so the decreasing exponents are exactly those up to
    the largest one.  For an oracle that is not convex along the ray the
    result can differ from a full scan of the grid from the top.
    """
    x0 = np.asarray(x0, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    base = 1.0 / (1.0 + float(np.linalg.norm(g0)))
    lo, hi = -21, 21
    while hi - lo > 1:
        mid = (lo + hi) // 2
        f_trial, _ = oracle(x0 - (base * 2.0**mid) * g0)
        if np.isfinite(f_trial) and f_trial < f0:
            lo = mid
        else:
            hi = mid
    if lo == -21:
        warnings.warn("no decreasing trial step found; returning smallest grid step", TuneStepWarning)
        return base * 2.0**-20
    return base * 2.0**lo


def _step_or_tune(
    oracle: Oracle, x: np.ndarray, f: float, g: np.ndarray, config: SolverConfig
) -> float:
    """The configured step, or the step tuned at ``x`` when it is ``"auto"``.

    ``f`` and ``g`` are the oracle's output at ``x``, so tuning spends no call
    on that point again.
    """
    if isinstance(config.step_size, str):
        return tune_initial_step(oracle, x, f, g)
    return config.step_size


def _backtrack(
    oracle: Oracle, x: np.ndarray, f: float, d: np.ndarray, slope: float, t0: float
) -> tuple[np.ndarray, float, np.ndarray] | Termination:
    """Armijo backtracking along ``d`` from step ``t0``, by safeguarded interpolation.

    ``slope`` is the directional derivative g @ d.  After a rejected trial at
    step t with a finite value f_t, the next trial is the minimiser of the
    quadratic through f, ``slope`` and f_t, clipped to [0.1 t, 0.5 t]
    (Nocedal & Wright, *Numerical Optimization*, section 3.5); after a
    non-finite value it is t / 2.  Returns the accepted ``(x, f, g)``;
    ``LINE_SEARCH_FAILURE`` when all ``_MAX_TRIALS`` trials are rejected, and
    ``NO_PROGRESS`` when the accepted point is bit-identical to ``x``, since
    the same search would then repeat at every later iteration.
    """
    t = t0
    for _ in range(_MAX_TRIALS):
        x_trial = x + t * d
        f_trial, g_trial = oracle(x_trial)
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
    return Termination.LINE_SEARCH_FAILURE


def _subgradient(oracle: Oracle, x: np.ndarray, config: SolverConfig) -> Steps:
    """Fixed-schedule subgradient descent, step a / sqrt(k + 1)."""
    alpha = None
    for k in itertools.count():
        f, g = oracle(x)
        yield x, f, g
        if alpha is None:
            alpha = _step_or_tune(oracle, x, f, g, config)
        x = x - (alpha / math.sqrt(k + 1)) * g


def _dual_averaging(oracle: Oracle, x0: np.ndarray, config: SolverConfig) -> Steps:
    """Weighted dual averaging with normalized subgradients.

    Maintains s_{k+1} = sum of g_i / ||g_i|| and maps it back through a
    sqrt(k+1) divisor: x_{k+1} = x0 - s_{k+1} / (a * sqrt(k+1)).  The scale a
    is set so that the first move has the length of the tuned (or configured)
    raw gradient step.  Zero subgradients never enter the sum: the driver's
    gradient test stops the run first.
    """
    x = x0
    s = np.zeros_like(x0)
    a = None
    for k in itertools.count():
        f, g = oracle(x)
        yield x, f, g
        gnorm = float(np.linalg.norm(g))
        if a is None:
            a = 1.0 / (_step_or_tune(oracle, x0, f, g, config) * gnorm)
        s = s + g / gnorm
        x = x0 - s / (a * math.sqrt(k + 1))


def _gradient_descent(oracle: Oracle, x: np.ndarray, config: SolverConfig) -> Steps:
    """Gradient descent with an Armijo line search from a fixed trial step.

    Every search starts from the tuned (or configured) step.  The point the
    line search accepts is the next iterate, so its oracle output is reused
    rather than evaluated again.
    """
    f, g = oracle(x)
    alpha = None
    while True:
        yield x, f, g
        if alpha is None:
            alpha = _step_or_tune(oracle, x, f, g, config)
        step = _backtrack(oracle, x, f, -g, -float(g @ g), alpha)
        if isinstance(step, Termination):
            return step
        x, f, g = step


def _accelerated_gradient(oracle: Oracle, x0: np.ndarray, config: SolverConfig) -> Steps:
    """Accelerated gradient with the standard momentum sequence.

    x_{s+1} = y_s - step * grad(y_s), then y_{s+1} extrapolates x_{s+1} past
    x_s with coefficient (a_s - 1) / a_{s+1}, where a starts at 1 and follows
    a -> (1 + sqrt(1 + 4 a^2)) / 2 (so the second value is the golden ratio).
    The recorded iterates are the y_s.  With an auto step the tuned step is
    halved: the tuner approximates the largest still-decreasing step while the
    scheme wants the inverse of the gradient's Lipschitz constant, about half
    of that.
    """
    x_prev = y = x0
    a_cur = 1.0
    step = None
    while True:
        f, g = oracle(y)
        yield y, f, g
        if step is None:
            step = _step_or_tune(oracle, x_prev, f, g, config)
            if isinstance(config.step_size, str):
                step *= 0.5
        x_next = y - step * g
        a_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * a_cur * a_cur))
        y = x_next + ((a_cur - 1.0) / a_next) * (x_next - x_prev)
        x_prev = x_next
        a_cur = a_next


def _two_loop(g: np.ndarray, memory: deque[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s, yv, rho in reversed(memory):
        a = rho * float(s @ q)
        q -= a * yv
        alphas.append(a)
    if memory:
        s, yv, _ = memory[-1]
        q *= float(s @ yv) / float(yv @ yv)
    for (s, yv, rho), a in zip(memory, reversed(alphas)):
        b = rho * float(yv @ q)
        q += (a - b) * s
    return -q


def _lbfgs(oracle: Oracle, x: np.ndarray, config: SolverConfig) -> Steps:
    """Limited-memory BFGS (memory 10) with an Armijo line search from t = 1.

    Curvature pairs with s @ y <= 1e-12 * ||s|| ||y|| are discarded, and the
    search direction falls back to steepest descent whenever the two-loop
    output fails the descent test.  If the line search rejects all its trials
    on a quasi-Newton direction, the memory is cleared and the step retried
    once along the raw negative gradient before failure is reported.
    """
    memory: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_LBFGS_MEMORY)
    f, g = oracle(x)
    while True:
        yield x, f, g
        d = _two_loop(g, memory)
        slope = float(g @ d)
        used_memory = bool(memory)
        if slope >= 0.0:
            d = -g
            slope = -float(g @ g)
            used_memory = False
        step = _backtrack(oracle, x, f, d, slope, 1.0)
        if step is Termination.LINE_SEARCH_FAILURE and used_memory:
            memory.clear()
            step = _backtrack(oracle, x, f, -g, -float(g @ g), 1.0)
        if isinstance(step, Termination):
            return step
        x_new, f_new, g_new = step
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            memory.append((s, yv, 1.0 / sy))
        x, f, g = x_new, f_new, g_new


_STEPS: dict[Algorithm, Callable[[Oracle, np.ndarray, SolverConfig], Steps]] = {
    Algorithm.SUBGRADIENT: _subgradient,
    Algorithm.DUAL_AVERAGING: _dual_averaging,
    Algorithm.GRADIENT_DESCENT: _gradient_descent,
    Algorithm.ACCELERATED_GRADIENT: _accelerated_gradient,
    Algorithm.LBFGS: _lbfgs,
}


def run_solver(oracle: Oracle, config: SolverConfig) -> SolverResult:
    """Minimize with the method named by ``config.algorithm``.

    Raises :class:`EvaluationError` at the first non-finite value or gradient
    among the yielded iterates; its ``objective_trace`` attribute holds the
    objectives recorded before it.
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
    steps = _STEPS[Algorithm(config.algorithm)](counted, config.start_point(), config)
    while True:
        try:
            x, f, g = next(steps)
        except StopIteration as stop:
            termination = stop.value
            break
        if not (np.isfinite(f) and np.isfinite(g).all()):
            err = EvaluationError(f"non-finite oracle output at iteration {len(trace)}")
            err.objective_trace = trace
            raise err
        trace.append(f)
        if f <= best_f:
            best_f, best_x = f, x.copy()
        best_hist.append(best_f)
        if np.linalg.norm(g) <= config.grad_tol:
            termination = Termination.GRAD_TOL
        elif (
            config.f_tol > 0.0
            and len(best_hist) > _STALL_WINDOW
            and best_hist[0] - best_f <= config.f_tol
        ):
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
