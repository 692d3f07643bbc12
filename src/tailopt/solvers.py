"""Batch first-order solvers: one driver loop over per-method step generators.

:func:`run_solver` takes an oracle closure ``w -> (value, gradient)`` and a
:class:`SolverConfig`, and runs the method named by ``config.algorithm``.
Each method is a step generator ``(oracle, x0, config)`` that yields its
evaluated iterates ``(x, f, g)`` one at a time, starting with ``x0``; it only
decides where to evaluate next.  A generator that returns has failed its line
search.  The driver alone counts oracle calls, checks that each yielded value
and gradient are finite, records the objective trace and runs the stopping
tests.  Because a generator is only resumed when the run goes on, no method
spends oracle calls after its last recorded iterate.

The returned solution is the evaluated iterate with the lowest recorded
objective (subgradient-type and accelerated methods are not descent methods,
so last-iterate would be wrong).

Stopping tests run after each recorded iterate in the order: gradient norm,
best-objective stall, then the iteration budget.  Since ``grad_tol >= 0``, an
exactly zero gradient always stops the run.  The stall test compares the
running best objective against its value ten recorded iterations earlier;
``f_tol = 0`` disables it, since a literal zero-improvement test would stop
any oscillating method almost immediately.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .core import EvaluationError

__all__ = [
    "Algorithm",
    "SolverConfig",
    "SolverResult",
    "Termination",
    "TuneStepWarning",
    "nesterov_alpha_next",
    "run_solver",
    "tune_initial_step",
]

Oracle = Callable[[np.ndarray], tuple[float, np.ndarray]]
Steps = Iterator[tuple[np.ndarray, float, np.ndarray]]

_STALL_WINDOW = 10
_ARMIJO_C = 1e-4
_MAX_HALVINGS = 50
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


class TuneStepWarning(UserWarning):
    """No trial step decreased the objective; the smallest grid step was returned."""


@dataclass
class SolverConfig:
    """Shared solver settings.

    ``step_size`` is either a positive float or the string ``"auto"``, in
    which case :func:`tune_initial_step` picks it at the first iterate.  The
    starting point is ``initial_point`` when given, else the zero vector of
    length ``dim``.
    """

    algorithm: Algorithm = Algorithm.LBFGS
    max_iters: int = 1000
    grad_tol: float = 1e-8
    f_tol: float = 1e-10
    step_size: float | str = "auto"
    initial_point: np.ndarray | None = None
    dim: int | None = None

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
        if self.initial_point is not None:
            x0 = np.asarray(self.initial_point, dtype=float)
            if x0.ndim != 1:
                raise ValueError(f"initial_point must be 1-D, got shape {x0.shape}")
            return x0.copy()
        if self.dim is None:
            raise ValueError("provide initial_point or dim in SolverConfig")
        return np.zeros(self.dim)


@dataclass
class SolverResult:
    """Outcome of one solver run; ``solution`` minimizes ``objective_trace``."""

    solution: np.ndarray
    objective_trace: np.ndarray
    termination: Termination
    oracle_calls: int


def tune_initial_step(oracle: Oracle, x0) -> float:
    """Largest step on a geometric grid that strictly decreases the objective.

    The grid is 2**k / (1 + ||g0||) for k = -20..20, scanned from the largest
    step down; scanning order makes the result deterministic.  If no step
    decreases the objective a :class:`TuneStepWarning` is emitted and the
    smallest grid step is returned.
    """
    x0 = np.asarray(x0, dtype=float)
    f0, g0 = oracle(x0)
    g0 = np.asarray(g0, dtype=float)
    base = 1.0 / (1.0 + float(np.linalg.norm(g0)))
    for k in range(20, -21, -1):
        alpha = base * 2.0**k
        f_trial, _ = oracle(x0 - alpha * g0)
        if np.isfinite(f_trial) and f_trial < f0:
            return alpha
    warnings.warn("no decreasing trial step found; returning smallest grid step", TuneStepWarning)
    return base * 2.0**-20


def _step_or_tune(oracle: Oracle, x: np.ndarray, config: SolverConfig) -> float:
    """The configured step, or the step tuned at ``x`` when it is ``"auto"``."""
    if isinstance(config.step_size, str):
        return tune_initial_step(oracle, x)
    return config.step_size


def _backtrack(oracle: Oracle, x: np.ndarray, f: float, d: np.ndarray, slope: float, t0: float):
    """Armijo backtracking along ``d`` from step ``t0``, halving on rejection.

    ``slope`` is the directional derivative g @ d.  Returns the accepted
    ``(x, f, g)``, or None when every halving is rejected.
    """
    t = t0
    for _ in range(_MAX_HALVINGS + 1):
        x_trial = x + t * d
        f_trial, g_trial = oracle(x_trial)
        if np.isfinite(f_trial) and f_trial <= f + _ARMIJO_C * t * slope:
            return x_trial, f_trial, g_trial
        t *= 0.5
    return None


def _subgradient(oracle: Oracle, x: np.ndarray, config: SolverConfig) -> Steps:
    """Fixed-schedule subgradient descent, step a / sqrt(k + 1)."""
    alpha = None
    for k in itertools.count():
        f, g = oracle(x)
        yield x, f, g
        if alpha is None:
            alpha = _step_or_tune(oracle, x, config)
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
            a = 1.0 / (_step_or_tune(oracle, x0, config) * gnorm)
        s = s + g / gnorm
        x = x0 - s / (a * math.sqrt(k + 1))


def _gradient_descent(oracle: Oracle, x: np.ndarray, config: SolverConfig) -> Steps:
    """Gradient descent with Armijo backtracking from a fixed trial step.

    The point the line search accepts is the next iterate, so its oracle
    output is reused rather than evaluated again.
    """
    f, g = oracle(x)
    alpha = None
    while True:
        yield x, f, g
        if alpha is None:
            alpha = _step_or_tune(oracle, x, config)
        accepted = _backtrack(oracle, x, f, -g, -float(g @ g), alpha)
        if accepted is None:
            return
        x, f, g = accepted


def nesterov_alpha_next(alpha: float) -> float:
    """One step of the momentum recursion a -> (1 + sqrt(1 + 4 a^2)) / 2."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha * alpha))


def _accelerated_gradient(oracle: Oracle, x0: np.ndarray, config: SolverConfig) -> Steps:
    """Accelerated gradient with the standard momentum sequence.

    x_{s+1} = y_s - step * grad(y_s), then y_{s+1} extrapolates x_{s+1} past
    x_s with coefficient (a_s - 1) / a_{s+1}, where a starts at 1 and follows
    :func:`nesterov_alpha_next` (so the second value is the golden ratio).
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
            step = _step_or_tune(oracle, x_prev, config)
            if isinstance(config.step_size, str):
                step *= 0.5
        x_next = y - step * g
        a_next = nesterov_alpha_next(a_cur)
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
    """Limited-memory BFGS (memory 10) with Armijo backtracking from t = 1.

    Curvature pairs with s @ y <= 1e-12 * ||s|| ||y|| are discarded, and the
    search direction falls back to steepest descent whenever the two-loop
    output fails the descent test.  If backtracking exhausts its halvings on a
    quasi-Newton direction, the memory is cleared and the step retried once
    along the raw negative gradient before failure is reported.
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
        accepted = _backtrack(oracle, x, f, d, slope, 1.0)
        if accepted is None and used_memory:
            memory.clear()
            accepted = _backtrack(oracle, x, f, -g, -float(g @ g), 1.0)
        if accepted is None:
            return
        x_new, f_new, g_new = accepted
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
    for x, f, g in _STEPS[Algorithm(config.algorithm)](counted, config.start_point(), config):
        if not (np.isfinite(f) and np.isfinite(g).all()):
            err = EvaluationError(f"non-finite oracle output at iteration {len(trace)}")
            err.objective_trace = trace
            raise err
        trace.append(f)
        if f < best_f:
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
    else:  # the step generator returned
        termination = Termination.LINE_SEARCH_FAILURE
    return SolverResult(
        solution=best_x,
        objective_trace=np.asarray(trace),
        termination=termination,
        oracle_calls=calls,
    )
