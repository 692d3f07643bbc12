"""Independent reference oracles and fixtures shared across the test suite.

Everything here deliberately avoids the production code paths it checks:
projections and normalizers are found by bisection, dual optima by vertex
enumeration or a generic LP, tail averages by integrating the empirical
quantile function piece by piece.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from tailopt.core import Dataset, PerSampleLoss


# ---------------------------------------------------------------------------
# capped simplex geometry
# ---------------------------------------------------------------------------

def capped_simplex_vertices(n: int, cap: float) -> np.ndarray:
    """All vertices of {0 <= q_i <= cap, sum q = 1}; practical for n <= 8.

    A vertex has k coordinates at the cap, at most one fractional coordinate
    carrying the leftover mass, and zeros elsewhere.
    """
    k = int(np.floor(1.0 / cap + 1e-12))
    k = min(k, n)
    r = 1.0 - k * cap
    verts = []
    if r < 1e-12:
        for S in combinations(range(n), k):
            v = np.zeros(n)
            v[list(S)] = cap
            verts.append(v)
    else:
        for S in combinations(range(n), k):
            rest = [j for j in range(n) if j not in S]
            for j in rest:
                v = np.zeros(n)
                v[list(S)] = cap
                v[j] = r
                verts.append(v)
    return np.array(verts)


def vertex_max_value(losses: np.ndarray, cap: float) -> float:
    """max q @ losses over the capped simplex by brute-force vertex scan."""
    verts = capped_simplex_vertices(len(losses), cap)
    return float(np.max(verts @ losses))


def lp_max_value(losses: np.ndarray, cap: float) -> float:
    """max q @ losses over the capped simplex through a generic LP solver."""
    n = len(losses)
    res = linprog(
        c=-np.asarray(losses, dtype=float),
        A_eq=np.ones((1, n)),
        b_eq=np.array([1.0]),
        bounds=[(0.0, cap)] * n,
        method="highs",
    )
    assert res.status == 0, f"LP failed: {res.message}"
    return float(-res.fun)


def project_capped_simplex(y: np.ndarray, cap: float, iters: int = 200) -> np.ndarray:
    """Euclidean projection onto the capped simplex by bisection on the shift."""
    y = np.asarray(y, dtype=float)
    lo = float(y.min()) - cap - 1.0  # sum of clips >= n*cap >= 1 here
    hi = float(y.max())              # sum of clips == 0 here
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.clip(y - mid, 0.0, cap).sum() >= 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(y - 0.5 * (lo + hi), 0.0, cap)


# ---------------------------------------------------------------------------
# reference maximizers of the penalized dual problem
# ---------------------------------------------------------------------------

def max_penalized_euclidean(losses: np.ndarray, p: float, mu: float) -> np.ndarray:
    """Maximizer of q @ L - (mu/2) ||q - e/n||^2 over the capped simplex.

    The objective is a negated squared distance to e/n + L/mu, so a single
    projected-gradient step with step size 1/mu from any feasible point lands
    exactly on the optimum; the projection itself is done by bisection.
    """
    L = np.asarray(losses, dtype=float)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    q = np.full(n, 1.0 / n)
    for _ in range(3):  # fixed point after the first step
        grad = L - mu * (q - 1.0 / n)
        q = project_capped_simplex(q + grad / mu, cap)
    return q


def max_penalized_entropic(losses: np.ndarray, p: float, mu: float, iters: int = 400) -> np.ndarray:
    """Maximizer of q @ L - mu*(log n + sum q log q) over the capped simplex.

    Stationarity forces q_i = min(cap, exp(t + L_i/mu)) for a scalar t; the
    normalizer is pinned by bisection on the monotone total-mass map.
    """
    L = np.asarray(losses, dtype=float)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    s = L / mu
    log_cap = np.log(cap)
    t_hi = log_cap - float(s.min())          # all coordinates at the cap
    t_lo = -np.log(n) - float(s.max())       # total mass <= 1
    for _ in range(iters):
        t = 0.5 * (t_lo + t_hi)
        total = np.exp(np.minimum(t + s, log_cap)).sum()
        if total >= 1.0:
            t_hi = t
        else:
            t_lo = t
    t = 0.5 * (t_lo + t_hi)
    return np.exp(np.minimum(t + s, log_cap))


def penalized_objective(q: np.ndarray, losses: np.ndarray, mu: float, penalty: str) -> float:
    q = np.asarray(q, dtype=float)
    L = np.asarray(losses, dtype=float)
    n = q.size
    if penalty == "euclidean":
        d = 0.5 * np.sum((q - 1.0 / n) ** 2)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(q > 0, q * np.log(q), 0.0)
        d = np.log(n) + plogp.sum()
    return float(q @ L - mu * d)


def penalty_max_on_vertices(n: int, cap: float, penalty: str) -> float:
    """max d(q) over the capped simplex; d is convex so vertices suffice."""
    verts = capped_simplex_vertices(n, cap)
    if penalty == "euclidean":
        vals = 0.5 * np.sum((verts - 1.0 / n) ** 2, axis=1)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(verts > 0, verts * np.log(verts), 0.0)
        vals = np.log(n) + plogp.sum(axis=1)
    return float(vals.max())


# ---------------------------------------------------------------------------
# empirical tail statistics, from first principles
# ---------------------------------------------------------------------------

def quantile_by_cdf_scan(losses, p: float) -> float:
    """Smallest loss value whose empirical CDF reaches p (linear scan)."""
    L = np.sort(np.asarray(losses, dtype=float))
    n = L.size
    if p == 0.0:
        return float(L[0])
    for x in L:
        if np.count_nonzero(L <= x) / n >= p:
            return float(x)
    return float(L[-1])


def superquantile_by_integration(losses, p: float) -> float:
    """Tail average from the piecewise-constant empirical quantile function.

    The k-th order statistic is the quantile on ((k-1)/n, k/n]; integrate it
    over (p, 1] exactly and divide by 1 - p.
    """
    L = np.sort(np.asarray(losses, dtype=float))
    n = L.size
    total = 0.0
    for k in range(1, n + 1):
        lo = max((k - 1) / n, p)
        hi = k / n
        if hi > lo:
            total += L[k - 1] * (hi - lo)
    return total / (1.0 - p)


def central_difference_gradient(fun, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (fun(w + e) - fun(w - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def random_lsq_dataset(seed: int, n: int, d: int, noise: float = 0.5) -> Dataset:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    y = X @ w_true + noise * rng.standard_normal(n)
    return Dataset(X, y)


class AbsoluteDeviationLoss(PerSampleLoss):
    """|y - w @ x|; x = [1], y = 0 turns the objective into |w|."""

    def value(self, w, x, y):
        return abs(y - x @ w)

    def gradient(self, w, x, y):
        return -np.sign(y - x @ w) * np.asarray(x, dtype=float)


class CountingLoss(PerSampleLoss):
    """Quadratic loss that counts how often each entry point is hit."""

    def __init__(self):
        self.value_calls = 0
        self.gradient_calls = 0

    def value(self, w, x, y):
        self.value_calls += 1
        r = y - x @ w
        return 0.5 * r * r

    def gradient(self, w, x, y):
        self.gradient_calls += 1
        return -(y - x @ w) * np.asarray(x, dtype=float)


def quadratic_oracle(A: np.ndarray, b: np.ndarray):
    """Closure for f(w) = 0.5 w A w - b w with its gradient; plus (w*, f*)."""
    w_star = np.linalg.solve(A, b)
    f_star = float(0.5 * w_star @ A @ w_star - b @ w_star)

    def oracle(w):
        g = A @ w - b
        return float(0.5 * w @ A @ w - b @ w), g

    return oracle, w_star, f_star


class RecordingOracle:
    """Wraps an oracle and keeps a copy of every point it is called at, with its value.

    With a fixed step the solvers make no tuning or line-search calls, so
    ``points`` is then exactly the sequence of recorded iterates.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self.points: list[np.ndarray] = []
        self.values: list[float] = []

    def __call__(self, w):
        f, g = self.oracle(w)
        self.points.append(np.array(w, dtype=float))
        self.values.append(float(f))
        return f, g
