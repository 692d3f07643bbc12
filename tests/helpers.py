"""Independent reference oracles and fixtures shared across the test suite.

Everything here deliberately avoids the production code paths it checks:
projections and normalizers are found by bisection, dual optima by vertex
enumeration or a generic LP, tail averages by integrating the empirical
quantile function piece by piece.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from tailopt.core import Dataset, EvaluationError
from tailopt.smoothing import SmoothedOracleOutput


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


def exact_euclidean_value(losses, p: float, mu: float) -> Fraction:
    """Euclidean smoothed value max_q q @ L - mu/2 ||q - e/n||^2 in exact arithmetic.

    The inputs and the cap 1/(n(1-p)) are taken as the doubles the routines
    see; the multiplier is the exact root of the piecewise affine theta',
    found by bisection over the sorted breakpoints.
    """
    n = len(losses)
    L = [Fraction(float(x)) for x in losses]
    cap = Fraction(1.0 / (n * (1.0 - p)))
    mu = Fraction(mu)
    u = [x + mu / n for x in L]

    def weights(lam):
        return [min(max((ui - lam) / mu, Fraction(0)), cap) for ui in u]

    def theta(lam):
        return 1 - sum(weights(lam))

    bps = sorted(set(u) | {ui - mu * cap for ui in u})
    lo, hi = 0, len(bps) - 1
    assert theta(bps[lo]) <= 0 < theta(bps[hi])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if theta(bps[mid]) <= 0:
            lo = mid
        else:
            hi = mid
    a, b = bps[lo], bps[hi]
    ta, tb = theta(a), theta(b)
    q = weights(a - ta * (b - a) / (tb - ta))
    assert sum(q) == 1
    return sum(qi * x for qi, x in zip(q, L)) - mu / 2 * sum((qi - Fraction(1, n)) ** 2 for qi in q)


def theta_prime(lam: float, losses, p: float, mu: float) -> float:
    """Derivative of the Euclidean dual function at multiplier ``lam``.

    Nondecreasing in ``lam``; tends to 1 for large ``lam`` and to
    1 - n*cap < 0 below all breakpoints when p > 0.  Its root is the optimal
    multiplier of :func:`tailopt.smoothing.smoothed_weights_euclidean`.
    """
    L = np.asarray(losses, dtype=float)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    u = L + mu / n
    return float(1.0 - np.clip((u - lam) / mu, 0.0, cap).sum())


def nonzero_support(q: np.ndarray):
    """Indices of the nonzero weights, or None when every weight is nonzero."""
    nonzero = [i for i, qi in enumerate(q) if qi != 0.0]
    return None if len(nonzero) == len(q) else np.array(nonzero, dtype=np.intp)


def sorting_weights_euclidean(losses, p: float, mu: float) -> SmoothedOracleOutput:
    """Euclidean maximizer by a breakpoint search over all n sorted losses.

    The O(n log n) routine that :func:`tailopt.smoothing.smoothed_weights_euclidean`
    replaced; kept as the reference its candidate-set search must agree with.
    """
    L = np.asarray(losses, dtype=float)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    if p == 0.0 or n * cap <= 1.0:
        q = np.full(n, 1.0 / n)
        lam = float(np.min(L) + mu / n - mu * cap)
        return SmoothedOracleOutput(
            value=float(q @ L), weights=q, lam=lam, penalty_value=0.0, support=None
        )

    u = L + mu / n
    us = np.sort(u)
    pre = np.concatenate(([0.0], np.cumsum(us)))
    bps = np.unique(np.concatenate((u, u - mu * cap)))

    def theta_at(lams: np.ndarray) -> np.ndarray:
        hi = np.searchsorted(us, lams + mu * cap, side="right")
        lo = np.searchsorted(us, lams, side="left")
        n_mid = hi - lo
        sum_mid = pre[hi] - pre[lo]
        n_top = n - hi
        return 1.0 - (sum_mid - lams * n_mid) / mu - cap * n_top

    theta = theta_at(bps)
    b_idx = int(np.argmax(theta > 0.0))
    assert theta[b_idx] > 0.0 and b_idx > 0, "dual derivative not bracketed"
    a, b = bps[b_idx - 1], bps[b_idx]
    ta, tb = theta[b_idx - 1], theta[b_idx]
    if abs(ta) <= 1e-12:
        lam = float(a)
    else:
        lam = float(a - ta * (b - a) / (tb - ta))

    q = np.clip((u - lam) / mu, 0.0, cap)
    drift = float(q.sum()) - 1.0
    if abs(drift) > 5e-12:
        n_mid = int(np.count_nonzero((u - mu * cap <= lam) & (lam <= u)))
        if n_mid > 0:
            lam += drift * mu / n_mid
            q = np.clip((u - lam) / mu, 0.0, cap)
    penalty = float(0.5 * np.sum((q - 1.0 / n) ** 2))
    return SmoothedOracleOutput(
        value=float(q @ L - mu * penalty),
        weights=q,
        lam=lam,
        penalty_value=penalty,
        support=nonzero_support(q),
    )


def sorting_weights_entropic(losses, p: float, mu: float) -> SmoothedOracleOutput:
    """Entropic maximizer by a cap-count scan over all n sorted scaled losses.

    The O(n log n) routine that :func:`tailopt.smoothing.smoothed_weights_entropic`
    replaced; kept as the reference its top-K search must agree with.  The
    uncapped block is formed as exp(logc + s_i), which is accurate only while
    |L/mu| stays well below 1e10.
    """
    L = np.asarray(losses, dtype=float)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    if p == 0.0 or n * cap <= 1.0:
        q = np.full(n, 1.0 / n)
        lam = float(-mu * (np.log(cap) - float(np.min(L)) / mu + 1.0))
        return SmoothedOracleOutput(
            value=float(q @ L), weights=q, lam=lam, penalty_value=0.0, support=None
        )

    s = L / mu
    order = np.argsort(-s, kind="stable")
    ss = s[order]
    T = np.logaddexp.accumulate(ss[::-1])[::-1]
    k = np.arange(n)
    rem = 1.0 - k * cap
    valid = rem > 0.0
    log_rem = np.log(np.where(valid, rem, 1.0))
    logc = np.where(valid, log_rem - T, np.inf)
    feasible = valid & (log_rem - (T - ss) <= np.log(cap) + 1e-9)
    assert feasible.any(), "no feasible cap count"
    kstar = int(np.argmax(feasible))

    qs = np.empty(n)
    qs[:kstar] = cap
    qs[kstar:] = np.minimum(np.exp(logc[kstar] + ss[kstar:]), cap)
    q = np.empty(n)
    q[order] = qs

    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(q > 0.0, q * np.log(q), 0.0)
    penalty = max(float(np.log(n) + plogp.sum()), 0.0)
    lam = float(-mu * (logc[kstar] + 1.0))
    return SmoothedOracleOutput(
        value=float(q @ L - mu * penalty),
        weights=q,
        lam=lam,
        penalty_value=penalty,
        support=nonzero_support(q),
    )


def scan_weights_entropic(losses, p: float, mu: float) -> SmoothedOracleOutput:
    """Entropic maximizer by a logaddexp scan over the K largest scaled losses.

    The top-K routine as it stood before the shifted cumulative sum and the
    cached log(1 - k*cap) grid replaced its tail sums and feasibility grid;
    kept as the reference that :func:`tailopt.smoothing.smoothed_weights_entropic`
    must match bit for bit in weights and value.  Every tail sum is a
    logaddexp recurrence, exact in range at any spread of L/mu.
    """
    L = np.asarray(losses, dtype=float)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    if p == 0.0 or n * cap <= 1.0:
        q = np.full(n, 1.0 / n)
        lam = float(-mu * (np.log(cap) - float(np.min(L)) / mu + 1.0))
        return SmoothedOracleOutput(
            value=float(q @ L), weights=q, lam=lam, penalty_value=0.0, support=None
        )

    s = L / mu
    K = min(n, int(np.ceil(1.0 / cap)) + 1)
    part = np.partition(s, n - K)
    if K < n:
        rest = part[: n - K]
        m = float(rest.max())
        log_rest = m + float(np.log(np.exp(rest - m).sum()))
    else:
        log_rest = -np.inf
    ascending = np.concatenate(([log_rest], np.sort(part[n - K :])))
    ss = ascending[:0:-1]
    T = np.logaddexp.accumulate(ascending)[:0:-1]
    k = np.arange(K)
    rem = 1.0 - k * cap
    valid = rem > 0.0
    log_rem = np.log(np.where(valid, rem, 1.0))
    log_cap = np.log(cap)
    feasible = valid & (log_rem - (T - ss) <= log_cap + 1e-9)
    assert feasible.any(), "no feasible cap count"
    kstar = int(np.argmax(feasible))

    d = s - ss[kstar]
    uncapped = d <= 0.0
    e = np.exp(np.minimum(d, 0.0)) * uncapped
    Z = float(e.sum())
    n_capped = n - int(np.count_nonzero(uncapped))
    mass = 1.0 - n_capped * cap
    q = np.maximum(np.minimum(e * (mass / Z), cap), cap * ~uncapped)
    plogq = n_capped * cap * log_cap + mass * np.log(mass / Z) + (mass / Z) * float(e @ d)
    penalty = max(float(np.log(n) + plogq), 0.0)
    lam = float(-mu * (log_rem[kstar] - T[kstar] + 1.0))
    return SmoothedOracleOutput(
        value=float(q @ L - mu * penalty),
        weights=q,
        lam=lam,
        penalty_value=penalty,
        support=nonzero_support(q),
    )


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
# solver references
# ---------------------------------------------------------------------------

def scan_initial_step(oracle, x0, f0: float, g0) -> float:
    """Largest grid step 2**k / (1 + ||g0||), k = 20..-20, that strictly
    decreases the objective, found by trying every step from the largest
    down; the smallest grid step if none does.  Reference for
    ``tune_initial_step``, which needs no scan when f is convex along the ray.
    A step where the oracle raises :class:`EvaluationError` has no value and
    so does not decrease it, like one with a non-finite value.
    """
    x0 = np.asarray(x0, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    base = 1.0 / (1.0 + float(np.linalg.norm(g0)))
    for k in range(20, -21, -1):
        alpha = base * 2.0**k
        try:
            f_trial, _ = oracle(x0 - alpha * g0)
        except EvaluationError:
            continue
        if np.isfinite(f_trial) and f_trial < f0:
            return alpha
    return base * 2.0**-20


def two_loop_direction(g: np.ndarray, memory) -> np.ndarray:
    """-H g by the L-BFGS two-loop recursion over ``memory``, a sequence of
    ``(s, y, 1 / (s @ y))`` oldest first, with H0 = (s @ y) / (y @ y) I from
    the newest pair (Nocedal & Wright, *Numerical Optimization*, algorithm
    7.4).  Reference for the compact-form direction of the solvers' L-BFGS
    memory.
    """
    q = g.copy()
    alphas = []
    for s, yv, rho in reversed(memory):
        a = rho * float(s @ q)
        q -= a * yv
        alphas.append(a)
    if memory:
        s, yv, _ = memory[-1]
        q *= (s @ yv) / (yv @ yv)
    for (s, yv, rho), a in zip(memory, reversed(alphas)):
        b = rho * float(yv @ q)
        q += (a - b) * s
    return -q


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def random_lsq_dataset(seed: int, n: int, d: int, noise: float = 0.5) -> Dataset:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    y = X @ w_true + noise * rng.standard_normal(n)
    return Dataset(X, y)


def sample_value(loss, w, x, y) -> float:
    """Loss of the single sample (x, y) at parameters ``w``."""
    return float(loss.value(np.array([x @ w]), np.array([y], dtype=float))[0])


def sample_gradient(loss, w, x, y) -> np.ndarray:
    """Gradient in ``w`` of the single sample (x, y): its slope times x."""
    x = np.asarray(x, dtype=float)
    return loss.slope(np.array([x @ w]), np.array([y], dtype=float))[0] * x


class AbsoluteDeviationLoss:
    """|y - z| at the margin z; x = [1], y = 0 turns the objective into |w|."""

    def value(self, z, y):
        return np.abs(y - z)

    def slope(self, z, y):
        return -np.sign(y - z)


class CountingLoss:
    """Quadratic margin loss that counts its calls and the samples each one sees."""

    def __init__(self):
        self.value_calls = 0
        self.slope_calls = 0
        self.slope_samples = 0

    def value(self, z, y):
        self.value_calls += 1
        r = y - z
        return 0.5 * r * r

    def slope(self, z, y):
        self.slope_calls += 1
        self.slope_samples += len(z)
        return z - y


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
