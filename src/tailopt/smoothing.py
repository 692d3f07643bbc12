"""Smoothed tail-risk oracle.

The nonsmooth superquantile is the support function of the capped simplex
K = {q : 0 <= q_i <= cap, sum q_i = 1} applied to the loss vector.  Subtracting
a strongly convex penalty mu*d(q) inside that maximum yields a differentiable
surrogate whose maximizer q_mu is unique; the surrogate gradient in parameter
space is the q_mu-weighted combination of per-sample gradients.

Two penalties are supported:

* Euclidean, d(q) = 0.5 * ||q - e/n||^2.  The maximizer is recovered from the
  scalar dual multiplier lambda via a three-way clip of (u - lambda)/mu with
  u = L + mu/n.  The dual derivative

      theta'(lambda) = 1 - sum_i clip((u_i - lambda)/mu, 0, cap)

  is nondecreasing, continuous and piecewise affine with kinks at
  {u_i} and {u_i - mu*cap}, so the root is bracketed by two adjacent
  breakpoints and found by one exact affine interpolation.

* Entropic, d(q) = log(n) + sum_i q_i log q_i.  The maximizer is the capped
  softmax q_i = min(cap, c * exp(L_i / mu)); the number of capped coordinates
  is located by a descending scan, and the uncapped block is normalized with
  exponents shifted by its largest entry, so no loss-to-mu ratio overflows or
  moves the weights off the simplex.

Neither routine sorts all n losses; each sorts a candidate set found by one
O(n) partition, with cap = 1/(n(1-p)) and r = ceil(1/cap) <= n:

* Euclidean: the r largest u_i alone fill the cap, so lambda >= u_(r) - mu*cap
  for the r-th largest u_(r), and only {i : u_i >= u_(r) - mu*cap} can carry
  weight.  The set holds the top r plus the u_i within mu*cap below u_(r).
* Entropic: k capped coordinates leave mass 1 - k*cap > 0, so k < r and the
  scan needs only the r largest L_i / mu (plus one, for rounding); the rest
  enter through one log-sum-exp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, MarginLoss, Penalty, RiskParams, _oracle
# The oracle's layer functions, kept as attributes of this module: the
# benchmark's traced runs rebind them here (bench/workloads.py).
from .core import batch_losses, jacobian_transpose_apply  # noqa: F401

__all__ = [
    "SmoothedOracleOutput",
    "smoothed_oracle",
    "smoothed_weights_entropic",
    "smoothed_weights_euclidean",
]


@dataclass(frozen=True)
class SmoothedOracleOutput:
    """Maximizer of the penalized dual problem at one loss vector.

    ``value`` is the smoothed objective weights @ losses - mu * penalty_value,
    ``lam`` the optimal scalar multiplier of the sum constraint.  The Euclidean
    routine adds -lam * (sum(weights) - 1), which is zero up to rounding and
    makes the value the dual function at ``lam`` (see
    :func:`smoothed_weights_euclidean`).
    """

    value: float
    weights: np.ndarray
    lam: float
    penalty_value: float


def _validate(losses, p: float, mu: float) -> np.ndarray:
    L = np.asarray(losses, dtype=float)
    if L.ndim != 1 or L.size == 0:
        raise ValueError(f"losses must be a nonempty 1-D vector, got shape {L.shape}")
    if not np.isfinite(L).all():
        raise ValueError("losses contain non-finite entries")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"tail level must lie in [0, 1), got {p}")
    if not mu > 0.0:
        raise ValueError(f"smoothing scale mu must be positive, got {mu}")
    return L


def _uniform_output(L: np.ndarray, lam: float) -> SmoothedOracleOutput:
    # Degenerate feasible set: the uniform vector is the only point.
    n = L.size
    q = np.full(n, 1.0 / n)
    return SmoothedOracleOutput(
        value=float(q @ L), weights=q, lam=lam, penalty_value=0.0
    )


def smoothed_weights_euclidean(losses, p: float, mu: float) -> SmoothedOracleOutput:
    """Maximizer of q @ L - mu * 0.5 * ||q - e/n||^2 over the capped simplex."""
    L = _validate(losses, p, mu)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    if p == 0.0 or n * cap <= 1.0:
        # Boundary multiplier: every coordinate sits at the cap 1/n.
        return _uniform_output(L, lam=float(np.min(L) + mu / n - mu * cap))

    u = L + mu / n
    # The r largest u_i alone can fill the cap (r * cap >= 1; one extra for
    # rounding), so the multiplier is at least u_(r) - mu*cap for the r-th
    # largest u_(r), and only the u_i at or above that bound carry weight.
    r = min(n, int(np.ceil(1.0 / cap)) + 1)
    idx = np.flatnonzero(u >= np.partition(u, n - r)[n - r] - mu * cap)
    uc = u[idx]
    m = uc.size
    us = np.sort(uc)
    pre = np.concatenate(([0.0], np.cumsum(us)))
    bps = np.unique(np.concatenate((uc, uc - mu * cap)))

    def theta_at(lams: np.ndarray) -> np.ndarray:
        hi = np.searchsorted(us, lams + mu * cap, side="right")
        lo = np.searchsorted(us, lams, side="left")
        n_mid = hi - lo
        sum_mid = pre[hi] - pre[lo]
        n_top = m - hi
        return 1.0 - (sum_mid - lams * n_mid) / mu - cap * n_top

    theta = theta_at(bps)
    b_idx = int(np.argmax(theta > 0.0))
    # theta is 1 at the largest breakpoint and 1 - m*cap <= 0 at the smallest,
    # so a sign change always exists between adjacent breakpoints.
    if theta[b_idx] <= 0.0 or b_idx == 0:
        raise AssertionError("dual derivative not bracketed; unreachable for p > 0")
    a, b = bps[b_idx - 1], bps[b_idx]
    ta, tb = theta[b_idx - 1], theta[b_idx]
    if abs(ta) <= 1e-12:
        lam = float(a)
    else:
        # theta is affine between adjacent breakpoints: interpolation is exact.
        lam = float(a - ta * (b - a) / (tb - ta))

    qc = np.clip((uc - lam) / mu, 0.0, cap)
    drift = float(qc.sum()) - 1.0
    if abs(drift) > 5e-12:
        # One Newton correction on the active affine piece, then re-clip.
        n_mid = int(np.count_nonzero((uc - mu * cap <= lam) & (lam <= uc)))
        if n_mid > 0:
            lam += drift * mu / n_mid
            qc = np.clip((uc - lam) / mu, 0.0, cap)
    q = np.zeros(n)
    q[idx] = qc
    # Each of the n - m zero weights contributes (1/n)^2.
    penalty = float(0.5 * (np.sum((qc - 1.0 / n) ** 2) + (n - m) / n**2))
    # q maximizes the Lagrangian q @ L - mu*d(q) - lam*(sum q - 1) over the box
    # at this lam, and that dual function is stationary at the optimal lam, so
    # its value moves only to second order with a rounding error in lam.  The
    # plain q @ L - mu*d(q) moves by lam times the drift of sum q, and one ulp
    # of lam already moves sum q by n_mid * ulp(lam) / mu.
    value = float(q @ L - mu * penalty - lam * (float(qc.sum()) - 1.0))
    return SmoothedOracleOutput(value=value, weights=q, lam=lam, penalty_value=penalty)


def smoothed_weights_entropic(losses, p: float, mu: float) -> SmoothedOracleOutput:
    """Maximizer of q @ L - mu * (log n + sum q_i log q_i) over the capped simplex."""
    L = _validate(losses, p, mu)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    if p == 0.0 or n * cap <= 1.0:
        # Boundary normalizer: the smallest coordinate sits exactly at the cap.
        logc = np.log(cap) - float(np.min(L)) / mu
        return _uniform_output(L, lam=float(-mu * (logc + 1.0)))

    s = L / mu
    # Capping k coordinates leaves mass 1 - k*cap > 0, so k < ceil(1/cap): the
    # cap count is found among the K largest scaled losses (one extra for
    # rounding), and the rest enter through one log-sum-exp.
    K = min(n, int(np.ceil(1.0 / cap)) + 1)
    part = np.partition(s, n - K)
    if K < n:
        rest = part[: n - K]
        m = float(rest.max())
        log_rest = m + float(np.log(np.exp(rest - m).sum()))
    else:
        log_rest = -np.inf
    ascending = np.concatenate(([log_rest], np.sort(part[n - K :])))
    ss = ascending[:0:-1]  # the K largest, descending
    # T[k] = log sum_{i >= k} exp(ss[i]) over the sorted block and the rest;
    # each logaddexp step shifts by its larger operand, so no spread of L/mu
    # overflows or underflows.
    T = np.logaddexp.accumulate(ascending)[:0:-1]
    k = np.arange(K)
    rem = 1.0 - k * cap  # mass left for the uncapped block when k are capped
    valid = rem > 0.0
    log_rem = np.log(np.where(valid, rem, 1.0))
    log_cap = np.log(cap)
    # The tolerance absorbs rounding of 1 - k*cap near the critical count,
    # where the exact margin is zero; accepted overshoot is clipped below.
    # T - ss is formed first: adding log_rem - T to ss instead would combine
    # two numbers of size |L/mu| and lose the margin to rounding once |L/mu|
    # reaches about 1e10.
    feasible = valid & (log_rem - (T - ss) <= log_cap + 1e-9)
    if not feasible.any():
        raise AssertionError("no feasible cap count; unreachable for p > 0")
    kstar = int(np.argmax(feasible))

    # The uncapped block gets mass * exp(d_i) / Z with d_i = s_i - s_max, where
    # s_max = ss[kstar] is its largest entry and Z = sum_j exp(d_j): every
    # exponent is <= 0, and the block sums to its mass up to rounding whatever
    # the size of L/mu.  Its entropy follows from log q_i = log(mass / Z) + d_i.
    # Entries tied with s_max stay in the block; they sit at the cap within
    # the scan's tolerance either way.
    d = s - ss[kstar]
    uncapped = d <= 0.0
    e = np.exp(np.minimum(d, 0.0)) * uncapped
    Z = float(e.sum())
    n_capped = n - int(np.count_nonzero(uncapped))
    mass = 1.0 - n_capped * cap
    # Capped entries have e = 0; the maximum lifts them to the cap.
    q = np.maximum(np.minimum(e * (mass / Z), cap), cap * ~uncapped)
    plogq = n_capped * cap * log_cap + mass * np.log(mass / Z) + (mass / Z) * float(e @ d)
    penalty = max(float(np.log(n) + plogq), 0.0)
    lam = float(-mu * (log_rem[kstar] - T[kstar] + 1.0))
    return SmoothedOracleOutput(
        value=float(q @ L - mu * penalty), weights=q, lam=lam, penalty_value=penalty
    )


def smoothed_oracle(
    loss: MarginLoss, data: Dataset, w, params: RiskParams
) -> tuple[float, np.ndarray]:
    """Smoothed objective value and gradient at parameters ``w``.

    The gradient is the dual-weighted combination of per-sample gradients at
    the maximizer, hence exact for the surrogate (not a finite-difference
    approximation).
    """
    if params.mu is None or not params.mu > 0.0:
        raise ValueError("smoothed oracle requires mu > 0 in RiskParams")
    # Looked up at call time, so a rebound weight function is the one called.
    if params.penalty is Penalty.ENTROPIC:
        weights = smoothed_weights_entropic
    else:
        weights = smoothed_weights_euclidean
    return _oracle(loss, data, w, lambda L: weights(L, params.p, params.mu))
