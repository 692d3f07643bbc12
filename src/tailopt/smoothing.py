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
  is located by a descending scan, and the normalizer c is solved in closed
  form from the uncapped block in the log domain, so large loss-to-mu ratios
  do not overflow.

Breakpoint search here sorts (O(n log n)); correctness, not the constant, is
the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, PerSampleLoss, RiskParams, batch_losses, jacobian_transpose_apply

__all__ = [
    "SmoothedOracleOutput",
    "smoothed_oracle",
    "smoothed_weights_entropic",
    "smoothed_weights_euclidean",
    "theta_prime",
]


@dataclass(frozen=True)
class SmoothedOracleOutput:
    """Maximizer of the penalized dual problem at one loss vector.

    ``value`` is the smoothed objective weights @ losses - mu * penalty_value,
    ``lam`` the optimal scalar multiplier of the sum constraint.
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


def theta_prime(lam: float, losses, p: float, mu: float) -> float:
    """Derivative of the Euclidean dual function at multiplier ``lam``.

    Nondecreasing in ``lam``; tends to 1 for large ``lam`` and to
    1 - n*cap < 0 below all breakpoints when p > 0.  The root is the optimal
    multiplier of :func:`smoothed_weights_euclidean`.
    """
    L = _validate(losses, p, mu)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    u = L + mu / n
    return float(1.0 - np.clip((u - lam) / mu, 0.0, cap).sum())


def smoothed_weights_euclidean(losses, p: float, mu: float) -> SmoothedOracleOutput:
    """Maximizer of q @ L - mu * 0.5 * ||q - e/n||^2 over the capped simplex."""
    L = _validate(losses, p, mu)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    if p == 0.0 or n * cap <= 1.0:
        # Boundary multiplier: every coordinate sits at the cap 1/n.
        return _uniform_output(L, lam=float(np.min(L) + mu / n - mu * cap))

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
    # theta is 1 at the largest breakpoint and 1 - n*cap < 0 at the smallest,
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

    q = np.clip((u - lam) / mu, 0.0, cap)
    drift = float(q.sum()) - 1.0
    if abs(drift) > 5e-12:
        # One Newton correction on the active affine piece, then re-clip.
        n_mid = int(np.count_nonzero((u - mu * cap <= lam) & (lam <= u)))
        if n_mid > 0:
            lam += drift * mu / n_mid
            q = np.clip((u - lam) / mu, 0.0, cap)
    penalty = float(0.5 * np.sum((q - 1.0 / n) ** 2))
    return SmoothedOracleOutput(
        value=float(q @ L - mu * penalty), weights=q, lam=lam, penalty_value=penalty
    )


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
    order = np.argsort(-s, kind="stable")
    ss = s[order]
    # T[k] = log sum_{i >= k} exp(ss[i]); pairwise accumulation keeps the
    # usual max shift, so losses of magnitude ~1e4/mu are safe.
    T = np.logaddexp.accumulate(ss[::-1])[::-1]
    k = np.arange(n)
    rem = 1.0 - k * cap  # mass left for the uncapped block when k are capped
    valid = rem > 0.0
    log_rem = np.log(np.where(valid, rem, 1.0))
    logc = np.where(valid, log_rem - T, np.inf)
    log_cap = np.log(cap)
    # The tolerance absorbs rounding of 1 - k*cap near the critical count,
    # where the exact margin is zero; accepted overshoot is clipped below.
    # T - ss is formed first: logc + ss would add two numbers of size |L/mu|
    # and lose the margin to rounding once |L/mu| reaches about 1e10.
    feasible = valid & (log_rem - (T - ss) <= log_cap + 1e-9)
    if not feasible.any():
        raise AssertionError("no feasible cap count; unreachable for p > 0")
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
        value=float(q @ L - mu * penalty), weights=q, lam=lam, penalty_value=penalty
    )


def smoothed_oracle(
    loss: PerSampleLoss, data: Dataset, w, params: RiskParams
) -> tuple[float, np.ndarray]:
    """Smoothed objective value and gradient at parameters ``w``.

    The gradient is the dual-weighted combination of per-sample gradients at
    the maximizer, hence exact for the surrogate (not a finite-difference
    approximation).
    """
    if params.mu is None or not params.mu > 0.0:
        raise ValueError("smoothed oracle requires mu > 0 in RiskParams")
    L = batch_losses(loss, data, w)
    if params.penalty.value == "entropic":
        out = smoothed_weights_entropic(L, params.p, params.mu)
    else:
        out = smoothed_weights_euclidean(L, params.p, params.mu)
    g = jacobian_transpose_apply(loss, data, w, out.weights)
    return out.value, g
