"""Smoothed tail-risk oracle.

The nonsmooth superquantile is the support function of the capped simplex
K = {q : 0 <= q_i <= cap, sum q_i = 1} applied to the loss vector.  Subtracting
a strongly convex penalty mu*d(q) inside that maximum yields a differentiable
surrogate whose maximizer q_mu is unique; the surrogate gradient in parameter
space is the q_mu-weighted combination of per-sample gradients.

Two penalties are supported:

* Euclidean, d(q) = 0.5 * ||q - e/n||^2.  The maximizer is the three-way
  clip of (u - lambda)/mu with u = L + mu/n at the root lambda of the dual
  derivative

      theta'(lambda) = 1 - sum_i clip((u_i - lambda)/mu, 0, cap),

  which is nondecreasing, continuous and piecewise affine with kinks at
  {u_i} and {u_i - mu*cap}.  The root is bracketed by two adjacent
  breakpoints, and that bracket alone sets the weights: on that piece each
  coordinate is capped, zero or affine in lambda, and the affine ones share
  the mass the capped ones leave.

* Entropic, d(q) = log(n) + sum_i q_i log q_i.  The maximizer is the capped
  softmax q_i = min(cap, c * exp(L_i / mu)); the number of capped coordinates
  is the first count k, in a descending scan, whose uncapped remainder fits
  under the cap.  The test needs only the ratio of each tail sum of the
  sorted scaled exponentials to its largest term, and the step keeps no
  state between calls.  The ratios come from one cumulative sum of
  exponentials shifted by the largest entry when the candidates span at most
  700 in L/mu, as in ordinary fits, and from a logaddexp recurrence
  otherwise.  The uncapped block is normalized with exponents shifted by its
  largest entry, so no loss-to-mu ratio overflows or moves the weights off
  the simplex.

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

import numpy as np

from .core import Dataset, DualWeights, EvaluationError, MarginLoss, Penalty, RiskParams
from .core import _check_level, _gradient, _losses, _loss_vector, _margins, _support
from .core import check_dual_weights
# The oracle's layer functions, kept as attributes of this module: the
# benchmark's traced runs rebind them here (bench/workloads.py).
from .core import batch_losses, jacobian_transpose_apply  # noqa: F401

__all__ = [
    "smoothed_oracle",
    "smoothed_weights_entropic",
    "smoothed_weights_euclidean",
]

# Widest span of the entropic tail-ratio block, in L/mu, that the shifted
# cumulative sum handles: exp(-700) ~ 1e-304 is still a normal float.
_EXP_SPAN = 700.0


def _validate(losses, p: float, mu: float) -> np.ndarray:
    _check_level(p)
    if not mu > 0.0:
        raise ValueError(f"smoothing scale mu must be positive, got {mu}")
    return _loss_vector(losses)


def _out_of_range(what: str, L: np.ndarray, mu: float) -> EvaluationError:
    # The weight step lost its root to rounding: the losses dwarf mu.
    ratio = float(np.max(np.abs(L))) / mu
    return EvaluationError(
        f"{what} at loss-to-mu ratio {ratio:.3g}; a larger mu keeps the weight step in range"
    )


def _uniform_output(L: np.ndarray) -> DualWeights:
    # Degenerate feasible set: the uniform vector is the only point.
    n = L.size
    q = np.full(n, 1.0 / n)
    return DualWeights(value=float(q @ L), weights=q, support=None)


def smoothed_weights_euclidean(losses, p: float, mu: float) -> DualWeights:
    """Maximizer of q @ L - mu * 0.5 * ||q - e/n||^2 over the capped simplex."""
    L = _validate(losses, p, mu)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    if p == 0.0 or n * cap <= 1.0:
        return _uniform_output(L)

    u = L + mu / n
    # The r largest u_i alone can fill the cap (r * cap >= 1; one extra for
    # rounding), so the multiplier is at least u_(r) - mu*cap for the r-th
    # largest u_(r), and only the u_i at or above that bound carry weight.
    r = min(n, int(np.ceil(1.0 / cap)) + 1)
    idx = np.flatnonzero(u >= np.partition(u, n - r)[n - r] - mu * cap)
    uc = u[idx]
    m = uc.size
    us = np.sort(uc)
    # Losses near the float range overflow the prefix sums, which then fail
    # the bracket check or the simplex check; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        pre = np.concatenate(([0.0], np.cumsum(us)))
        # Equal breakpoints get equal theta, so repeats never move the bracket.
        bps = np.sort(np.concatenate((uc, uc - mu * cap)))
        hi = np.searchsorted(us, bps + mu * cap, side="right")
        lo = np.searchsorted(us, bps, side="left")
        theta = 1.0 - (pre[hi] - pre[lo] - bps * (hi - lo)) / mu - cap * (m - hi)
        b_idx = int(np.argmax(theta > 0.0))
        # theta is 1 at the largest breakpoint and 1 - m*cap <= 0 at the smallest,
        # so in exact arithmetic a sign change exists between adjacent breakpoints.
        # Once the losses dwarf mu, rounding in the prefix sums can hide it.
        if theta[b_idx] <= 0.0 or b_idx == 0:
            raise _out_of_range("Euclidean dual derivative not bracketed", L, mu)
        a, b = bps[b_idx - 1], bps[b_idx]
        top = uc - mu * cap >= b
    # On [a, b] the rest, the mid set, share the mass the capped coordinates
    # leave: offsets (L_i - L_ref)/mu to their largest loss plus one shift, so
    # the weights sum to 1 by construction.  Rounding that moved the bracket
    # or merged breakpoints shows as weights off the simplex.
    mid = (uc > a) & ~top
    qc = cap * top
    Lm = L[idx[mid]]
    if Lm.size:
        d = (Lm - Lm.max()) / mu
        d += (1.0 - np.count_nonzero(top) * cap - d.sum()) / d.size
        qc[mid] = d
    try:
        check_dual_weights(qc, cap)
    except ValueError:
        raise _out_of_range("Euclidean weights off the capped simplex", L, mu) from None
    q = np.zeros(n)
    q[idx] = qc
    support = idx[qc != 0.0]
    # Each of the n - m zero weights contributes (1/n)^2.
    penalty = float(0.5 * (np.sum((qc - 1.0 / n) ** 2) + (n - m) / n**2))
    value = float(q @ L - mu * penalty)
    return DualWeights(
        value=value,
        weights=q,
        support=None if support.size == n else support,
    )


def _tail_ratios(ascending: np.ndarray) -> np.ndarray:
    """R[i - 1] = sum_{j <= i} exp(ascending[j] - ascending[i]) for i = 1..K; R >= 1.

    ``ascending`` holds the log-sum-exp of the rest (-inf when there is none)
    and then the K largest scaled losses in ascending order, so R[i - 1] is
    the tail sum from ascending[i] down, the rest included, over its largest
    term.  While they span at most _EXP_SPAN, every exp(a - a_max) is a
    normal float, so one cumulative sum, shifted by the largest entry, gives
    every ratio.  A wider block keeps the log domain, where each logaddexp
    step shifts by its larger operand and no spread of L/mu underflows; a log
    ratio past _EXP_SPAN is clipped, since the count passes the cap test at
    any ratio that large.
    """
    a_max = ascending[-1]
    low = ascending[1] if ascending[0] == -np.inf else min(ascending[0], ascending[1])
    if a_max > low + _EXP_SPAN:  # a_max - low could overflow
        R = np.logaddexp.accumulate(ascending)[1:]
        R -= ascending[1:]
        np.minimum(R, _EXP_SPAN, out=R)
        return np.exp(R, out=R)
    E = np.subtract(ascending, a_max)
    np.exp(E, out=E)
    R = np.cumsum(E)[1:]  # the rest alone is no tail sum
    R /= E[1:]
    return R


def smoothed_weights_entropic(losses, p: float, mu: float) -> DualWeights:
    """Maximizer of q @ L - mu * (log n + sum q_i log q_i) over the capped simplex."""
    L = _validate(losses, p, mu)
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    if p == 0.0 or n * cap <= 1.0:
        return _uniform_output(L)

    # An L/mu past the float range leaves no cap count to find.
    try:
        with np.errstate(over="raise"):
            s = L / mu
    except FloatingPointError:
        raise _out_of_range("entropic cap count not found", L, mu) from None
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
    R = _tail_ratios(ascending)
    # Capping the k largest (k = K - 1 - i at ascending position i) leaves
    # mass 1 - k*cap for the uncapped block, whose largest weight is that mass
    # over R[i]; count k is feasible when it stays under the cap.  The
    # tolerance, relative to R, absorbs rounding of 1 - k*cap near the
    # critical count, where the exact margin is zero; accepted overshoot is
    # clipped below.  R >= 1, so a count below 1/cap always passes, and no
    # count that leaves no mass is reached.  A NaN ratio passes nowhere.
    feasible = R * (1.0 + 1e-9) + np.arange(K - 1, -1, -1) >= 1.0 / cap
    kstar = int(np.argmax(feasible[::-1]))
    i = K - 1 - kstar
    if not feasible[i]:
        raise _out_of_range("entropic cap count not found", L, mu)
    s_max = ascending[1 + i]

    # The uncapped block gets mass * exp(d_i) / Z with d_i = s_i - s_max, where
    # s_max is its largest entry and Z = sum_j exp(d_j): every exponent is
    # <= 0, and the block sums to its mass up to rounding whatever the size of
    # L/mu.  Its entropy follows from log q_i = log(mass / Z) + d_i.
    # Entries tied with s_max stay in the block; they sit at the cap within
    # the scan's tolerance either way.
    d = np.subtract(s, s_max, out=s)
    uncapped = d <= 0.0
    e = np.minimum(d, 0.0)
    np.exp(e, out=e)
    e *= uncapped  # capped entries get e = 0
    Z = float(e.sum())
    n_capped = n - int(np.count_nonzero(uncapped))
    mass = 1.0 - n_capped * cap
    q = np.multiply(e, mass / Z)
    np.minimum(q, cap, out=q)
    # Capped entries have q = 0 here; the maximum lifts them to the cap.  It
    # costs the same at any cap count, where a mask assignment slows down as
    # the count grows.
    np.maximum(q, cap * ~uncapped, out=q)
    plogq = n_capped * cap * np.log(cap) + mass * np.log(mass / Z) + (mass / Z) * float(e @ d)
    penalty = max(float(np.log(n) + plogq), 0.0)
    return DualWeights(
        value=float(q @ L - mu * penalty),
        weights=q,
        support=_support(q),
    )


def smoothed_oracle(
    loss: MarginLoss, data: Dataset, w, params: RiskParams
) -> tuple[float, np.ndarray]:
    """Smoothed objective value and gradient at parameters ``w``.

    The gradient is the dual-weighted combination of per-sample gradients at
    the maximizer, hence exact for the surrogate (not a finite-difference
    approximation).
    """
    if params.mu is None:
        raise ValueError("smoothed oracle requires mu > 0 in RiskParams")
    # Looked up at call time, so a rebound weight function is the one called.
    if params.penalty is Penalty.ENTROPIC:
        weights = smoothed_weights_entropic
    else:
        weights = smoothed_weights_euclidean
    z = _margins(data, w)
    out = weights(_losses(loss, data, z), params.p, params.mu)
    S = out.support
    qS = out.weights if S is None else out.weights[S]
    return out.value, _gradient(loss, data, z, qS, S)
