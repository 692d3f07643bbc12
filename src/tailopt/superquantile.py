"""Exact (nonsmooth) tail-risk oracle.

Empirical quantile and superquantile of a loss vector, plus one canonical
subgradient of the superquantile objective obtained through its dual weights.

Conventions.  The empirical p-quantile is the left-continuous generalized
inverse of the empirical CDF: the k-th order statistic with k = ceil(n*p)
(1-indexed), and the minimum for p = 0.  The superquantile is the maximum of
q @ L over the capped simplex {0 <= q_i <= 1/(n(1-p)), sum q = 1}
(Rockafellar & Uryasev 2000).  One weight step attains it: the samples above
the quantile take the cap and the tied ones share what mass is left, and the
value is that q @ L.  :func:`superquantile`, :func:`exact_subgradient_weights`
and :func:`exact_oracle` all return this value, bit for bit.  The step uses
selection (no full sort), so it runs in O(n).
"""

from __future__ import annotations

import math

import numpy as np

from .core import Dataset, DualWeights, MarginLoss, _check_level, _gradient, _losses, _loss_vector
from .core import _margins

__all__ = [
    "exact_oracle",
    "exact_subgradient_weights",
    "quantile",
    "superquantile",
]


def quantile(losses, p: float) -> float:
    """Empirical p-quantile: smallest x with CDF(x) >= p.

    For p = 0 this is the minimum; otherwise the ceil(n*p)-th order statistic.
    No interpolation is performed.  Non-finite losses raise ``ValueError``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"quantile level must lie in [0, 1], got {p}")
    return _order_statistic(_loss_vector(losses), p)


def _order_statistic(L: np.ndarray, p: float) -> float:
    # The empirical p-quantile of a checked loss vector; NaN sorts last.
    if p == 0.0:
        return float(L.min())
    k = min(int(math.ceil(L.size * p)), L.size)
    return float(np.partition(L, k - 1)[k - 1])


def superquantile(losses, p: float) -> float:
    """Average of the empirical quantiles above level p (tail expectation).

    The exact weight step's value, bit for bit :func:`exact_oracle`'s; the mean
    at p = 0 up to rounding.  Levels p >= 1 are rejected; use ``max`` for p = 1.
    """
    _check_level(p)
    return _tail_weights(_loss_vector(losses), p)[2]


def _tail_weights(L: np.ndarray, p: float) -> tuple[np.ndarray | None, np.ndarray, float]:
    """The exact weight step on a finite loss vector, on the support only.

    Returns the support S (ascending indices of the nonzero weights, or None
    when it holds all n samples), the weights on S and the value q_S @ L_S.
    """
    n = L.size
    cap = 1.0 / (n * (1.0 - p))
    qv = _order_statistic(L, p)
    S = np.flatnonzero(L >= qv)
    LS = L[S]
    above = LS > qv
    n_above = int(np.count_nonzero(above))
    n_tied = S.size - n_above
    # Uniform split of the tie mass; alpha lies in [0, 1) by construction.
    alpha = (n - n_above - n * p) / n_tied
    if alpha == 0.0:
        S, LS = S[above], LS[above]
        qS = np.full(S.size, cap)
    else:
        qS = np.where(above, cap, cap * alpha)
    return None if S.size == n else S, qS, float(qS @ LS)


def exact_subgradient_weights(losses, p: float) -> DualWeights:
    """Dual weights realizing one canonical subgradient of the superquantile.

    Samples strictly above the quantile get the cap 1/(n(1-p)), samples
    strictly below get 0, and the samples tied with the quantile share the
    leftover mass uniformly.  Tie detection uses exact floating-point equality
    with the quantile, which is itself one of the loss values.  The returned
    weights maximize q @ losses over the capped simplex.

    One scan finds the samples at or above the quantile; they are the support,
    less the tied ones when the leftover mass is zero.  The value sums over
    the support alone, as :func:`exact_oracle` does, so both agree bit for
    bit.  Non-finite losses raise ``ValueError``, also at zero weight.
    """
    _check_level(p)
    L = _loss_vector(losses)
    S, qS, value = _tail_weights(L, p)
    if S is None:
        weights = qS
    else:
        weights = np.zeros(L.size)
        weights[S] = qS
    return DualWeights(value=value, weights=weights, support=S)


def exact_oracle(
    loss: MarginLoss, data: Dataset, w, p: float
) -> tuple[float, np.ndarray]:
    """Superquantile objective value and one subgradient at parameters ``w``.

    The subgradient is the dual-weighted combination of per-sample gradients;
    for convex losses it satisfies the subgradient inequality globally.  The
    weight step runs on the checked losses and hands only the support and its
    weights to the gradient; no dense weight vector is formed.
    """
    _check_level(p)
    z = _margins(data, w)
    S, qS, value = _tail_weights(_losses(loss, data, z), p)
    return value, _gradient(loss, data, z, qS, S)
