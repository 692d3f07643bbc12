"""Exact (nonsmooth) tail-risk oracle.

Empirical quantile and superquantile of a loss vector, plus one canonical
subgradient of the superquantile objective obtained through its dual weights.

Conventions.  The empirical p-quantile is the left-continuous generalized
inverse of the empirical CDF: the k-th order statistic with k = ceil(n*p)
(1-indexed), and the minimum for p = 0.  The superquantile is evaluated with
the shifted-tail identity

    sqt_p(L) = Q_p + (1 / (n(1-p))) * sum_i max(L_i - Q_p, 0),

which for an empirical distribution agrees exactly with the average of the
quantiles above level p.  Both computations use selection (no full sort), so
they run in O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, MarginLoss, _oracle

__all__ = [
    "ExactOracleOutput",
    "exact_oracle",
    "exact_subgradient_weights",
    "quantile",
    "superquantile",
]


@dataclass(frozen=True)
class ExactOracleOutput:
    """Value and dual weights of the exact oracle at one loss vector.

    ``weights`` lies in the capped simplex and attains the dual maximum, so
    ``value == weights @ losses``.  ``quantile`` is the empirical p-quantile
    and ``tie_set_size`` the number of samples whose loss equals it.
    ``support`` holds the ascending indices of the nonzero weights, or is None
    when all of them are nonzero.
    """

    value: float
    weights: np.ndarray
    quantile: float
    tie_set_size: int
    support: np.ndarray | None


def _as_loss_vector(losses) -> np.ndarray:
    L = np.asarray(losses, dtype=float)
    if L.ndim != 1 or L.size == 0:
        raise ValueError(f"losses must be a nonempty 1-D vector, got shape {L.shape}")
    return L


def quantile(losses, p: float) -> float:
    """Empirical p-quantile: smallest x with CDF(x) >= p.

    For p = 0 this is the minimum; otherwise the ceil(n*p)-th order statistic.
    No interpolation is performed.
    """
    L = _as_loss_vector(losses)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"quantile level must lie in [0, 1], got {p}")
    if p == 0.0:
        return float(L.min())
    k = min(int(math.ceil(L.size * p)), L.size)
    return float(np.partition(L, k - 1)[k - 1])


def superquantile(losses, p: float) -> float:
    """Average of the empirical quantiles above level p (tail expectation).

    Equals the mean at p = 0 and approaches the maximum as p -> 1.  Levels
    p >= 1 are rejected; use ``max`` explicitly if that is what you want.
    """
    L = _as_loss_vector(losses)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"superquantile level must lie in [0, 1), got {p}")
    if p == 0.0:
        return float(L.mean())
    q = quantile(L, p)
    cap = 1.0 / (L.size * (1.0 - p))
    return float(q + cap * np.sum(np.maximum(L - q, 0.0)))


def exact_subgradient_weights(losses, p: float) -> ExactOracleOutput:
    """Dual weights realizing one canonical subgradient of the superquantile.

    Samples strictly above the quantile get the cap 1/(n(1-p)), samples
    strictly below get 0, and the samples tied with the quantile share the
    leftover mass uniformly.  Tie detection uses exact floating-point equality
    with the quantile, which is itself one of the loss values.  The returned
    weights maximize q @ losses over the capped simplex.

    One scan finds the samples at or above the quantile; they are the support,
    less the tied ones when the leftover mass is zero, and the oracle hands it
    to the gradient with the weights.
    """
    L = _as_loss_vector(losses)
    n = L.size
    if not 0.0 <= p < 1.0:
        raise ValueError(f"tail level must lie in [0, 1), got {p}")
    cap = 1.0 / (n * (1.0 - p))
    qv = quantile(L, p)
    S = np.flatnonzero(L >= qv)
    above = L[S] > qv
    n_above = int(np.count_nonzero(above))
    n_tied = S.size - n_above
    n_le = n - n_above
    # Uniform split of the tie mass; alpha lies in [0, 1) by construction.
    alpha = (n_le - n * p) / n_tied
    weights = np.zeros(n)
    weights[S] = np.where(above, cap, cap * alpha)
    if alpha == 0.0:
        S = S[above]
    return ExactOracleOutput(
        value=float(weights @ L),
        weights=weights,
        quantile=qv,
        tie_set_size=n_tied,
        support=None if S.size == n else S,
    )


def exact_oracle(
    loss: MarginLoss, data: Dataset, w, p: float
) -> tuple[float, np.ndarray]:
    """Superquantile objective value and one subgradient at parameters ``w``.

    The subgradient is the dual-weighted combination of per-sample gradients;
    for convex losses it satisfies the subgradient inequality globally.
    """
    return _oracle(loss, data, w, lambda L: exact_subgradient_weights(L, p))
