"""Margin losses for linear models, and the closed-form baseline.

Both losses follow :class:`~tailopt.core.MarginLoss`, are stateless and are
convex in the parameters.  An intercept is the caller's responsibility: append
a constant-1 feature column if you want one.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset

__all__ = [
    "LinearLeastSquares",
    "LinearLogistic",
    "SingularSystemError",
    "ols_closed_form",
]


class SingularSystemError(ValueError):
    """The normal equations are singular: the features are collinear."""


class LinearLeastSquares:
    """0.5 * (y - z)**2 at the margin z = w @ x, with slope z - y."""

    def value(self, z, y):
        r = y - z
        # 0.5 * r * r with one temporary fewer, bit for bit; r * r first
        # would overflow for |r| above about 1.34e154.
        h = 0.5 * r
        h *= r
        return h

    def slope(self, z, y):
        return z - y


class LinearLogistic:
    """log(1 + exp(-y * z)) at the margin z = w @ x, for labels y in {-1, +1}.

    The value is evaluated through the stable softplus form, so margins of
    magnitude several hundred neither overflow nor lose the sign.  The slope is
    -y / (1 + exp(y * z)); where ``exp`` overflows to inf it reads 0, its limit.
    """

    def value(self, z, y):
        bad = np.flatnonzero(np.abs(y) != 1.0)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"logistic targets must be -1 or +1, got {y[i]!r} at sample {i}")
        return np.logaddexp(0.0, -y * z)

    def slope(self, z, y):
        with np.errstate(over="ignore"):
            return -y / (1.0 + np.exp(y * z))


def ols_closed_form(data: Dataset) -> np.ndarray:
    """Least-squares parameters from a dense solve of the normal equations.

    Solves X^T X w = X^T y.  A singular or numerically rank-deficient system,
    as collinear features give, raises :class:`SingularSystemError`.
    """
    X, y = data.features, data.targets
    A = X.T @ X
    b = X.T @ y
    message = "normal equations are singular: the features are collinear"
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(message) from exc
    if not np.isfinite(w).all() or np.linalg.cond(A) > 1e14:
        raise SingularSystemError(message)
    return w
