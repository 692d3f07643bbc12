"""Margin losses for linear models, and the closed-form baseline.

Both losses follow :class:`~tailopt.core.MarginLoss`, are stateless and are
convex in the parameters.  An intercept is the caller's responsibility: append
a constant-1 feature column if you want one.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .core import Dataset

__all__ = [
    "LinearLeastSquares",
    "LinearLogistic",
    "SingularSystemError",
    "ols_closed_form",
]


class SingularSystemError(ValueError):
    """Normal equations are singular; retry with a positive ridge."""


class LinearLeastSquares:
    """0.5 * (y - z)**2 at the margin z = w @ x, with slope z - y."""

    def value(self, z, y):
        r = y - z
        return 0.5 * r * r

    def slope(self, z, y):
        return z - y


class LinearLogistic:
    """log(1 + exp(-y * z)) at the margin z = w @ x, for labels y in {-1, +1}.

    Evaluated through the stable softplus form, so margins of magnitude
    several hundred neither overflow nor lose the sign.
    """

    def value(self, z, y):
        bad = np.flatnonzero(np.abs(y) != 1.0)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"logistic targets must be -1 or +1, got {y[i]!r} at sample {i}")
        return np.logaddexp(0.0, -y * z)

    def slope(self, z, y):
        return -y * expit(-(y * z))


def ols_closed_form(data: Dataset, ridge: float = 0.0) -> np.ndarray:
    """Least-squares parameters from a dense solve of the normal equations.

    Solves (X^T X + ridge * I) w = X^T y.  With ridge = 0 a singular or
    numerically rank-deficient system raises :class:`SingularSystemError`.
    """
    if ridge < 0.0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    X, y = data.features, data.targets
    A = X.T @ X + ridge * np.eye(data.d)
    b = X.T @ y
    advice = "normal equations are singular; pass ridge > 0"
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(advice) from exc
    if not np.isfinite(w).all() or (ridge == 0.0 and np.linalg.cond(A) > 1e14):
        raise SingularSystemError(advice)
    return w
