"""Shared domain types, the margin-loss contract and the oracles' layer functions.

Each oracle forms the margins ``X @ w`` once, takes the losses at them, finds
the dual weights and applies the weighted Jacobian over the weights' support;
:func:`batch_losses` then :func:`jacobian_transpose_apply` do the same
arithmetic, bit for bit.

The dense products ``X @ w`` and full-support ``X.T @ c`` run on a column-major
copy of the features, about twice as fast on tall, narrow data; gathers of the
weight support ``X[S]`` read the row-major ``Dataset.features``, several times
faster there than on the copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Protocol

import numpy as np

__all__ = [
    "Dataset",
    "EvaluationError",
    "MarginLoss",
    "Penalty",
    "RiskParams",
    "batch_losses",
    "check_dual_weights",
    "jacobian_transpose_apply",
]


class EvaluationError(RuntimeError):
    """An oracle evaluation failed: a loss or gradient came out non-finite, or
    a dual weight step lost its root to rounding at an extreme loss-to-mu ratio."""


class Penalty(str, Enum):
    """Dual penalty used by the smoothed oracle."""

    EUCLIDEAN = "euclidean"
    ENTROPIC = "entropic"


@dataclass(frozen=True)
class Dataset:
    """Training corpus: features of shape (n, d) and scalar targets of shape (n,).

    Arrays are copied, cast to float64 and made read-only at construction, so
    instances are immutable and safe to share across threads.  Non-finite
    entries are rejected eagerly with the offending sample index.

    ``features`` is row-major.  The oracles also read a read-only column-major
    copy, which costs one more n-by-d float64 array: it is made on the first
    oracle call, not at construction, and is as safe to share as the rest.
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        X = np.array(self.features, dtype=float)
        y = np.array(self.targets, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {X.shape}")
        if y.ndim != 1:
            raise ValueError(f"targets must be 1-D, got shape {y.shape}")
        n, d = X.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        if y.shape[0] != n:
            raise ValueError(
                f"features have {n} rows but targets have length {y.shape[0]}"
            )
        if not _all_finite(X):
            bad = np.flatnonzero(~np.isfinite(X).all(axis=1))[0]
            raise ValueError(f"non-finite feature value at sample {int(bad)}")
        if not _all_finite(y):
            bad = np.flatnonzero(~np.isfinite(y))[0]
            raise ValueError(f"non-finite target value at sample {int(bad)}")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @cached_property
    def _column_major(self) -> np.ndarray:
        # No copy when the features are already column-major (n == 1 or d == 1).
        X = np.asfortranarray(self.features)
        X.setflags(write=False)
        return X


def _check_level(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"tail level must lie in [0, 1), got {p}")


@dataclass(frozen=True)
class RiskParams:
    """Objective configuration: tail level ``p``, smoothing scale ``mu``, penalty.

    The per-coordinate dual cap 1/(n(1-p)) depends on the sample count and is
    derived through :meth:`cap`.  ``mu`` may be left unset when only the exact
    (nonsmooth) oracle is used; the smoothed oracle requires ``mu > 0``.
    """

    p: float
    mu: float | None = None
    penalty: Penalty = Penalty.EUCLIDEAN

    def __post_init__(self):
        _check_level(self.p)
        if self.mu is not None and not self.mu > 0.0:
            raise ValueError(f"smoothing scale mu must be positive, got {self.mu}")
        object.__setattr__(self, "penalty", Penalty(self.penalty))

    def cap(self, n: int) -> float:
        """Coordinate bound of the dual feasible set for ``n`` samples."""
        return 1.0 / (n * (1.0 - self.p))


def check_dual_weights(q, cap: float, sum_tol: float = 1e-10, box_tol: float = 1e-12) -> np.ndarray:
    """Validate membership of ``q`` in the capped simplex {0 <= q_i <= cap, sum q = 1}.

    Returns the validated array; raises ValueError on violation.
    """
    q = np.asarray(q, dtype=float)
    total = float(q.sum())
    if not abs(total - 1.0) <= sum_tol:  # a NaN weight fails here
        raise ValueError(f"dual weights sum to {total!r}, expected 1 within {sum_tol}")
    lo = float(q.min())
    hi = float(q.max())
    if lo < -box_tol:
        raise ValueError(f"dual weight below 0: {lo!r}")
    if hi > cap + box_tol:
        raise ValueError(f"dual weight above cap {cap!r}: {hi!r}")
    return q


class MarginLoss(Protocol):
    """Loss of each sample as a function of its margin z_i = x_i @ w.

    ``value(z, y)`` and ``slope(z, y)`` act elementwise on equal-length
    margins and targets: the per-sample losses and their derivatives in z.
    Sample i then has gradient ``slope_i * x_i`` in the parameters, so one
    product ``X @ w`` serves both.  Implementations must be stateless.
    """

    def value(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample losses at margins ``z``."""

    def slope(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Derivative of :meth:`value` in each margin."""


def _margins(data: Dataset, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (data.d,):
        raise ValueError(f"parameter vector has shape {w.shape}, expected ({data.d},)")
    # A margin that overflows gives a non-finite loss or slope, which raises
    # naming its sample, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        return data._column_major @ w


def _all_finite(values: np.ndarray) -> bool:
    """Whether every entry is finite: one sum, and a scan only when the sum is
    not, as a NaN or inf entry makes it, and so may finite ones that overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    return math.isfinite(total) or bool(np.isfinite(values).all())


def _losses(loss: MarginLoss, data: Dataset, z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(loss.value(z, data.targets), dtype=float)
    if not _all_finite(values):
        bad = np.flatnonzero(~np.isfinite(values))[0]
        raise EvaluationError(f"non-finite loss value at sample {int(bad)}")
    return values


def _loss_vector(losses) -> np.ndarray:
    """``losses`` as a float vector; anything but a nonempty, finite 1-D one is rejected."""
    L = np.asarray(losses, dtype=float)
    if L.ndim != 1 or L.size == 0:
        raise ValueError(f"losses must be a nonempty 1-D vector, got shape {L.shape}")
    if not _all_finite(L):
        raise ValueError("losses contain non-finite entries")
    return L


def _support(q: np.ndarray) -> np.ndarray | None:
    """Ascending indices of the nonzero entries of ``q``, or None when all are."""
    return None if q.all() else np.flatnonzero(q)


def _gradient(
    loss: MarginLoss, data: Dataset, z: np.ndarray, qs: np.ndarray, support: np.ndarray | None
) -> np.ndarray:
    """sum_i q_i * slope_i * x_i over the support S of q: X[S].T @ (q_S * slope_S).

    ``support`` holds the ascending indices of the nonzero weights and ``qs``
    the weights on it, or ``support`` is None and ``qs`` holds all n weights;
    the product then runs on the column-major copy, with no row gather.
    """
    if support is None:
        X, y, zs = data._column_major, data.targets, z
    else:
        X = data.features.take(support, axis=0)
        y, zs = data.targets[support], z[support]
    slope = np.asarray(loss.slope(zs, y), dtype=float)
    # An overflowing sum raises below, so numpy need not warn of it first.
    with np.errstate(over="ignore", invalid="ignore"):
        g = X.T @ (qs * slope)
    if not np.isfinite(g).all():
        bad = np.flatnonzero(~np.isfinite(slope))
        if bad.size:
            i = bad[0] if support is None else support[bad[0]]
            raise EvaluationError(f"non-finite gradient at sample {int(i)}")
        raise EvaluationError("non-finite gradient accumulation")
    return g


def batch_losses(loss: MarginLoss, data: Dataset, w) -> np.ndarray:
    """Evaluate the per-sample losses at ``w``, returning a length-n vector.

    Entry ``i`` equals ``loss.value`` at the margin ``x_i @ w``.  A non-finite
    loss raises :class:`EvaluationError` naming the offending sample.
    """
    return _losses(loss, data, _margins(data, w))


def jacobian_transpose_apply(loss: MarginLoss, data: Dataset, w, q) -> np.ndarray:
    """Weighted combination of per-sample gradients: sum_i q_i * grad L^i(w).

    Samples with exactly zero weight are skipped, so past the one ``X @ w``
    the cost is O(|support| * d) and ``loss.slope`` sees only the support.  A
    non-finite gradient raises :class:`EvaluationError` naming the offending
    sample.
    """
    z = _margins(data, w)
    q = np.asarray(q, dtype=float)
    if q.shape != (data.n,):
        raise ValueError(f"weight vector has shape {q.shape}, expected ({data.n},)")
    support = _support(q)
    return _gradient(loss, data, z, q if support is None else q[support], support)
