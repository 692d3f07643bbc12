"""Shared domain types and the batch loss/Jacobian evaluation contract."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Dataset",
    "EvaluationError",
    "Penalty",
    "PerSampleLoss",
    "RiskParams",
    "batch_losses",
    "check_dual_weights",
    "jacobian_transpose_apply",
]


class EvaluationError(RuntimeError):
    """A loss or gradient evaluation produced a non-finite value."""


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
        bad_rows = ~np.isfinite(X).all(axis=1)
        if bad_rows.any():
            raise ValueError(
                f"non-finite feature value at sample {int(np.flatnonzero(bad_rows)[0])}"
            )
        bad = ~np.isfinite(y)
        if bad.any():
            raise ValueError(
                f"non-finite target value at sample {int(np.flatnonzero(bad)[0])}"
            )
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
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"tail level p must satisfy 0 <= p < 1, got {self.p}")
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
    if abs(total - 1.0) > sum_tol:
        raise ValueError(f"dual weights sum to {total!r}, expected 1 within {sum_tol}")
    lo = float(q.min())
    hi = float(q.max())
    if lo < -box_tol:
        raise ValueError(f"dual weight below 0: {lo!r}")
    if hi > cap + box_tol:
        raise ValueError(f"dual weight above cap {cap!r}: {hi!r}")
    return q


class PerSampleLoss(ABC):
    """Loss of a single sample as a function of the parameter vector.

    Subclasses implement ``value`` and ``gradient`` for one (x, y) pair.  The
    batch hooks below have generic per-sample fallbacks; vectorised models
    override them for speed.  Implementations must be stateless.
    """

    @abstractmethod
    def value(self, w: np.ndarray, x: np.ndarray, y: float) -> float:
        """Loss at parameters ``w`` for the sample (x, y)."""

    @abstractmethod
    def gradient(self, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
        """Gradient of :meth:`value` with respect to ``w``."""

    def batch_values(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.array(
            [self.value(w, X[i], y[i]) for i in range(X.shape[0])], dtype=float
        )

    def weighted_gradient_sum(
        self, w: np.ndarray, X: np.ndarray, y: np.ndarray, q: np.ndarray
    ) -> np.ndarray:
        acc = np.zeros(X.shape[1])
        for i in range(X.shape[0]):
            acc += q[i] * np.asarray(self.gradient(w, X[i], y[i]), dtype=float)
        return acc


def batch_losses(loss: PerSampleLoss, data: Dataset, w) -> np.ndarray:
    """Evaluate the per-sample losses at ``w``, returning a length-n vector.

    Entry ``i`` equals ``loss.value(w, x_i, y_i)``.  A non-finite loss raises
    :class:`EvaluationError` naming the offending sample.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (data.d,):
        raise ValueError(f"parameter vector has shape {w.shape}, expected ({data.d},)")
    values = np.asarray(loss.batch_values(w, data.features, data.targets), dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        raise EvaluationError(
            f"non-finite loss value at sample {int(np.flatnonzero(bad)[0])}"
        )
    return values


def jacobian_transpose_apply(loss: PerSampleLoss, data: Dataset, w, q) -> np.ndarray:
    """Weighted combination of per-sample gradients: sum_i q_i * grad L^i(w).

    Samples with exactly zero weight are skipped, so the cost is
    O(|support| * d).  A non-finite gradient raises :class:`EvaluationError`
    naming the offending sample.
    """
    w = np.asarray(w, dtype=float)
    q = np.asarray(q, dtype=float)
    if w.shape != (data.d,):
        raise ValueError(f"parameter vector has shape {w.shape}, expected ({data.d},)")
    if q.shape != (data.n,):
        raise ValueError(f"weight vector has shape {q.shape}, expected ({data.n},)")
    if q.all():
        # Full support: pass the stored arrays on as they are, with no row copy.
        X, y, qs = data.features, data.targets, q
    else:
        support = np.flatnonzero(q)
        if support.size == 0:
            return np.zeros(data.d)
        X, y, qs = data.features[support], data.targets[support], q[support]
    g = np.asarray(loss.weighted_gradient_sum(w, X, y, qs), dtype=float)
    if not np.isfinite(g).all():
        # Slow path only taken on failure: locate the first bad sample.
        for i in np.flatnonzero(q):
            gi = np.asarray(loss.gradient(w, data.features[i], data.targets[i]), dtype=float)
            if not np.isfinite(gi).all():
                raise EvaluationError(f"non-finite gradient at sample {int(i)}")
        raise EvaluationError("non-finite gradient accumulation")
    return g
